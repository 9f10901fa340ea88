"""Shared utilities: seeded RNG helpers, unit conversions, validation.

These helpers are deliberately tiny and dependency-free so that every
substrate package (:mod:`repro.rdb`, :mod:`repro.net`, ...) can use them
without import cycles — importing them loads the standard library only;
:func:`make_rng` brings numpy in when a generator is first asked for.
"""

from repro.util.rng import derive_seed, make_rng
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    Bandwidth,
    bits_to_bytes,
    bytes_to_bits,
    format_bytes,
    format_duration,
    mbps,
    transfer_time,
)
from repro.util.validation import (
    check_identifier,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "derive_seed",
    "make_rng",
    "KIB",
    "MIB",
    "GIB",
    "Bandwidth",
    "bits_to_bytes",
    "bytes_to_bits",
    "format_bytes",
    "format_duration",
    "mbps",
    "transfer_time",
    "check_identifier",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
