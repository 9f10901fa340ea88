"""Deterministic random-number helpers.

Every stochastic component in the reproduction (workload generators, the
network simulator, access traces) takes an explicit integer seed so that
experiments are bit-for-bit repeatable.  This module centralizes how seeds
are derived and how generators are constructed, following the
``numpy.random.Generator`` API recommended by the scientific-python
guides (never the legacy ``RandomState``).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["derive_seed", "make_rng"]


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a stable child seed from ``base_seed`` and a label path.

    The derivation hashes the base seed together with the string forms of
    the labels, so independent subsystems that share a base seed still get
    decorrelated streams.  The result fits in 63 bits (always
    non-negative).

    >>> derive_seed(42, "stations", 3) == derive_seed(42, "stations", 3)
    True
    >>> derive_seed(42, "stations", 3) != derive_seed(42, "stations", 4)
    True
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest(), "big") & 0x7FFF_FFFF_FFFF_FFFF


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` for ``seed`` and labels
    (numpy loads here: the serving path imports this module but draws
    random numbers only when a fault is configured)."""
    import numpy as np

    return np.random.default_rng(derive_seed(seed, *labels))

