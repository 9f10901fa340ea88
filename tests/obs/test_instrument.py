"""The global switch: enable/disable, scoped use, zero-cost guards."""

from __future__ import annotations

import pytest

from repro.obs import (
    INSTRUMENT_POINTS,
    MetricsRegistry,
    Tracer,
    disable,
    enable,
    enabled,
)
from repro.obs.instrument import OBS


@pytest.fixture(autouse=True)
def _clean_switch():
    disable()
    yield
    disable()


def test_enable_installs_defaults_and_disable_drops_them():
    assert not OBS.enabled
    registry, tracer = enable()
    assert OBS.enabled
    assert OBS.registry is registry
    assert OBS.tracer is tracer
    disable()
    assert not OBS.enabled
    assert OBS.registry is None and OBS.tracer is None


def test_enable_keeps_halves_not_overridden():
    registry, _ = enable(registry=MetricsRegistry())
    sim_tracer = Tracer(clock=lambda: 42.0)
    registry2, tracer2 = enable(tracer=sim_tracer)
    assert registry2 is registry  # untouched half survives
    assert tracer2 is sim_tracer


def test_enabled_context_restores_previous_state():
    outer_registry, _ = enable()
    with enabled(registry=MetricsRegistry()) as (inner_registry, _tracer):
        assert OBS.registry is inner_registry
        assert inner_registry is not outer_registry
    assert OBS.enabled
    assert OBS.registry is outer_registry
    disable()
    with enabled():
        assert OBS.enabled
    assert not OBS.enabled


def test_obs_singleton_reflects_enable_state():
    assert OBS.enabled is False
    registry, _ = enable()
    assert OBS.enabled is True
    assert OBS.registry is registry


def test_instrument_points_catalogue_is_sane():
    assert INSTRUMENT_POINTS, "catalogue must not be empty"
    for name, description in INSTRUMENT_POINTS.items():
        prefix = name.split(".", 1)[0]
        assert prefix in {
            "rdb", "wal", "tiers", "net", "broadcast", "lock", "fault",
            "replication", "replica", "shard", "admission", "breaker",
                "library",
        }, name
        assert description


def test_engine_handle_cache_reresolves_on_registry_swap(populated_db):
    """Cached metric handles must follow the active registry object."""
    first, _ = enable(registry=MetricsRegistry())
    populated_db.select("people")
    assert first.snapshot().counter_total("rdb.statements") == 1
    second, _ = enable(registry=MetricsRegistry())
    populated_db.select("people")
    assert second.snapshot().counter_total("rdb.statements") == 1
    assert first.snapshot().counter_total("rdb.statements") == 1  # unchanged


def test_disabled_paths_touch_no_registry(populated_db):
    """With the switch off, instrumented code must not create metrics."""
    probe = MetricsRegistry()
    OBS.registry = probe  # installed but NOT enabled
    try:
        populated_db.select("people")
        populated_db.insert(
            "people",
            {"person_id": 9, "name": "zed", "age": 1,
             "email": "z@mmu.edu", "tags": []},
        )
        assert len(probe) == 0
    finally:
        disable()
