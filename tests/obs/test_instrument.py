"""The global switch, declared instruments and the emitting sites."""

from __future__ import annotations

import itertools

import pytest

from repro.admission import AdmissionController, ClockBox
from repro.core.locking import LockManager, LockMode, ObjectTree
from repro.distribution import MAryTree, PreBroadcaster
from repro.library.search import SearchIndex
from repro.obs import (
    INSTRUMENT_POINTS,
    MetricsRegistry,
    Tracer,
    disable,
    enable,
    enabled,
)
from repro.obs.instrument import OBS, Instrument
from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.tiers import ClassAdministrator, Request
from repro.tiers.cache import QueryCache, TableVersions

from tests.conftest import build_network


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


def test_an_uncatalogued_name_is_refused_at_declaration():
    with pytest.raises(ValueError, match="INSTRUMENT_POINTS"):
        Instrument("counter", "rdb.statment")
    with pytest.raises(ValueError, match="kind"):
        Instrument("meter", "net.bytes")


def test_a_handle_is_resolved_once_per_registry():
    first, _ = enable(registry=MetricsRegistry())
    plans = Instrument("counter", "rdb.plan", "table", "path")
    handle = plans["t", "scan"]
    assert plans["t", "scan"] is handle
    assert first.counter("rdb.plan", table="t", path="scan") is handle
    enable(registry=MetricsRegistry())
    assert plans["t", "scan"] is not handle


def test_a_family_creates_its_declared_series_on_first_use():
    """A dump lists a subsystem's zero counts from its first event on."""
    net = build_network(2)
    db = _people_db()
    registry, _ = enable(registry=MetricsRegistry())
    net.send("s1", "s2", "ping")
    db.select("people")
    snap = registry.snapshot()
    assert snap.counters[("net.dropped", ())] == 0
    assert snap.counters[("net.expired", ())] == 0
    assert snap.counters[("rdb.statements", (("kind", "delete"),))] == 0
    assert snap.histograms[("rdb.txn_seconds", (("outcome", "commit"),))].count == 0
    assert ("rdb.plan", (("path", "index:x"), ("table", "people"))) not in snap.counters


# Each site whose handles once lived in a cache of its own: an emitter
# built with instrumentation off, and a metric one call of it counts.
def _engine():
    db = _people_db()
    ids = itertools.count(2)

    def emit():
        db.select("people")
        db.insert("people", {"person_id": next(ids), "age": 1})

    return emit, "rdb.statements"


def _query():
    db = _people_db()
    return lambda: db.select("people"), "rdb.plan"


def _compile():
    db = _people_db()
    return lambda: db.select("people", where=col("age") > 1), "rdb.compile"


def _transport():
    net = build_network(2)
    return lambda: net.send("s1", "s2", "ping"), "net.messages"


def _query_cache():
    db = _people_db()
    versions = TableVersions()
    versions.attach(db)
    cache = QueryCache(versions)
    return lambda: cache.select(db, "people"), "tiers.cache"


def _lock_manager():
    tree = ObjectTree("root")
    tree.add("doc", "root")
    locks = LockManager(tree)
    return lambda: locks.acquire("ada", "doc", LockMode.READ), "lock.acquired"


def _broadcaster():
    net = build_network(4)
    tree = MAryTree(4, 3, names=net.names())
    broadcaster = PreBroadcaster(net)
    lectures = itertools.count()
    return (
        lambda: broadcaster.broadcast(f"lec{next(lectures)}", 1_000, tree),
        "broadcast.chunks_sent",
    )


def _admission():
    class Stub:
        op, deadline, priority, tenant = "roster", 10.0, None, None

    controller = AdmissionController(clock=ClockBox(0.0))
    return lambda: controller.admit(Stub()), "admission.admitted"


def _administrator():
    server = ClassAdministrator()
    request = Request(op="login", session_id=None,
                      params={"user": "ada", "role": "student"})
    return lambda: server.handle(request), "tiers.requests"


def _search():
    index = SearchIndex()
    index.add("d1", keywords=("multimedia",), title="Intro")
    return lambda: index.search("multimedia"), "library.searches"


def _people_db():
    db = Database("obs")
    db.create_table(Schema(
        name="people",
        columns=(Column("person_id", ColumnType.INT, nullable=False),
                 Column("age", ColumnType.INT)),
        primary_key=("person_id",),
    ))
    db.insert("people", {"person_id": 1, "age": 36})
    return db


EMITTERS = {
    "rdb.engine": _engine,
    "rdb.query": _query,
    "rdb.compile": _compile,
    "net.transport": _transport,
    "tiers.cache": _query_cache,
    "core.locking": _lock_manager,
    "distribution.broadcast": _broadcaster,
    "admission.controller": _admission,
    "tiers.server": _administrator,
    "library.search": _search,
}


@pytest.mark.parametrize("site", EMITTERS)
def test_handles_reresolve_on_registry_swap(site):
    """A site's handles follow the active registry object."""
    emit, name = EMITTERS[site]()
    first, _ = enable(registry=MetricsRegistry())
    emit()
    counted = first.snapshot().counter_total(name)
    assert counted >= 1
    second, _ = enable(registry=MetricsRegistry())
    emit()
    assert second.snapshot().counter_total(name) == counted
    assert first.snapshot().counter_total(name) == counted  # unchanged


@pytest.mark.parametrize("site", EMITTERS)
def test_obs_off_site_touches_no_registry(site):
    """With the switch off, instrumented code must not create metrics."""
    emit, _name = EMITTERS[site]()
    probe = MetricsRegistry()
    OBS.registry = probe  # installed but NOT enabled
    try:
        emit()
        assert len(probe) == 0
    finally:
        disable()
