"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core import ImplementationSCI, ScriptSCI, WebDocumentDatabase
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.rdb import Action, Column, ColumnType, Database, ForeignKey, Schema
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind

T = ColumnType


# ---------------------------------------------------------------------------
# Relational-engine fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def people_schema() -> Schema:
    """A simple standalone table."""
    return Schema(
        name="people",
        columns=(
            Column("person_id", T.INT, nullable=False),
            Column("name", T.TEXT, nullable=False),
            Column("age", T.INT),
            Column("email", T.TEXT),
            Column("tags", T.JSON, default=[]),
        ),
        primary_key=("person_id",),
        unique=(("email",),),
    )


@pytest.fixture
def orders_schema() -> Schema:
    """A child table with a CASCADE foreign key into people."""
    return Schema(
        name="orders",
        columns=(
            Column("order_id", T.INT, nullable=False),
            Column("person_id", T.INT),
            Column("amount", T.FLOAT, nullable=False, default=0.0),
        ),
        primary_key=("order_id",),
        foreign_keys=(
            ForeignKey(
                ("person_id",), "people", ("person_id",),
                on_delete=Action.CASCADE, on_update=Action.CASCADE,
            ),
        ),
    )


@pytest.fixture
def db(people_schema: Schema, orders_schema: Schema) -> Database:
    """An engine with the people/orders pair created."""
    database = Database("testdb")
    database.create_table(people_schema)
    database.create_table(orders_schema)
    return database


@pytest.fixture
def populated_db(db: Database) -> Database:
    """people: ada/bob/cyd; orders: two for ada, one for bob."""
    db.insert("people", {"person_id": 1, "name": "ada", "age": 36,
                         "email": "ada@mmu.edu", "tags": ["fac"]})
    db.insert("people", {"person_id": 2, "name": "bob", "age": 20,
                         "email": "bob@mmu.edu", "tags": ["stu"]})
    db.insert("people", {"person_id": 3, "name": "cyd", "age": None,
                         "email": None, "tags": ["stu", "ta"]})
    db.insert("orders", {"order_id": 10, "person_id": 1, "amount": 5.0})
    db.insert("orders", {"order_id": 11, "person_id": 1, "amount": 7.5})
    db.insert("orders", {"order_id": 12, "person_id": 2, "amount": 2.0})
    return db


def index_named(db: Database, table: str, name: str):
    """One of ``table``'s secondary indexes, by name — the live counters
    (``len(index)``, ``index.distinct_keys()``) the planner reads."""
    indexes = db.table(table).indexes
    return {
        index.name: index
        for index in (*indexes.hash_indexes, *indexes.sorted_indexes)
    }[name]


# ---------------------------------------------------------------------------
# Network fixtures
# ---------------------------------------------------------------------------
def build_network(
    n: int,
    mbit: float = 10.0,
    latency: float = 0.02,
    *,
    disk_capacity: dict[str, int] | None = None,
) -> Network:
    """N stations named s1..sN with symmetric links; ``disk_capacity``
    caps the named stations' disks."""
    sim = Simulator()
    network = Network(sim, default_latency_s=latency)
    capacities = disk_capacity or {}
    for position in range(1, n + 1):
        name = f"s{position}"
        network.add(
            Station(name, DuplexLink.symmetric_mbps(mbit),
                    disk_capacity=capacities.get(name))
        )
    return network


@pytest.fixture
def net8() -> Network:
    return build_network(8)


@pytest.fixture
def net16() -> Network:
    return build_network(16)


# ---------------------------------------------------------------------------
# Sharding fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def shard_cluster(tmp_path):
    """Factory for N shards + a 2PC coordinator on ``repro.net``.

    ``cluster = shard_cluster(4, schemas=..., shard_map=...)`` builds a
    :class:`~repro.sharding.cluster.ShardCluster` (journal-backed
    participants, RPC stations, coordinator) plus a query tier
    (``cluster.sharded``, a :class:`~repro.tiers.shards
    .ShardedDatabase`).  The default shard map hashes each table on its
    primary key; pass an explicit map for co-location.  Teardown
    closes every journal and strict-reads it end to end — a test that
    corrupted any node's WAL fails here even if its assertions passed.
    """
    from repro.fault.crashsim import CRASH_SCHEMAS
    from repro.sharding import ShardCluster
    from repro.sharding.shardmap import ShardMap, TableSharding
    from repro.tiers.shards import ShardedDatabase

    built: list = []

    def build(
        num_shards: int = 2,
        *,
        schemas=None,
        shard_map=None,
        use_net: bool = True,
        ddl_fn=None,
        sync: str = "commit",
    ):
        schemas = tuple(schemas) if schemas is not None else CRASH_SCHEMAS
        workdir = tmp_path / f"shard-cluster-{len(built)}"
        cluster = ShardCluster(
            workdir, schemas, num_shards,
            ddl_fn=ddl_fn, sync=sync, use_net=use_net,
        )
        if shard_map is None:
            shard_map = ShardMap(num_shards, {
                s.name: TableSharding(key=tuple(s.primary_key))
                for s in schemas
            })
        cluster.shard_map = shard_map
        cluster.sharded = ShardedDatabase(
            shard_map, cluster.handles, lambda: cluster.coordinator,
            schemas=schemas,
        )
        built.append(cluster)
        return cluster

    yield build
    for cluster in built:
        cluster.close()
        cluster.verify_journals()


# ---------------------------------------------------------------------------
# Observability fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def metrics_registry():
    """A fresh registry installed as the active one for this test.

    Teardown asserts every metric the test produced is a catalogued
    instrument point (see ``repro.obs.INSTRUMENT_POINTS``) — a typo'd
    metric name fails the test that emitted it instead of silently
    splitting a series — and always disables instrumentation again.
    """
    from repro.obs import INSTRUMENT_POINTS, MetricsRegistry, Tracer
    from repro.obs import disable, enable

    registry, _ = enable(registry=MetricsRegistry(), tracer=Tracer())
    try:
        yield registry
        unexpected = sorted(set(registry.names()) - set(INSTRUMENT_POINTS))
        assert not unexpected, (
            f"metrics emitted outside INSTRUMENT_POINTS: {unexpected}"
        )
    finally:
        disable()


@pytest.fixture
def sim_tracer():
    """Factory binding the active tracer to a simulator's virtual clock.

    ``tracer = sim_tracer(network.sim)`` turns instrumentation on with a
    tracer whose clock reads ``sim.now``, so spans from the instrumented
    layers carry deterministic virtual timestamps.  Composes with
    ``metrics_registry`` (whichever runs second keeps the other's half).
    """
    from repro.obs import Tracer, disable, enable

    def bind(sim):
        _, tracer = enable(
            tracer=Tracer(clock=lambda: sim.now), clock=lambda: sim.now
        )
        return tracer

    try:
        yield bind
    finally:
        disable()


# ---------------------------------------------------------------------------
# Web document database fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def wddb() -> WebDocumentDatabase:
    """A document database with one course database created."""
    database = WebDocumentDatabase("teststation")
    database.create_document_database(
        "mmu", author="shih", keywords=["test"],
        created_at=dt.datetime(1999, 6, 1),
    )
    return database


@pytest.fixture
def course(wddb: WebDocumentDatabase) -> ImplementationSCI:
    """One small course: script + 2-page implementation + video blob."""
    wddb.add_script(
        ScriptSCI(
            script_name="cs101",
            db_name="mmu",
            author="shih",
            description="intro course",
            keywords=["intro"],
        )
    )
    video = wddb.register_blob("cs101/lec.mpg", 1_000_000, BlobKind.VIDEO)
    return wddb.add_implementation(
        ImplementationSCI(
            starting_url="http://mmu/cs101/",
            script_name="cs101",
            author="shih",
            multimedia=[video],
        ),
        html_files=[
            DocumentFile(
                "cs101/index.html", FileKind.HTML,
                '<a href="cs101/p1.html">next</a>'
                '<img src="cs101/lec.mpg">',
            ),
            DocumentFile("cs101/p1.html", FileKind.HTML, "<html>end</html>"),
        ],
        program_files=[
            DocumentFile("cs101/quiz.class", FileKind.PROGRAM, "code")
        ],
    )


# ---------------------------------------------------------------------------
# Crash-matrix fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def verdict_digest():
    """``digest(report, *facts)``: a short hash of a crash matrix's
    per-point ``(stream, offset, kind, ok[, crashed], *facts)`` list, for
    pinning verdicts recorded from an earlier commit."""
    import hashlib
    import json

    def digest(report, *facts, crashed=True):
        rows = [
            [c.stream, c.offset, c.kind, c.ok]
            + ([c.crashed] if crashed else [])
            + [c.facts[f] for f in facts]
            for c in report.cases
        ]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]

    return digest
