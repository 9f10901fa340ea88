"""Differential suite: scatter-gather equals a single node, bit for bit.

The same deterministic dataset goes into one plain
:class:`~repro.rdb.Database` and into sharded clusters of 1, 2 and 4
shards; every query below must return identical results from both.
Integer-valued aggregate columns keep even ``avg`` exact (same ints,
same division on both sides).
"""

from __future__ import annotations

import pytest

from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.predicate import col
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.util.rng import make_rng

T = ColumnType

WIDE = Schema(
    name="wide",
    columns=(
        Column("id", T.INT, nullable=False),
        Column("grp", T.INT, nullable=False),
        Column("val", T.INT),
        Column("label", T.TEXT),
    ),
    primary_key=("id",),
)
DIM = Schema(
    name="dim",
    columns=(
        Column("k", T.INT, nullable=False),
        Column("name", T.TEXT, nullable=False),
    ),
    primary_key=("k",),
)
SCHEMAS = (WIDE, DIM)
SHARD_COUNTS = (1, 2, 4)


def dataset(seed):
    rng = make_rng(seed, "sharding-differential")
    wide = [
        {
            "id": i,
            "grp": int(rng.integers(0, 6)),
            "val": None if rng.random() < 0.15
            else int(rng.integers(-50, 50)),
            "label": None if rng.random() < 0.1
            else f"L{int(rng.integers(0, 4))}",
        }
        for i in range(1, 61)
    ]
    dim = [{"k": g, "name": f"group-{g}"} for g in range(0, 5)]
    return wide, dim


def canonical(rows):
    """Order-insensitive comparison form."""
    return sorted(
        (tuple(sorted(row.items(), key=lambda kv: kv[0]))
         for row in rows),
        key=repr,
    )


@pytest.fixture(params=[0, 1], ids=["seed0", "seed1"])
def seed(request):
    return request.param


@pytest.fixture
def baseline(seed):
    db = Database("baseline")
    for schema in SCHEMAS:
        db.create_table(schema)
    wide, dim = dataset(seed)
    db.insert_many("wide", wide)
    db.insert_many("dim", dim)
    return db


@pytest.fixture
def sharded_dbs(shard_cluster, seed):
    """One ShardedDatabase per shard count, same rows in each."""
    out = {}
    wide, dim = dataset(seed)
    for num_shards in SHARD_COUNTS:
        cluster = shard_cluster(
            num_shards,
            schemas=SCHEMAS,
            shard_map=ShardMap(num_shards, {
                "wide": TableSharding(key=("id",)),
                "dim": TableSharding(key=("k",)),
            }),
            use_net=False,
        )
        cluster.sharded.insert_many("wide", wide)
        cluster.sharded.insert_many("dim", dim)
        out[num_shards] = cluster.sharded
    return out


BAD_BOUNDS = {
    "neg-limit": dict(limit=-1), "str-limit": dict(limit="2"),
    "bool-limit": dict(limit=True), "neg-offset": dict(limit=3, offset=-1),
    "str-offset": dict(offset="1"),
}

PREDICATES = [
    None,
    col("grp") == 3,
    (col("val") > 0) & (col("grp") < 4),
    col("label") == "L1",
    col("id") == 17,
]


class TestScans:
    def test_unordered_scans_match_as_sets(self, baseline, sharded_dbs):
        for where in PREDICATES:
            want = canonical(baseline.select("wide", where))
            for num_shards, sdb in sharded_dbs.items():
                got = canonical(sdb.select("wide", where))
                assert got == want, (num_shards, where)

    def test_ordered_top_k_matches_exactly(self, baseline, sharded_dbs):
        cases = [
            dict(order_by=("val", "id"), limit=11, offset=0),
            dict(order_by=("val", "id"), limit=7, offset=5),
            dict(order_by="id", descending=True, limit=9),
            dict(order_by=("label", "grp", "id")),
        ]
        for kwargs in cases:
            want = baseline.select("wide", **kwargs)
            for num_shards, sdb in sharded_dbs.items():
                assert sdb.select("wide", **kwargs) == want, \
                    (num_shards, kwargs)

    @pytest.mark.parametrize("bounds", BAD_BOUNDS.values(), ids=BAD_BOUNDS)
    def test_bad_bounds_rejected_alike(
        self, baseline, sharded_dbs, bounds
    ):
        """Validated before ``limit+offset`` is folded into the
        pushed-down bound, so no shard ever sees a poisoned top-k."""
        for where in (None, col("id") == 17):  # scatter and single-shard
            with pytest.raises(ValueError, match="limit|offset"):
                baseline.select("wide", where=where, order_by="id", **bounds)
            for sdb in sharded_dbs.values():
                with pytest.raises(ValueError, match="limit|offset"):
                    sdb.select("wide", where=where, order_by="id", **bounds)

    def test_distinct_projection_matches(self, baseline, sharded_dbs):
        want = baseline.select(
            "wide", columns=("grp", "label"), distinct=True,
            order_by=("grp", "label"),
        )
        for num_shards, sdb in sharded_dbs.items():
            got = sdb.select(
                "wide", columns=("grp", "label"), distinct=True,
                order_by=("grp", "label"),
            )
            assert got == want, num_shards

    def test_point_lookups_match(self, baseline, sharded_dbs):
        for pk in (1, 17, 60, 999):
            want = baseline.get("wide", pk)
            for num_shards, sdb in sharded_dbs.items():
                assert sdb.get("wide", pk) == want
                assert sdb.exists("wide", pk) == (want is not None)

    def test_counts_match(self, baseline, sharded_dbs):
        for where in PREDICATES:
            want = baseline.count("wide", where)
            for num_shards, sdb in sharded_dbs.items():
                assert sdb.count("wide", where) == want


class TestAggregates:
    SPEC = {
        "n": ("count", None),
        "vals": ("count", "val"),
        "total": ("sum", "val"),
        "lo": ("min", "val"),
        "hi": ("max", "val"),
        "mean": ("avg", "val"),
    }

    def test_global_aggregates_match(self, baseline, sharded_dbs):
        for where in (None, col("grp") == 2, col("id") > 900):
            want = baseline.aggregate("wide", self.SPEC, where)
            for num_shards, sdb in sharded_dbs.items():
                assert sdb.aggregate("wide", self.SPEC, where) == want, \
                    (num_shards, where)

    def test_grouped_aggregates_match(self, baseline, sharded_dbs):
        for group_by in (("grp",), ("label",), ("grp", "label")):
            want = baseline.aggregate(
                "wide", self.SPEC, None, group_by
            )
            for num_shards, sdb in sharded_dbs.items():
                got = sdb.aggregate("wide", self.SPEC, None, group_by)
                assert got == want, (num_shards, group_by)


class TestJoins:
    def test_non_colocated_join_matches(self, baseline, sharded_dbs):
        want = canonical(baseline.join("wide", "dim", [("grp", "k")]))
        for num_shards, sdb in sharded_dbs.items():
            got = canonical(sdb.join("wide", "dim", [("grp", "k")]))
            assert got == want, num_shards

    def test_filtered_join_matches(self, baseline, sharded_dbs):
        want = canonical(baseline.join(
            "wide", "dim", [("grp", "k")], where_left=col("val") > 10,
        ))
        for num_shards, sdb in sharded_dbs.items():
            got = canonical(sdb.join(
                "wide", "dim", [("grp", "k")],
                where_left=col("val") > 10,
            ))
            assert got == want, num_shards
