"""Shard maps: stable placement, pruning, co-location, serialization."""

from __future__ import annotations

import pytest

from repro.rdb.predicate import col
from repro.sharding.shardmap import (
    ShardMap,
    TableSharding,
    stable_shard_hash,
)


def hash_map(num_shards=4):
    return ShardMap(num_shards, {
        "docs": TableSharding(key=("doc_id",)),
        "refs": TableSharding(key=("doc_id",)),
        "wide": TableSharding(key=("a", "b")),
    })


def range_map():
    return ShardMap(3, {
        "docs": TableSharding(
            key=("doc_id",), strategy="range", bounds=(10, 20)
        ),
    })


class TestPlacement:
    def test_hash_is_stable_and_process_independent(self):
        # CRC over canonical JSON, not Python's salted hash().
        assert stable_shard_hash((1,)) == stable_shard_hash((1,))
        assert stable_shard_hash(("a", 2)) == stable_shard_hash(("a", 2))
        assert stable_shard_hash((1,)) != stable_shard_hash((2,))

    def test_hash_placement_covers_every_shard(self):
        smap = hash_map(4)
        owners = {smap.shard_for_key("docs", (i,)) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_row_and_key_placement_agree(self):
        smap = hash_map()
        row = {"doc_id": 7, "title": "x"}
        assert smap.shard_for_row("docs", row) == \
            smap.shard_for_key("docs", (7,))

    def test_range_placement_is_upper_exclusive(self):
        smap = range_map()
        owners = [
            smap.shard_for_key("docs", (k,))
            for k in (1, 9, 10, 19, 20, 99)
        ]
        assert owners == [0, 0, 1, 1, 2, 2]

    def test_missing_key_column_raises(self):
        with pytest.raises(ValueError, match="missing shard key"):
            hash_map().shard_for_row("docs", {"title": "x"})

    def test_wrong_key_arity_raises(self):
        with pytest.raises(ValueError, match="columns"):
            hash_map().shard_for_key("wide", (1,))

    def test_unmapped_table_raises_lookup_error(self):
        with pytest.raises(LookupError):
            hash_map().sharding("nope")

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            TableSharding(key=())
        with pytest.raises(ValueError):
            TableSharding(key=("a",), strategy="modulo")
        with pytest.raises(ValueError):
            TableSharding(key=("a", "b"), strategy="range")
        with pytest.raises(ValueError):
            TableSharding(key=("a",), strategy="range", bounds=(9, 3))
        with pytest.raises(ValueError, match="split points"):
            ShardMap(4, {"t": TableSharding(
                key=("a",), strategy="range", bounds=(1,)
            )})
        with pytest.raises(ValueError):
            ShardMap(0, {})


class TestPruning:
    def test_no_predicate_fans_out(self):
        smap = hash_map()
        assert smap.shards_for_where("docs", None) == (0, 1, 2, 3)

    def test_full_key_equality_pins_one_shard(self):
        smap = hash_map()
        shards = smap.shards_for_where("docs", col("doc_id") == 7)
        assert shards == (smap.shard_for_key("docs", (7,)),)

    def test_partial_key_equality_fans_out(self):
        smap = hash_map()
        assert smap.shards_for_where("wide", col("a") == 1) == \
            (0, 1, 2, 3)

    def test_non_key_predicate_fans_out(self):
        smap = hash_map()
        assert smap.shards_for_where("docs", col("title") == "x") == \
            (0, 1, 2, 3)

    def test_range_predicate_pins_contiguous_span(self):
        smap = range_map()
        assert smap.shards_for_where("docs", col("doc_id") < 15) == (0, 1)
        assert smap.shards_for_where("docs", col("doc_id") >= 20) == (2,)
        assert smap.shards_for_where(
            "docs", (col("doc_id") >= 10) & (col("doc_id") < 20)
        ) == (1,)

    def test_group_rows_partitions_by_owner(self):
        smap = hash_map(2)
        rows = [{"doc_id": i} for i in range(10)]
        groups = smap.group_rows("docs", rows)
        assert sum(len(g) for g in groups.values()) == 10
        for shard, group in groups.items():
            assert all(
                smap.shard_for_row("docs", r) == shard for r in group
            )


class TestCatalog:
    def test_colocated_requires_identical_sharding(self):
        smap = hash_map()
        assert smap.colocated("docs", "refs")
        assert not smap.colocated("docs", "wide")

    def test_describe_names_strategy_key_and_fanout(self):
        assert hash_map().describe("docs") == "hash(doc_id)%4"
        assert range_map().describe("docs") == "range(doc_id)%3"
