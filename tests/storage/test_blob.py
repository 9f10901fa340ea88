"""Tests for the content-addressed, refcounted BLOB store."""

import pytest

from repro.storage.blob import (
    Blob,
    BlobKind,
    BlobStore,
    MissingBlobError,
    digest_bytes,
    synthetic_digest,
)


class TestDigests:
    def test_content_digest_deterministic(self):
        assert digest_bytes(b"abc") == digest_bytes(b"abc")
        assert digest_bytes(b"abc") != digest_bytes(b"abd")

    def test_synthetic_digest_by_label_and_size(self):
        assert synthetic_digest("x.mpg", 100) == synthetic_digest("x.mpg", 100)
        assert synthetic_digest("x.mpg", 100) != synthetic_digest("x.mpg", 101)
        assert synthetic_digest("x.mpg", 100) != synthetic_digest("y.mpg", 100)


class TestPut:
    def test_put_real_bytes(self):
        store = BlobStore()
        digest = store.put(b"videodata", BlobKind.VIDEO, owner="doc1")
        blob = store.get(digest)
        assert blob.data == b"videodata" and blob.size == 9
        assert not blob.is_synthetic

    def test_put_synthetic(self):
        store = BlobStore()
        digest = store.put_synthetic("lec.mpg", 1000, BlobKind.VIDEO,
                                     owner="doc1")
        blob = store.get(digest)
        assert blob.size == 1000 and blob.is_synthetic

    def test_dedup_same_content(self):
        store = BlobStore()
        d1 = store.put(b"same", owner="doc1")
        d2 = store.put(b"same", owner="doc2")
        assert d1 == d2 and len(store) == 1
        assert store.dedup_hits == 1
        assert store.owners_of(d1) == {"doc1", "doc2"}

    def test_same_owner_put_idempotent(self):
        store = BlobStore()
        store.put_synthetic("x", 100, owner="doc1")
        store.put_synthetic("x", 100, owner="doc1")
        assert store.physical_bytes == 100
        # a repeat put by the same owner adds no logical usage
        assert store.logical_bytes == 100

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BlobStore().put_synthetic("x", -1, owner="o")


class TestSharingMetrics:
    def test_sharing_factor(self):
        store = BlobStore()
        digest = store.put_synthetic("x", 1000, owner="a")
        store.acquire(digest, "b")
        store.acquire(digest, "c")
        assert store.physical_bytes == 1000
        assert store.logical_bytes == 3000
        assert store.sharing_factor == pytest.approx(3.0)

    def test_empty_store_factor_is_one(self):
        assert BlobStore().sharing_factor == 1.0

    def test_stats_shape(self):
        store = BlobStore("st1")
        store.put_synthetic("x", 10, owner="a")
        stats = store.stats()
        assert stats["station"] == "st1" and stats["blobs"] == 1


class TestReferences:
    def test_acquire_idempotent_per_owner(self):
        store = BlobStore()
        digest = store.put_synthetic("x", 100, owner="a")
        store.acquire(digest, "b")
        store.acquire(digest, "b")  # second acquire is a no-op
        assert store.logical_bytes == 200

    def test_release_frees_on_last_owner(self):
        store = BlobStore()
        digest = store.put_synthetic("x", 100, owner="a")
        store.acquire(digest, "b")
        assert store.release(digest, "a") is False
        assert digest in store
        assert store.release(digest, "b") is True
        assert digest not in store
        assert store.logical_bytes == 0

    def test_release_unknown_owner_keeps_blob(self):
        store = BlobStore()
        digest = store.put_synthetic("x", 100, owner="a")
        assert store.release(digest, "stranger") is False
        assert digest in store

    def test_release_owner_bulk(self):
        store = BlobStore()
        d1 = store.put_synthetic("x", 100, owner="a")
        d2 = store.put_synthetic("y", 50, owner="a")
        store.acquire(d1, "b")
        reclaimed = store.release_owner("a")
        assert reclaimed == 50  # d2 freed; d1 still held by b
        assert d1 in store and d2 not in store

    def test_missing_digest_raises(self):
        store = BlobStore()
        with pytest.raises(MissingBlobError):
            store.get("nope")
        with pytest.raises(MissingBlobError):
            store.acquire("nope", "o")
        with pytest.raises(MissingBlobError):
            store.release("nope", "o")


class TestAdopt:
    def test_refcount_property(self):
        blob = Blob(digest="d", kind=BlobKind.OTHER, size=1)
        assert blob.refcount == 0
        blob.owners.add("a")
        assert blob.refcount == 1
