"""Tests for disk accounting."""

import pytest

from repro.storage.accounting import DiskAccountant, DiskFullError


class TestAllocation:
    def test_allocate_and_free(self):
        disk = DiskAccountant("s1")
        disk.allocate(100, "buffer")
        disk.allocate(50, "persistent")
        assert disk.used_bytes == 150
        disk.free(30, "buffer")
        assert disk.used_in("buffer") == 70

    def test_capacity_enforced(self):
        disk = DiskAccountant("s1", capacity=100)
        disk.allocate(80)
        with pytest.raises(DiskFullError) as info:
            disk.allocate(30)
        assert info.value.available == 20
        assert disk.used_bytes == 80  # failed alloc left no trace

    def test_available_bytes(self):
        disk = DiskAccountant("s1", capacity=100)
        disk.allocate(40)
        assert disk.available_bytes == 60
        assert DiskAccountant("s2").available_bytes is None

    def test_over_free_rejected(self):
        disk = DiskAccountant()
        disk.allocate(10, "x")
        with pytest.raises(ValueError, match="holds only"):
            disk.free(20, "x")

    def test_free_unknown_category_rejected(self):
        disk = DiskAccountant()
        with pytest.raises(ValueError):
            disk.free(1, "ghost")

    def test_category_removed_when_empty(self):
        disk = DiskAccountant()
        disk.allocate(10, "x")
        disk.free(10, "x")
        assert "x" not in disk.categories()

    def test_negative_rejected(self):
        disk = DiskAccountant()
        with pytest.raises(ValueError):
            disk.allocate(-1)
        with pytest.raises(ValueError):
            disk.free(-1)


class TestTransfer:
    def test_transfer_between_categories(self):
        disk = DiskAccountant()
        disk.allocate(100, "buffer")
        disk.transfer(40, "buffer", "persistent")
        assert disk.used_in("buffer") == 60
        assert disk.used_in("persistent") == 40
        assert disk.used_bytes == 100

    def test_transfer_more_than_held_rejected(self):
        disk = DiskAccountant()
        disk.allocate(10, "buffer")
        with pytest.raises(ValueError):
            disk.transfer(20, "buffer", "persistent")
