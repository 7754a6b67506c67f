"""Tests for repro.disksim.disk (DiskLayout)."""

from __future__ import annotations

import pytest

from repro.disksim import DiskLayout
from repro.errors import ConfigurationError


class TestConstruction:
    def test_single(self):
        layout = DiskLayout.single()
        assert layout.num_disks == 1
        assert layout.disk_of("anything") == 0

    def test_from_mapping(self):
        layout = DiskLayout.from_mapping({"a": 0, "b": 2})
        assert layout.num_disks == 3
        assert layout.disk_of("b") == 2

    def test_invalid_disk_in_mapping(self):
        with pytest.raises(ConfigurationError):
            DiskLayout(2, {"a": 5})

    def test_invalid_num_disks(self):
        with pytest.raises(ConfigurationError):
            DiskLayout(0)

    def test_invalid_default_disk(self):
        with pytest.raises(ConfigurationError):
            DiskLayout(2, {}, default_disk=3)

    def test_unmapped_blocks_live_on_the_default_disk(self):
        layout = DiskLayout(3, {"a": 0}, default_disk=2)
        assert layout.disk_of("a") == 0
        assert layout.disk_of("never-mapped") == 2


class TestPlacements:
    def test_striped_round_robin(self):
        layout = DiskLayout.striped(["a", "b", "c", "d", "e"], 2)
        assert layout.disk_of("a") == 0
        assert layout.disk_of("b") == 1
        assert layout.disk_of("c") == 0
        assert len(layout.blocks_on(0)) == 3
        assert len(layout.blocks_on(1)) == 2

    def test_hashed_is_deterministic_and_in_range(self):
        blocks = [f"b{i}" for i in range(50)]
        layout1 = DiskLayout.hashed(blocks, 4)
        layout2 = DiskLayout.hashed(blocks, 4)
        for block in blocks:
            assert layout1.disk_of(block) == layout2.disk_of(block)
            assert 0 <= layout1.disk_of(block) < 4

    def test_hashed_uses_every_disk_for_many_blocks(self):
        blocks = [f"b{i}" for i in range(200)]
        layout = DiskLayout.hashed(blocks, 4)
        used = {layout.disk_of(b) for b in blocks}
        assert used == {0, 1, 2, 3}

    def test_partitioned(self):
        layout = DiskLayout.partitioned([["a", "b"], ["c"]])
        assert layout.num_disks == 2
        assert layout.disk_of("c") == 1
        assert layout.blocks_on(0) == {"a", "b"}

    def test_partitioned_conflict_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskLayout.partitioned([["a"], ["a"]])

    def test_partitioned_empty_is_single(self):
        assert DiskLayout.partitioned([]).num_disks == 1


class TestQueries:
    def test_partition_groups_blocks(self):
        layout = DiskLayout.striped(["a", "b", "c"], 2)
        parts = layout.partition(["a", "b", "c", "unmapped"])
        assert parts[0] == {"a", "c", "unmapped"}
        assert parts[1] == {"b"}

    def test_blocks_on_invalid_disk(self):
        with pytest.raises(ConfigurationError):
            DiskLayout.single().blocks_on(3)

    def test_equality(self):
        assert DiskLayout.from_mapping({"a": 1}) == DiskLayout.from_mapping({"a": 1})
        assert DiskLayout.single() != DiskLayout(2)
