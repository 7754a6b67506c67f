"""Tests for repro.disksim.instance."""

from __future__ import annotations

import pytest

from repro.disksim import DiskLayout, ProblemInstance, RequestSequence
from repro.errors import ConfigurationError


class TestConstruction:
    def test_single_disk_constructor(self):
        inst = ProblemInstance.single_disk(["a", "b", "a"], cache_size=2, fetch_time=3)
        assert inst.num_disks == 1
        assert inst.num_requests == 3
        assert inst.requested_blocks == {"a", "b"}
        assert isinstance(inst.sequence, RequestSequence)

    def test_parallel_disk_constructor(self):
        layout = DiskLayout.partitioned([["a"], ["b"]])
        inst = ProblemInstance.parallel_disk(["a", "b"], 2, 2, layout)
        assert inst.num_disks == 2
        assert inst.disk_of("b") == 1

    def test_plain_sequence_coerced(self):
        inst = ProblemInstance(sequence=["a", "b"], cache_size=1, fetch_time=1)
        assert isinstance(inst.sequence, RequestSequence)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_size": 0, "fetch_time": 1},
            {"cache_size": 1, "fetch_time": 0},
            {"cache_size": 1, "fetch_time": 1, "initial_cache": ["x", "y"]},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProblemInstance.single_disk(["a"], **kwargs)


class TestDerived:
    def test_cold_misses(self):
        inst = ProblemInstance.single_disk(
            ["a", "b", "c", "a"], cache_size=3, fetch_time=2, initial_cache=["a", "x"]
        )
        assert inst.cold_misses() == 2  # b and c

    def test_with_cache_size(self):
        inst = ProblemInstance.single_disk(["a"], cache_size=2, fetch_time=2)
        assert inst.with_cache_size(5).cache_size == 5

    def test_with_initial_cache(self):
        inst = ProblemInstance.single_disk(["a", "b"], cache_size=2, fetch_time=2)
        warm = inst.with_initial_cache(["a"])
        assert warm.initial_cache == frozenset({"a"})
        assert inst.initial_cache == frozenset()

    def test_describe_mentions_key_parameters(self):
        inst = ProblemInstance.single_disk(["a", "b"], cache_size=7, fetch_time=5)
        text = inst.describe()
        assert "k=7" in text and "F=5" in text and "n=2" in text
