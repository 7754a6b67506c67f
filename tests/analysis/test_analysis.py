"""Tests for the analysis helpers: the brute-force optimum and the table reports."""

from __future__ import annotations

import pytest

from repro.analysis import brute_force_optimal_stall, format_comparison, format_table
from repro.disksim import ProblemInstance
from repro.errors import ConfigurationError
from repro.lp import optimal_single_disk
from repro.workloads import parallel_disk_example, single_disk_example, uniform_random


class TestBruteForce:
    def test_paper_single_disk_example(self):
        result = brute_force_optimal_stall(single_disk_example())
        assert result.stall_time == 1
        assert result.elapsed_time == 11
        assert result.explored_states > 0

    def test_zero_stall_instance(self):
        instance = ProblemInstance.single_disk(
            ["a", "b", "a"], cache_size=2, fetch_time=2, initial_cache=["a", "b"]
        )
        assert brute_force_optimal_stall(instance).stall_time == 0

    def test_matches_lp_on_small_instances(self, small_cold_instance, small_warm_instance):
        for instance in (small_cold_instance, small_warm_instance):
            brute = brute_force_optimal_stall(instance)
            lp = optimal_single_disk(instance)
            assert brute.stall_time == lp.stall_time

    def test_parallel_example(self):
        result = brute_force_optimal_stall(parallel_disk_example())
        # The paper's narrated schedule achieves 3; with only k slots the
        # optimum cannot be better than the LP bound and is at most 3.
        assert 0 < result.stall_time <= 3

    def test_rejects_large_instances(self):
        instance = ProblemInstance.single_disk(
            uniform_random(60, 20, seed=0), cache_size=4, fetch_time=2
        )
        with pytest.raises(ConfigurationError):
            brute_force_optimal_stall(instance)


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            [{"name": "x", "value": 1.23456}, {"name": "longer", "value": 2}],
            float_precision=2,
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text and "longer" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_comparison(self):
        text = format_comparison(
            {"aggr": {"p1": 1.2, "p2": 1.3}, "cons": {"p1": 1.5}}, title="ratios"
        )
        assert "ratios" in text and "p2" in text and "cons" in text

