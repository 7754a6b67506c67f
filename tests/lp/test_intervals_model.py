"""Tests for the LP interval structure and model construction."""

from __future__ import annotations

import pytest

from repro.disksim import ProblemInstance
from repro.errors import ConfigurationError
from repro.lp import (
    Interval,
    SynchronizedLPModel,
    enumerate_intervals,
    solve_relaxation,
    validate_solution,
)
from repro.lp.intervals import intervals_covering_slot, intervals_within
from repro.workloads import parallel_disk_example, single_disk_example


class TestInterval:
    def test_length_and_stall(self):
        interval = Interval(2, 6)
        assert interval.length == 3
        assert interval.charged_stall(4) == 1
        assert interval.charged_stall(3) == 0

    def test_containment_and_slots(self):
        outer, inner = Interval(1, 6), Interval(2, 4)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert inner.contained_in(1, 6)
        assert outer.covers_slot(3)
        assert not outer.covers_slot(1)
        assert not outer.covers_slot(6)
        assert not Interval(2, 3).covers_slot(2)  # zero-length: no slots

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            Interval(3, 3)


class TestEnumeration:
    def test_counts_small_case(self):
        intervals = enumerate_intervals(num_requests=3, fetch_time=2)
        # i=0: (0,1),(0,2),(0,3); i=1: (1,2),(1,3); i=2: (2,3) -> 6 intervals.
        assert len(intervals) == 6
        assert all(i.length <= 2 for i in intervals)

    def test_lengths_capped_by_fetch_time(self):
        intervals = enumerate_intervals(num_requests=20, fetch_time=3)
        assert max(i.length for i in intervals) == 3

    def test_helpers(self):
        intervals = enumerate_intervals(5, 2)
        inside = list(intervals_within(intervals, 1, 4))
        assert all(i.contained_in(1, 4) for i in inside)
        covering = list(intervals_covering_slot(intervals, 2))
        assert all(i.covers_slot(2) for i in covering)
        assert covering


class TestModelConstruction:
    def test_model_dimensions_single_disk(self):
        model = SynchronizedLPModel(single_disk_example())
        assert model.capacity == 4
        assert model.num_intervals == len(enumerate_intervals(10, 4))
        assert model.num_variables > model.num_intervals
        assert "variables" in model.describe()

    def test_dummy_blocks_fill_capacity(self):
        inst = ProblemInstance.single_disk(["a", "b", "c"], cache_size=3, fetch_time=2)
        model = SynchronizedLPModel(inst)
        assert len(model.dummy_blocks) == 3
        assert len(model.augmented_instance.initial_cache) == 3

    def test_parallel_model_has_d_minus_one_extra_locations(self):
        instance = parallel_disk_example()
        model = SynchronizedLPModel(instance)
        assert model.capacity == instance.cache_size + instance.num_disks - 1
        assert len(model.augmented_instance.initial_cache) == model.capacity

    def test_relaxation_solution_is_feasible_for_model(self):
        model = SynchronizedLPModel(single_disk_example())
        solution = solve_relaxation(model)
        report = validate_solution(model, solution)
        assert report.is_feasible
        assert report.objective == pytest.approx(solution.objective)

    def test_relaxation_lower_bounds_paper_example(self):
        model = SynchronizedLPModel(single_disk_example())
        solution = solve_relaxation(model)
        # The paper's best option needs exactly 1 unit of stall.
        assert solution.objective <= 1.0 + 1e-6
        assert solution.objective >= 0.0
