"""Tests for the theory toolkit: dominance, phases, synchronized schedules."""

from __future__ import annotations

import pytest

from repro.algorithms import Aggressive, ParallelAggressive
from repro.core import (
    AlgorithmState,
    SynchronizedComparison,
    compare_synchronized_to_optimal,
    dominates,
    hole_positions,
    is_fully_synchronized,
    is_synchronized,
    phase_boundaries,
    phase_breakdown,
    phase_length,
    proper_intersections,
    state_of,
)
from repro.disksim import ProblemInstance, RequestSequence, simulate
from repro.errors import ConfigurationError
from repro.workloads import parallel_disk_example, single_disk_example
from repro.workloads.spec import build_workload_instance

SEQ = RequestSequence(["a", "b", "c", "d", "a", "b", "e", "c"])
INST = ProblemInstance.single_disk(SEQ, cache_size=3, fetch_time=2)


class TestDominance:
    def test_hole_positions(self):
        # Cache holds a, b: the missing blocks referenced from position 0 are
        # c (pos 2), d (pos 3), e (pos 6) in that order.
        assert hole_positions(SEQ, 0, ["a", "b"]) == (2, 3, 6)
        # From position 4 with cache {a, b, c}: d is gone (last use before 4),
        # so the only hole is e at position 6.
        assert hole_positions(SEQ, 4, ["a", "b", "c"]) == (6,)

    def test_state_of_and_hole_accessor(self):
        state = state_of(INST, 0, ["a", "b"])
        assert state.cursor == 0
        assert state.hole(1) == 2
        assert state.hole(10) > len(SEQ)  # missing holes are at infinity
        with pytest.raises(ValueError):
            state.hole(0)

    def test_dominates_reflexive_and_ordering(self):
        weaker = AlgorithmState(cursor=2, holes=(3, 5))
        stronger = AlgorithmState(cursor=3, holes=(4, 6))
        assert dominates(weaker, weaker)
        assert dominates(stronger, weaker)
        assert not dominates(weaker, stronger)

    def test_fewer_holes_dominate(self):
        fewer = AlgorithmState(cursor=2, holes=(5,))
        more = AlgorithmState(cursor=2, holes=(5, 7))
        assert dominates(fewer, more)
        assert not dominates(more, fewer)

    def test_cursor_must_not_be_behind(self):
        behind = AlgorithmState(cursor=1, holes=())
        ahead = AlgorithmState(cursor=2, holes=())
        assert not dominates(behind, ahead)

    def test_aggressive_dominates_demand_states(self):
        """At every serve event, Aggressive's state dominates the no-prefetch state."""
        from repro.algorithms import DemandFetch

        instance = single_disk_example()
        aggressive = simulate(instance, Aggressive())
        # Compare final states: same cursor (end), Aggressive's holes cannot be
        # earlier than the demand policy's holes.
        demand = simulate(instance, DemandFetch())
        n = instance.num_requests
        a_state = state_of(instance, n, aggressive.schedule.blocks_fetched() | instance.initial_cache)
        d_state = state_of(instance, n, demand.schedule.blocks_fetched() | instance.initial_cache)
        assert dominates(a_state, d_state) or a_state.holes == d_state.holes


class TestPhases:
    def test_phase_length_refined_vs_cao(self):
        assert phase_length(8, 4) == 8 + 2 - 1
        assert phase_length(8, 4, refined=False) == 8
        assert phase_length(5, 10) == 5  # ceil(5/10) = 1
        with pytest.raises(ConfigurationError):
            phase_length(0, 1)

    def test_phase_boundaries_cover_sequence(self):
        boundaries = phase_boundaries(25, 8, 4)
        assert boundaries[0] == (0, 9)
        assert boundaries[-1][1] == 25
        covered = sum(hi - lo for lo, hi in boundaries)
        assert covered == 25

    def test_phase_breakdown_of_an_auto_engine_run(self):
        """``auto`` would pick the vector kernel, which records no log: the
        breakdown must refuse such a run, and ``record_events=True`` runs the
        loop engine so the phases cover the whole elapsed time."""
        instance = build_workload_instance(
            "zipf:n=60,blocks=20,seed=1", cache_size=4, fetch_time=3, disks=1, layout="striped"
        )
        with pytest.raises(ConfigurationError, match="record_events=True"):
            phase_breakdown(simulate(instance, Aggressive(), engine="auto"))
        result = simulate(instance, Aggressive(), engine="auto", record_events=True)
        breakdown = phase_breakdown(result)
        assert result.elapsed_time == 97
        assert sum(breakdown.elapsed_per_phase) == result.elapsed_time
        assert sum(breakdown.stall_per_phase) == result.stall_time

    def test_phase_breakdown_sums_to_elapsed(self):
        result = simulate(INST, Aggressive(), record_events=True)
        breakdown = phase_breakdown(result)
        assert sum(breakdown.elapsed_per_phase) == result.elapsed_time
        assert sum(breakdown.stall_per_phase) == result.stall_time
        assert breakdown.num_phases == len(
            phase_boundaries(INST.num_requests, INST.cache_size, INST.fetch_time)
        )
        assert breakdown.max_stall() >= breakdown.average_stall() - 1e-9


class TestSynchronized:
    def test_single_disk_schedules_are_synchronized(self):
        result = simulate(INST, Aggressive())
        assert is_synchronized(result.schedule)
        assert proper_intersections(result.schedule) == []

    def test_parallel_aggressive_is_generally_not_synchronized(self):
        instance = parallel_disk_example()
        result = simulate(instance, ParallelAggressive())
        # The example's natural schedule staggers the two disks' fetches.
        assert not is_fully_synchronized(result.schedule)

    def test_lemma3_on_tiny_instance(self, small_parallel_instance):
        comparison = compare_synchronized_to_optimal(small_parallel_instance)
        assert comparison.synchronized_stall <= comparison.unrestricted_optimal_stall
        assert comparison.extra_cache_used <= small_parallel_instance.num_disks - 1
        assert comparison.lemma3_holds

    def test_lemma3_allows_only_d_minus_1_extra_locations(self):
        def comparison(extra):
            return SynchronizedComparison(
                synchronized_stall=3, unrestricted_optimal_stall=3,
                extra_cache_used=extra, num_disks=2,
            )

        assert comparison(1).lemma3_holds
        assert not comparison(2).lemma3_holds
