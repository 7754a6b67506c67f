"""Tests for the simulation engine and the schedule replay validator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Aggressive, Conservative, DemandFetch
from repro.analysis.runner import ExperimentSpec
from repro.disksim import (
    FetchDecision,
    IntervalFetch,
    IntervalSchedule,
    ProblemInstance,
    RequestSequence,
    execute_interval_schedule,
    execute_schedule,
    simulate,
)
from repro.errors import ConfigurationError, InvalidScheduleError, PolicyError
from repro.workloads import single_disk_example


class _NoOpPolicy:
    """A policy that never prefetches: every miss becomes a forced demand fetch."""

    name = "noop"

    def reset(self, instance):
        pass

    def decide(self, view):
        return []


class _BadDiskPolicy:
    name = "bad-disk"

    def reset(self, instance):
        pass

    def decide(self, view):
        return [FetchDecision(disk=5, block="a", victim=None)]


class TestSimulate:
    def test_paper_example_aggressive(self, paper_single):
        result = simulate(paper_single, Aggressive())
        assert result.elapsed_time == 13
        assert result.stall_time == 3
        assert result.metrics.num_fetches == 2

    def test_elapsed_equals_requests_plus_stall(self, small_cold_instance):
        for algorithm in (Aggressive(), Conservative(), DemandFetch()):
            result = simulate(small_cold_instance, algorithm)
            assert result.elapsed_time == small_cold_instance.num_requests + result.stall_time

    def test_event_log_consistency(self, small_warm_instance):
        result = simulate(small_warm_instance, Aggressive(), record_events=True)
        serves = result.events.serves()
        assert len(serves) == small_warm_instance.num_requests
        assert result.events.total_stall() == result.stall_time
        # Serve events must appear in request order.
        assert [e.request_index for e in serves] == list(range(small_warm_instance.num_requests))

    def test_forced_demand_fetch_for_lazy_policy(self, small_cold_instance):
        result = simulate(small_cold_instance, _NoOpPolicy())
        # The engine fetched every distinct block despite the policy doing nothing.
        assert result.metrics.num_fetches >= small_cold_instance.cold_misses()
        assert result.metrics.num_demand_fetches == result.metrics.num_fetches
        # Demand fetching pays the full fetch time for each forced fetch.
        assert result.stall_time >= small_cold_instance.cold_misses() * (
            small_cold_instance.fetch_time - 1
        )

    def test_invalid_policy_decision_raises(self, small_cold_instance):
        with pytest.raises(PolicyError):
            simulate(small_cold_instance, _BadDiskPolicy())

    def test_hits_plus_misses_equals_requests(self, small_warm_instance):
        result = simulate(small_warm_instance, Aggressive())
        metrics = result.metrics
        assert metrics.cache_hits + metrics.cache_misses == small_warm_instance.num_requests

    def test_peak_cache_never_exceeds_capacity(self, small_cold_instance):
        result = simulate(small_cold_instance, Aggressive())
        assert result.metrics.peak_cache_used <= small_cold_instance.cache_size

    @pytest.mark.parametrize("engine", ["vector", "replay", "indexed"])
    def test_only_loop_scan_and_auto_can_be_requested(self, small_cold_instance, engine):
        """``vector`` and ``replay`` label the engine that ran; a request
        for either, or for the retired ``indexed`` alias, is refused by the
        simulator and by an experiment grid alike."""
        with pytest.raises(ConfigurationError, match="unknown engine"):
            simulate(small_cold_instance, Aggressive(), engine=engine)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ExperimentSpec(
                name="engines", workloads=("zipf:n=20,blocks=6",), cache_sizes=(4,),
                fetch_times=(3,), algorithms=("aggressive",), engine=engine,
            )


class TestExecuteSchedule:
    def test_round_trip_matches_simulation(self, paper_single):
        for algorithm in (Aggressive(), Conservative(), DemandFetch()):
            result = simulate(paper_single, algorithm)
            replay = execute_schedule(paper_single, result.schedule)
            assert replay.stall_time == result.stall_time
            assert replay.elapsed_time == result.elapsed_time
            assert replay.metrics.num_fetches == result.metrics.num_fetches

    def test_infeasible_schedule_detected(self, small_cold_instance):
        # An empty schedule cannot serve a cold-start instance.
        from repro.disksim import Schedule

        empty = Schedule(
            fetch_time=small_cold_instance.fetch_time, num_disks=1, fetches=()
        )
        with pytest.raises(InvalidScheduleError):
            execute_schedule(small_cold_instance, empty)


class TestExecuteIntervalSchedule:
    def test_paper_good_schedule(self):
        from repro.workloads import single_disk_example_good_schedule

        inst = single_disk_example()
        result = execute_interval_schedule(inst, single_disk_example_good_schedule())
        assert result.elapsed_time == 11
        assert result.stall_time == 1

    def test_actual_stall_never_exceeds_charged(self):
        from repro.workloads import single_disk_example_greedy_schedule

        inst = single_disk_example()
        schedule = single_disk_example_greedy_schedule()
        result = execute_interval_schedule(inst, schedule)
        assert result.stall_time <= schedule.charged_stall()

    def test_missing_fetch_detected(self):
        inst = ProblemInstance.single_disk(["a", "b"], cache_size=1, fetch_time=2)
        schedule = IntervalSchedule(
            fetch_time=2,
            num_disks=1,
            num_requests=2,
            fetches=(IntervalFetch(start_pos=0, end_pos=1, disk=0, block="a"),),
        )
        with pytest.raises(InvalidScheduleError):
            execute_interval_schedule(inst, schedule)

    def test_capacity_override(self):
        inst = ProblemInstance.single_disk(
            ["a", "b", "c"], cache_size=1, fetch_time=1, initial_cache=["a"]
        )
        schedule = IntervalSchedule(
            fetch_time=1,
            num_disks=1,
            num_requests=3,
            fetches=(
                IntervalFetch(start_pos=0, end_pos=2, disk=0, block="b", victim=None),
                IntervalFetch(start_pos=1, end_pos=3, disk=0, block="c", victim=None),
            ),
            initial_cache=frozenset({"a"}),
        )
        result = execute_interval_schedule(inst, schedule, capacity_override=3)
        assert result.metrics.peak_cache_used == 3


@settings(max_examples=25, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=25),
    cache_size=st.integers(min_value=2, max_value=5),
    fetch_time=st.integers(min_value=1, max_value=5),
)
def test_property_simulation_invariants(blocks, cache_size, fetch_time):
    """Structural invariants hold for every algorithm on arbitrary instances."""
    instance = ProblemInstance.single_disk(
        RequestSequence(blocks), cache_size=cache_size, fetch_time=fetch_time
    )
    for algorithm in (Aggressive(), Conservative(), DemandFetch()):
        result = simulate(instance, algorithm)
        # 1. elapsed = n + stall
        assert result.elapsed_time == len(blocks) + result.stall_time
        # 2. the schedule replays to identical metrics (no self-mis-accounting)
        replay = execute_schedule(instance, result.schedule)
        assert replay.stall_time == result.stall_time
        # 3. capacity respected
        assert result.metrics.peak_cache_used <= cache_size
        # 4. every distinct block missing from the initial cache is fetched
        assert result.metrics.num_fetches >= instance.cold_misses()
