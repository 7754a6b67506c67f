"""Tests for the optimal schedulers (single disk, Theorem 4 parallel) and
the per-disk schedule extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Aggressive, Conservative, Delay, DemandFetch, ParallelAggressive
from repro.analysis import brute_force_optimal_stall
from repro.disksim import DiskLayout, ProblemInstance, RequestSequence, simulate
from repro.disksim.executor import execute_interval_schedule
from repro.errors import ConfigurationError
from repro.lp import (
    Interval,
    LPSolution,
    SynchronizedLPModel,
    optimal_parallel_schedule,
    optimal_single_disk,
    validate_solution,
)
from repro.workloads import (
    parallel_disk_example,
    single_disk_example,
    uniform_random,
    zipf,
)
from repro.workloads.multidisk import contiguous_partitioned_instance, striped_instance
from repro.workloads.spec import build_workload_instance


class TestSingleDiskOptimum:
    def test_paper_example(self):
        optimum = optimal_single_disk(single_disk_example())
        assert optimum.elapsed_time == 11
        assert optimum.stall_time == 1
        assert optimum.charged_stall == optimum.stall_time

    def test_rejects_parallel_instances(self):
        with pytest.raises(ConfigurationError):
            optimal_single_disk(parallel_disk_example())

    def test_matches_brute_force_on_tiny_instances(self, small_cold_instance, small_warm_instance):
        for instance in (small_cold_instance, small_warm_instance):
            optimum = optimal_single_disk(instance)
            brute = brute_force_optimal_stall(instance)
            assert optimum.stall_time == brute.stall_time

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_never_worse_than_any_algorithm(self, seed):
        sequence = (
            zipf(36, 10, seed=seed, prefix=f"s{seed}_")
            if seed % 2 == 0
            else uniform_random(36, 10, seed=seed, prefix=f"s{seed}_")
        )
        instance = ProblemInstance.single_disk(sequence, cache_size=5, fetch_time=3)
        optimum = optimal_single_disk(instance)
        assert optimum.stall_time <= optimum.charged_stall
        for algorithm in (Aggressive(), Conservative(), Delay(2), DemandFetch()):
            assert optimum.elapsed_time <= simulate(instance, algorithm).elapsed_time

    def test_zero_stall_when_everything_fits(self):
        instance = ProblemInstance.single_disk(
            ["a", "b", "a", "b"], cache_size=2, fetch_time=2, initial_cache=["a", "b"]
        )
        assert optimal_single_disk(instance).stall_time == 0


class TestParallelOptimum:
    def test_paper_example_beats_the_narrated_schedule(self):
        optimum = optimal_parallel_schedule(parallel_disk_example())
        # The schedule described in the paper has stall 3; with D-1 extra cache
        # locations the LP can do at least as well.
        assert optimum.stall_time <= 3
        assert optimum.extra_cache_used <= 2 * (2 - 1)

    def test_theorem4_guarantee_on_tiny_instances(self, small_parallel_instance):
        optimum = optimal_parallel_schedule(small_parallel_instance)
        brute = brute_force_optimal_stall(small_parallel_instance)
        assert optimum.stall_time <= brute.stall_time
        assert optimum.extra_cache_used <= 2 * (small_parallel_instance.num_disks - 1)

    @pytest.mark.parametrize("num_disks", [2, 3])
    def test_never_worse_than_parallel_aggressive(self, num_disks):
        sequence = uniform_random(28, 10, seed=num_disks, prefix=f"d{num_disks}_")
        instance = striped_instance(sequence, 5, 3, num_disks)
        optimum = optimal_parallel_schedule(instance)
        baseline = simulate(instance, ParallelAggressive())
        assert optimum.stall_time <= baseline.stall_time
        assert optimum.stall_time <= optimum.charged_stall

    def test_single_disk_instance_accepted(self):
        instance = ProblemInstance.single_disk(
            ["a", "b", "c", "a"], cache_size=2, fetch_time=2
        )
        optimum = optimal_parallel_schedule(instance)
        assert optimum.stall_time == optimal_single_disk(instance).stall_time

    def test_lower_bound_reported(self):
        optimum = optimal_parallel_schedule(parallel_disk_example())
        assert optimum.lp_lower_bound <= optimum.charged_stall + 1e-6


def _strictly_nested_on_one_disk(schedule) -> bool:
    ops = schedule.fetches
    return any(
        a.disk == b.disk and a.start_pos < b.start_pos and b.end_pos < a.end_pos
        for a in ops
        for b in ops
    )


class TestPerDiskExtraction:
    """``extract_schedule`` normalises fetch units one disk at a time."""

    def test_nested_pair_fetching_one_and_two_blocks(self):
        # Disk 0 holds a and b, disk 1 holds x and y.  The hand-built point
        # fetches a and x in (0, 4) and b in (1, 2), nested in it on disk 0.
        # Swapping whole eviction sets between the two intervals would leave
        # one fetch without a victim and one victim never evicted.
        instance = ProblemInstance.parallel_disk(
            RequestSequence(["y", "b", "y", "a", "x"]),
            cache_size=3,
            fetch_time=3,
            layout=DiskLayout.partitioned([["a", "b"], ["x", "y"]]),
            initial_cache=["y"],
        )
        model = SynchronizedLPModel(instance)
        d0, d1, d2 = model.dummy_blocks
        outer, inner = Interval(0, 4), Interval(1, 2)
        solution = LPSolution(
            objective=3.0,
            x={outer: 1.0, inner: 1.0},
            fetches={(outer, "a"): 1.0, (outer, "x"): 1.0, (inner, "b"): 1.0},
            evictions={(outer, d0): 1.0, (outer, d1): 1.0, (inner, d2): 1.0},
            is_integral=True,
        )
        assert validate_solution(model, solution).is_feasible

        schedule = model.extract_schedule(solution)
        assert sorted(op.block for op in schedule.fetches) == ["a", "b", "x"]
        assert all(op.victim is not None for op in schedule.fetches)
        assert sorted(op.victim for op in schedule.fetches) == [d0, d1, d2]
        assert not _strictly_nested_on_one_disk(schedule)

        execution = execute_interval_schedule(
            model.augmented_instance, schedule, capacity_override=model.capacity
        )
        assert execution.stall_time <= solution.charged_stall(instance.fetch_time)

    def test_single_disk_fetches_never_strictly_nest(self):
        instance = ProblemInstance.single_disk(
            zipf(40, 12, seed=0, prefix="nrm_"), cache_size=6, fetch_time=4
        )
        assert not _strictly_nested_on_one_disk(optimal_single_disk(instance).schedule)

    def test_single_disk_charged_stall_preserved(self):
        instance = ProblemInstance.single_disk(
            uniform_random(30, 9, seed=4, prefix="nrm2_"), cache_size=5, fetch_time=3
        )
        optimum = optimal_single_disk(instance)
        assert optimum.schedule.charged_stall() == optimum.charged_stall

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=16),
        blocks=st.integers(min_value=2, max_value=8),
        k=st.integers(min_value=1, max_value=4),
        fetch_time=st.integers(min_value=1, max_value=5),
        disks=st.sampled_from([2, 3]),
        partitioned=st.booleans(),
    )
    def test_tiny_parallel_instances_replay_within_bounds(
        self, seed, n, blocks, k, fetch_time, disks, partitioned
    ):
        """Property: stall <= LP objective and <= s_OPT(k), extra <= D - 1."""
        sequence = uniform_random(n, blocks, seed=seed, prefix="t")
        build = contiguous_partitioned_instance if partitioned else striped_instance
        instance = build(sequence, k, fetch_time, disks)
        optimum = optimal_parallel_schedule(instance)
        assert not _strictly_nested_on_one_disk(optimum.schedule)
        assert optimum.stall_time <= optimum.charged_stall
        assert optimum.stall_time <= brute_force_optimal_stall(instance).stall_time
        assert optimum.extra_cache_used <= disks - 1


class TestParallelPins:
    """Instances whose LP optimum nests intervals that fetch different
    numbers of blocks on a shared disk.  An extraction that swaps whole
    eviction sets between nested intervals leaves a fetch without a victim
    (the replay raises ``InvalidScheduleError``) or a victim never evicted
    (stall 30 over an LP objective of 16 and s_OPT(k) = 19 on the D = 2
    loop, stall 11 over 8 on the D = 3 loop)."""

    @pytest.mark.parametrize(
        "spec,k,fetch_time,disks,layout",
        [
            ("scan:blocks=12", 3, 4, 2, "partitioned"),
            ("zipf:n=30,blocks=10,seed=0", 3, 4, 2, "striped"),
            ("loop:blocks=8,loops=3", 4, 3, 2, "partitioned"),
            ("loop:blocks=8,loops=3", 4, 3, 3, "partitioned"),
        ],
    )
    def test_replays_within_objective_and_brute_force(self, spec, k, fetch_time, disks, layout):
        instance = build_workload_instance(
            spec, cache_size=k, fetch_time=fetch_time, disks=disks, layout=layout
        )
        optimum = optimal_parallel_schedule(instance)
        assert optimum.stall_time <= optimum.charged_stall
        assert optimum.stall_time <= brute_force_optimal_stall(instance).stall_time
        assert optimum.extra_cache_used <= disks - 1


class TestExecutedStallWithinCharged:
    """The extracted schedule's measured stall never exceeds the LP objective."""

    @pytest.mark.parametrize(
        "n,blocks,k,fetch_time,seed",
        [(40, 10, 6, 3, 1), (30, 8, 5, 4, 3), (36, 12, 7, 5, 5), (44, 11, 4, 6, 7)],
    )
    def test_single_disk(self, n, blocks, k, fetch_time, seed):
        sequence = uniform_random(n, blocks, seed=seed, prefix=f"x{seed}_")
        instance = ProblemInstance.single_disk(sequence, cache_size=k, fetch_time=fetch_time)
        optimum = optimal_single_disk(instance)
        assert optimum.stall_time <= optimum.charged_stall
        assert optimum.stall_time >= optimum.lp_lower_bound - 1e-6

    @pytest.mark.parametrize("num_disks,seed", [(2, 1), (3, 2)])
    def test_parallel(self, num_disks, seed):
        sequence = uniform_random(26, 9, seed=seed, prefix=f"y{seed}_")
        instance = striped_instance(sequence, 5, 3, num_disks)
        optimum = optimal_parallel_schedule(instance)
        assert optimum.stall_time <= optimum.charged_stall
        assert optimum.extra_cache_used <= 2 * (num_disks - 1)
