"""Tests for the optimal schedulers (single disk, Theorem 4 parallel, rounding)."""

from __future__ import annotations

import pytest

from repro.algorithms import Aggressive, Conservative, Delay, DemandFetch, ParallelAggressive
from repro.analysis import brute_force_optimal_stall
from repro.disksim import ProblemInstance, simulate
from repro.errors import ConfigurationError
from repro.lp import (
    SynchronizedLPModel,
    normalize_integral_solution,
    optimal_parallel_schedule,
    optimal_single_disk,
    solve_integral,
    solve_relaxation,
)
from repro.workloads import (
    parallel_disk_example,
    single_disk_example,
    uniform_random,
    zipf,
)
from repro.workloads.multidisk import striped_instance


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

    def test_lp_rounding_path(self):
        instance = striped_instance(uniform_random(24, 8, seed=9), 5, 3, 2)
        rounded = optimal_parallel_schedule(instance, method="lp-rounding")
        exact = optimal_parallel_schedule(instance, method="milp")
        assert rounded.stall_time <= exact.charged_stall
        assert rounded.extra_cache_used <= 2  # 2(D-1) with D=2
        assert rounded.method_used.startswith("lp-rounding") or rounded.method_used == "milp"

    def test_single_disk_instance_accepted(self):
        instance = ProblemInstance.single_disk(
            ["a", "b", "c", "a"], cache_size=2, fetch_time=2
        )
        optimum = optimal_parallel_schedule(instance)
        assert optimum.stall_time == optimal_single_disk(instance).stall_time

    def test_lower_bound_reported(self):
        optimum = optimal_parallel_schedule(parallel_disk_example())
        assert optimum.lp_lower_bound <= optimum.charged_stall + 1e-6


class TestNormalization:
    def test_nested_intervals_get_common_endpoints(self):
        instance = ProblemInstance.single_disk(
            zipf(40, 12, seed=0, prefix="nrm_"), cache_size=6, fetch_time=4
        )
        model = SynchronizedLPModel(instance, extra_cache=0)
        relaxation = solve_relaxation(model)
        solution = relaxation if relaxation.is_integral else solve_integral(model)
        normalized = normalize_integral_solution(solution)
        assert normalized.objective == pytest.approx(solution.objective)
        selected = normalized.selected_intervals()
        for outer_idx, outer in enumerate(selected):
            for inner in selected[outer_idx + 1 :]:
                strictly_nested = (
                    outer.start < inner.start and inner.end < outer.end
                )
                assert not strictly_nested

    def test_charged_stall_preserved(self):
        instance = ProblemInstance.single_disk(
            uniform_random(30, 9, seed=4, prefix="nrm2_"), cache_size=5, fetch_time=3
        )
        model = SynchronizedLPModel(instance, extra_cache=0)
        relaxation = solve_relaxation(model)
        solution = relaxation if relaxation.is_integral else solve_integral(model)
        normalized = normalize_integral_solution(solution)
        assert normalized.charged_stall(instance.fetch_time) == solution.charged_stall(
            instance.fetch_time
        )


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
