"""Integration tests: the paper's quantitative claims at small scale.

These mirror the benchmark experiments (E0–E8) with parameters small enough
for the regular test run; EXPERIMENTS.md records the full-size results.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms import (
    Aggressive,
    Combination,
    Conservative,
    Delay,
    DemandFetch,
    ParallelAggressive,
)
from repro.analysis import brute_force_optimal_stall, evaluate_instances
from repro.core.bounds import (
    aggressive_bound_refined,
    best_delay_parameter,
    combination_bound,
    delay_bound,
)
from repro.disksim import ProblemInstance, simulate
from repro.lp import optimal_parallel_schedule, optimal_single_disk
from repro.workloads import (
    parallel_disk_example,
    single_disk_example,
    theorem2_sequence,
    uniform_random,
    zipf,
)
from repro.workloads.multidisk import striped_instance


def _ratio_instances():
    """Single-disk instances used by the theorem-level ratio checks."""
    instances = []
    for seed in range(4):
        sequence = (
            zipf(40, 12, seed=seed, prefix=f"iz{seed}_")
            if seed % 2 == 0
            else uniform_random(40, 12, seed=seed, prefix=f"iu{seed}_")
        )
        instances.append(
            ProblemInstance.single_disk(sequence, cache_size=6 + seed, fetch_time=3 + seed % 3)
        )
    instances.append(single_disk_example())
    instances.append(theorem2_sequence(k=7, fetch_time=4, num_phases=4).instance)
    return instances


class TestE0PaperExamples:
    def test_all_headline_numbers(self):
        single = single_disk_example()
        assert simulate(single, Aggressive()).elapsed_time == 13
        assert optimal_single_disk(single).elapsed_time == 11
        parallel = parallel_disk_example()
        assert brute_force_optimal_stall(parallel).stall_time <= 3


class TestE1AggressiveUpperBound:
    def test_measured_ratio_never_exceeds_theorem1(self):
        for instance in _ratio_instances():
            optimum = optimal_single_disk(instance).elapsed_time
            measured = simulate(instance, Aggressive()).elapsed_time / optimum
            bound = aggressive_bound_refined(instance.cache_size, instance.fetch_time)
            assert measured <= bound + 1e-9


class TestE2LowerBound:
    def test_construction_forces_ratio_close_to_bound(self):
        construction = theorem2_sequence(k=13, fetch_time=4, num_phases=8)
        instance = construction.instance
        aggressive = simulate(instance, Aggressive()).elapsed_time
        optimum = optimal_single_disk(instance).elapsed_time
        measured = aggressive / optimum
        # The measured ratio approaches the per-phase prediction from below
        # (boundary effects at the first/last phase) and stays within Theorem 1.
        assert measured > 1.05
        assert measured <= aggressive_bound_refined(13, 4) + 1e-9
        assert optimum <= construction.num_phases * construction.optimal_time_per_phase


class TestE3E4DelayAndCombination:
    def test_delay_ratio_within_theorem3(self):
        for instance in _ratio_instances()[:3]:
            optimum = optimal_single_disk(instance).elapsed_time
            for d in (0, 1, 2, instance.fetch_time):
                measured = simulate(instance, Delay(d)).elapsed_time / optimum
                assert measured <= max(delay_bound(d, instance.fetch_time), 2.0) + 1e-9

    def test_best_delay_parameter_is_near_half_f(self):
        for fetch_time in (4, 8, 16, 64):
            d0 = best_delay_parameter(fetch_time)
            assert 0 < d0 <= fetch_time
            assert d0 == math.ceil((math.sqrt(3) - 1) / 2 * fetch_time)

    def test_combination_never_worse_than_both_classics(self):
        for instance in _ratio_instances():
            combo = simulate(instance, Combination()).elapsed_time
            aggressive = simulate(instance, Aggressive()).elapsed_time
            conservative = simulate(instance, Conservative()).elapsed_time
            optimum = optimal_single_disk(instance).elapsed_time
            assert combo / optimum <= combination_bound(
                instance.cache_size, instance.fetch_time
            ) + 1e-9
            # Combination runs one of the two strategies, so it can never be
            # worse than the worse of them and its proven bound is the min.
            assert combo <= max(aggressive, conservative)


class TestE5Conservative:
    def test_two_approximation(self):
        for instance in _ratio_instances():
            optimum = optimal_single_disk(instance).elapsed_time
            conservative = simulate(instance, Conservative()).elapsed_time
            assert conservative / optimum <= 2.0 + 1e-9


class TestE6E7ParallelOptimal:
    def test_theorem4_stall_and_memory_guarantees(self, small_parallel_instance):
        optimum = optimal_parallel_schedule(small_parallel_instance)
        unrestricted = brute_force_optimal_stall(small_parallel_instance)
        assert optimum.stall_time <= unrestricted.stall_time
        assert optimum.extra_cache_used <= 2 * (small_parallel_instance.num_disks - 1)

    @pytest.mark.parametrize("num_disks", [2, 3])
    def test_lp_schedule_beats_parallel_aggressive(self, num_disks):
        sequence = uniform_random(30, 10, seed=10 + num_disks, prefix=f"e6_{num_disks}_")
        instance = striped_instance(sequence, 5, 4, num_disks)
        optimum = optimal_parallel_schedule(instance)
        baseline = simulate(instance, ParallelAggressive())
        assert optimum.stall_time <= baseline.stall_time


class TestE8ParallelBaselines:
    def test_prefetching_still_beats_demand_on_parallel_disks(self):
        sequence = uniform_random(36, 14, seed=21, prefix="e8_")
        instance = striped_instance(sequence, 6, 4, 3)
        demand = simulate(instance, DemandFetch()).elapsed_time
        aggressive = simulate(instance, ParallelAggressive()).elapsed_time
        assert aggressive <= demand


class TestRatioHarnessEndToEnd:
    def test_optimum_pipeline_ratios_respect_the_bounds(self):
        instance = single_disk_example()
        results = evaluate_instances(
            [("paper", instance)],
            ["aggressive", "conservative", "combination", "demand"],
            compute_optimum=True,
        )
        ratios = {record.algorithm_spec: record.elapsed_ratio for record in results}
        assert set(ratios) == {"aggressive", "conservative", "combination", "demand"}
        bound = aggressive_bound_refined(instance.cache_size, instance.fetch_time)
        assert ratios["aggressive"] <= bound
        assert ratios["conservative"] <= 2.0
