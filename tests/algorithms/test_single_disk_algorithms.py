"""Tests for the Section 2 algorithms: Aggressive, Conservative, Delay, Combination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    Aggressive,
    Combination,
    Conservative,
    Delay,
    DemandFetch,
)
from repro.algorithms.conservative import min_plan
from repro.core.bounds import aggressive_bound_refined, best_delay_parameter, delay_best_bound
from repro.disksim import ProblemInstance, RequestSequence, simulate
from repro.paging import run_paging
from repro.workloads.spec import WORKLOAD_REGISTRY, build_workload_instance

from helpers import random_single_instances

#: Every workload family that builds from its defaults (``trace`` needs a file).
GENERATED_WORKLOADS = sorted(name for name in WORKLOAD_REGISTRY if name != "trace")


class TestAggressive:
    def test_paper_example(self, paper_single):
        result = simulate(paper_single, Aggressive())
        assert result.elapsed_time == 13
        # The first fetch is for b5 and evicts b1 (the furthest-future block).
        first = result.schedule.fetches[0]
        assert first.block == "b5"
        assert first.victim == "b1"

    def test_does_not_fetch_when_all_cached_blocks_needed_sooner(self):
        # Cache holds a,b both requested before the missing block c.
        inst = ProblemInstance.single_disk(
            ["a", "b", "c"], cache_size=2, fetch_time=2, initial_cache=["a", "b"]
        )
        result = simulate(inst, Aggressive())
        # The fetch for c cannot start before a and b are no longer needed
        # earlier than c, so it starts at the request to b at the earliest.
        first_fetch = result.schedule.fetches[0]
        assert first_fetch.start_time >= 1

    def test_beats_demand_fetching(self):
        for instance in random_single_instances(4):
            aggressive = simulate(instance, Aggressive()).elapsed_time
            demand = simulate(instance, DemandFetch()).elapsed_time
            assert aggressive <= demand

    def test_fetch_count_at_least_min_faults(self, small_cold_instance):
        instance = small_cold_instance
        result = simulate(instance, Aggressive())
        faults = run_paging(instance.sequence, instance.cache_size).faults
        assert result.metrics.num_fetches >= faults


class TestConservative:
    def test_paper_example(self, paper_single):
        result = simulate(paper_single, Conservative())
        assert result.elapsed_time == 12
        assert result.metrics.num_fetches == 1

    def test_fetch_count_equals_min_faults(self):
        """Conservative performs exactly MIN's replacements (same fetch count)."""
        for instance in random_single_instances(4):
            result = simulate(instance, Conservative())
            faults = run_paging(
                instance.sequence, instance.cache_size, instance.initial_cache
            ).faults
            assert result.metrics.num_fetches == faults
            assert result.metrics.num_demand_fetches <= faults

    @pytest.mark.parametrize("workload", GENERATED_WORKLOADS)
    def test_replays_the_min_plan(self, workload):
        """The plan is MIN's faults, each starting right after its victim's
        last use before the miss, and Conservative makes exactly its fetches."""
        # k - 1 = 4 is a multiple of F - 1 = 2, as thm2 requires.
        instance = build_workload_instance(workload, cache_size=5, fetch_time=3)
        sequence = instance.sequence
        paging = run_paging(sequence, instance.cache_size, initial_cache=instance.initial_cache)
        plan = min_plan(instance, paging)
        assert [(p.miss_pos, p.block, p.victim) for p in plan] == list(paging.evictions)
        for planned in plan:
            if planned.victim is None:
                assert planned.earliest_pos == 0
                continue
            assert planned.earliest_pos <= planned.miss_pos
            assert planned.victim not in sequence[planned.earliest_pos : planned.miss_pos]
            if planned.earliest_pos > 0:
                assert sequence[planned.earliest_pos - 1] == planned.victim
        fetches = simulate(instance, Conservative()).schedule.fetches
        assert [(f.block, f.victim) for f in fetches] == [(p.block, p.victim) for p in plan]

    def test_at_most_twice_optimal_on_small_instances(self, small_cold_instance):
        from repro.lp import optimal_single_disk

        conservative = simulate(small_cold_instance, Conservative()).elapsed_time
        optimum = optimal_single_disk(small_cold_instance).elapsed_time
        assert conservative <= 2 * optimum


class TestDelay:
    def test_delay_zero_equals_aggressive(self):
        for instance in random_single_instances(5):
            d0 = simulate(instance, Delay(0))
            aggressive = simulate(instance, Aggressive())
            assert d0.elapsed_time == aggressive.elapsed_time
            assert d0.metrics.num_fetches == aggressive.metrics.num_fetches

    def test_large_delay_equals_conservative(self):
        for instance in random_single_instances(5):
            big = simulate(instance, Delay(instance.num_requests)).elapsed_time
            conservative = simulate(instance, Conservative()).elapsed_time
            assert big == conservative

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_paper_example_small_delay_matches_better_option(self, paper_single):
        # Delaying by 1-2 requests lets the algorithm evict b2 instead of b1,
        # reproducing the paper's "better option" of elapsed time <= 12.
        result = simulate(paper_single, Delay(2))
        assert result.elapsed_time <= 12

    def test_name_includes_parameter(self):
        assert Delay(7).name == "delay(7)"


class TestCombination:
    def test_selects_delay_when_cache_small(self):
        inst = ProblemInstance.single_disk(["a", "b"], cache_size=2, fetch_time=8)
        chosen = Combination.select_for(inst)
        assert isinstance(chosen, Delay)
        assert chosen.d == best_delay_parameter(8)

    def test_selects_aggressive_when_cache_large(self):
        inst = ProblemInstance.single_disk(["a", "b"], cache_size=256, fetch_time=4)
        assert isinstance(Combination.select_for(inst), Aggressive)
        assert aggressive_bound_refined(256, 4) < delay_best_bound(4)

    def test_matches_its_delegate(self):
        for instance in random_single_instances(4):
            combo = Combination()
            combo_result = simulate(instance, combo)
            delegate_result = simulate(instance, Combination.select_for(instance))
            assert combo_result.elapsed_time == delegate_result.elapsed_time
            assert combo.chosen is not None


class TestDemandFetch:
    def test_stall_is_fetch_time_per_fault(self):
        """With MIN replacement and no prefetching, every fault stalls F units."""
        for instance in random_single_instances(4):
            result = simulate(instance, DemandFetch())
            faults = run_paging(
                instance.sequence, instance.cache_size, instance.initial_cache
            ).faults
            assert result.stall_time == faults * instance.fetch_time
            assert result.metrics.num_fetches == faults


@settings(max_examples=20, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=8), min_size=5, max_size=30),
    cache_size=st.integers(min_value=2, max_value=6),
    fetch_time=st.integers(min_value=1, max_value=6),
    delay=st.integers(min_value=0, max_value=10),
)
def test_property_algorithm_sanity_against_demand(blocks, cache_size, fetch_time, delay):
    """Sanity bounds relative to pure demand fetching.

    Conservative performs MIN's replacements and overlaps each fetch with at
    least as much computation as demand fetching does, so it never loses to
    demand.  The other strategies carry a factor-2 elapsed-time guarantee
    relative to the optimum, which demand fetching upper-bounds.
    """
    instance = ProblemInstance.single_disk(
        RequestSequence(blocks), cache_size=cache_size, fetch_time=fetch_time
    )
    demand = simulate(instance, DemandFetch()).elapsed_time
    assert simulate(instance, Conservative()).elapsed_time <= demand
    assert simulate(instance, Aggressive()).elapsed_time <= 2 * demand
    assert simulate(instance, Combination()).elapsed_time <= 2 * demand
    delayed = simulate(instance, Delay(delay))
    assert delayed.elapsed_time >= instance.num_requests
