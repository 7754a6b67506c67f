"""Tests for the typed algorithm-spec registry.

The registry-driven contract suite walks :data:`ALGORITHM_REGISTRY` so every
algorithm added later is automatically held to the same contract: builds
from its defaults, accepts each documented parameter and records a
round-trippable spec.  Mirrors ``tests/workloads/test_spec_registry.py``;
the parse and catalog contract shared by both registries lives in
``tests/test_registries.py``.
"""

from __future__ import annotations

import inspect

import pytest

from repro.algorithms import (
    ALGORITHM_REGISTRY,
    Aggressive,
    Combination,
    Delay,
    DemandFetch,
    PrefetchAlgorithm,
    make_algorithm,
)
from repro.disksim import ProblemInstance, simulate
from repro.errors import ConfigurationError
from repro.paging import FIFO, LRU, run_paging
from repro.specs import with_params
from repro.workloads import uniform_random, zipf
from repro.workloads.multidisk import striped_instance

ALL_ALGORITHMS = sorted(ALGORITHM_REGISTRY)

#: Required parameters per algorithm (the contract suite's base specs).
BASE_SPECS = {"delay": "delay:d=2"}


def base_spec(name: str) -> str:
    return BASE_SPECS.get(name, name)


def _instance_for(kind: str) -> ProblemInstance:
    sequence = uniform_random(40, 12, seed=3)
    if kind == "parallel":
        return striped_instance(sequence, 6, 4, 2)
    return ProblemInstance.single_disk(sequence, cache_size=6, fetch_time=4)


class TestRegistryContract:
    """Every registered algorithm satisfies the same parse/build contract."""

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_builds_from_base_spec(self, name):
        algorithm = make_algorithm(base_spec(name))
        assert isinstance(algorithm, PrefetchAlgorithm)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_accepts_every_documented_parameter(self, name):
        entry = ALGORITHM_REGISTRY[name]
        # None-defaulted parameters are optional sentinels with no spec
        # rendering; every other default must round-trip through the grammar.
        defaults = {
            p.name: p.default
            for p in entry.params
            if not p.required and p.default is not None
        }
        spec = with_params(base_spec(name), **defaults)
        assert isinstance(make_algorithm(spec), PrefetchAlgorithm)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_duplicate_parameter_rejected(self, name):
        with pytest.raises(ConfigurationError, match="duplicate parameter"):
            make_algorithm(f"{name}:x=1,x=2")

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_recorded_spec_round_trips(self, name):
        spec = base_spec(name)
        algorithm = make_algorithm(spec)
        assert algorithm.spec == spec
        again = make_algorithm(algorithm.spec)
        assert type(again) is type(algorithm)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_simulates_on_matching_instance(self, name):
        instance = _instance_for(ALGORITHM_REGISTRY[name].kind)
        result = simulate(instance, make_algorithm(base_spec(name)))
        assert result.elapsed_time >= result.metrics.num_requests

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_summary_docstring_and_factory_accept_the_schema(self, name):
        # The coerced parameters reach the factory as keyword arguments; it
        # may take more (DemandFetch's eviction_policy), never fewer.
        entry = ALGORITHM_REGISTRY[name]
        assert entry.summary.strip()
        assert (entry.build.__doc__ or "").strip()
        factory_params = inspect.signature(entry.build).parameters
        if not any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in factory_params.values()
        ):
            assert set(entry.param_names) <= set(factory_params)


class TestStrictParsing:
    def test_unknown_algorithm_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="available:"):
            make_algorithm("nope:x=1")

    def test_uncoercible_value_names_spec(self):
        with pytest.raises(ConfigurationError, match="delay:d=abc"):
            make_algorithm("delay:d=abc")

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigurationError, match="required"):
            make_algorithm("delay")

    def test_malformed_item_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            make_algorithm("delay:x")

    def test_positional_delay_form_is_malformed(self):
        # delay:<int> is not an alias of delay:d=<int>; it fails like any
        # item without '='.
        with pytest.raises(ConfigurationError, match="malformed parameter '3'"):
            make_algorithm("delay:3")

    def test_choice_parameter_lists_options(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_algorithm("demand:evict=rand")
        message = str(excinfo.value)
        assert "lru" in message and "fifo" in message and "min" in message

    def test_factory_validation_becomes_configuration_error(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            make_algorithm("delay:d=-3")


class TestRegistration:
    def test_no_pseudo_entries_in_catalog(self):
        assert "delay:<d>" not in ALGORITHM_REGISTRY
        assert "delay" in ALGORITHM_REGISTRY


class TestKnobs:
    def test_demand_lru_matches_classical_paging(self):
        """demand:evict=lru performs exactly LRU's faults (stall = faults*F)."""
        sequence = zipf(80, 16, seed=4)
        instance = ProblemInstance.single_disk(sequence, cache_size=5, fetch_time=3)
        result = simulate(instance, make_algorithm("demand:evict=lru"))
        paging = run_paging(sequence, 5, LRU())
        assert result.metrics.num_fetches == paging.faults
        assert result.metrics.stall_time == paging.faults * 3

    def test_demand_fifo_matches_classical_paging(self):
        sequence = zipf(80, 16, seed=9)
        instance = ProblemInstance.single_disk(sequence, cache_size=5, fetch_time=2)
        result = simulate(instance, make_algorithm("demand:evict=fifo"))
        paging = run_paging(sequence, 5, FIFO())
        assert result.metrics.num_fetches == paging.faults

    def test_demand_evict_changes_behaviour(self):
        sequence = zipf(120, 20, seed=7)
        instance = ProblemInstance.single_disk(sequence, cache_size=5, fetch_time=3)
        stalls = {
            evict: simulate(instance, make_algorithm(f"demand:evict={evict}")).stall_time
            for evict in ("min", "lru", "fifo")
        }
        # MIN is offline-optimal: never worse than the online policies.
        assert stalls["min"] <= stalls["lru"]
        assert stalls["min"] <= stalls["fifo"]

    def test_demand_rejects_conflicting_constructor_arguments(self):
        with pytest.raises(ValueError):
            DemandFetch(LRU(), evict="fifo")

    def test_aggressive_tiebreak_stays_within_guarantee(self):
        for seed in (1, 2, 3):
            instance = ProblemInstance.single_disk(
                uniform_random(50, 14, seed=seed), cache_size=6, fetch_time=4
            )
            high = simulate(instance, make_algorithm("aggressive"))
            low = simulate(instance, make_algorithm("aggressive:tiebreak=low"))
            demand = simulate(instance, make_algorithm("demand")).elapsed_time
            # Any tie-break satisfies the Theorem 1 analysis.
            assert high.elapsed_time <= 2 * demand
            assert low.elapsed_time <= 2 * demand
            assert low.metrics.num_requests == high.metrics.num_requests

    def test_aggressive_tiebreak_default_is_native_order(self):
        instance = _instance_for("single-disk")
        assert (
            simulate(instance, make_algorithm("aggressive:tiebreak=high")).metrics
            == simulate(instance, Aggressive()).metrics
        )

    def test_invalid_knob_value_rejected_directly(self):
        with pytest.raises(ValueError, match="tiebreak"):
            Aggressive(tiebreak="sideways")

    def test_parallel_order_knob_changes_claim_order(self):
        instance = _instance_for("parallel")
        asc = simulate(instance, make_algorithm("parallel-aggressive:order=asc"))
        desc = simulate(instance, make_algorithm("parallel-aggressive:order=desc"))
        # Both are feasible runs over the same instance; the knob only
        # reorders claims within a round.
        assert asc.metrics.num_requests == desc.metrics.num_requests
        assert desc.policy_name == "parallel-aggressive[order=desc]"

    def test_combination_d_override_selects_delay(self):
        instance = ProblemInstance.single_disk(
            uniform_random(30, 10, seed=1), cache_size=2, fetch_time=8
        )
        combo = make_algorithm("combination:d=5")
        simulate(instance, combo)
        assert isinstance(combo.chosen, Delay)
        assert combo.chosen.d == 5

    def test_combination_alt_component_used_when_cache_large(self):
        instance = ProblemInstance.single_disk(
            uniform_random(30, 10, seed=1), cache_size=256, fetch_time=4
        )
        combo = make_algorithm("combination:alt=demand:evict=lru")
        simulate(instance, combo)
        assert isinstance(combo.chosen, DemandFetch)
        assert combo.chosen.name == "demand[LRU]"

    def test_combination_default_matches_select_for(self):
        instance = _instance_for("single-disk")
        combo = Combination()
        result = simulate(instance, combo)
        delegate = simulate(instance, Combination.select_for(instance))
        assert result.elapsed_time == delegate.elapsed_time

