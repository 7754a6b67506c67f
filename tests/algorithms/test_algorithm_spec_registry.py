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

from helpers import REGISTRY_SPECS
from repro.algorithms import ALGORITHM_REGISTRY, PrefetchAlgorithm, make_algorithm
from repro.disksim import ProblemInstance, simulate
from repro.errors import ConfigurationError
from repro.specs import with_params
from repro.workloads import uniform_random
from repro.workloads.multidisk import striped_instance

ALL_ALGORITHMS = sorted(ALGORITHM_REGISTRY)

#: Required parameters per algorithm (the contract suite's base specs).
BASE_SPECS = {"delay": "delay:d=2"}

#: The policy name each registry spec records on its kind's instance.  Run
#: records and the sweep and ratio JSON carry it as the ``algorithm`` field.
RECORDED_NAMES = {
    "aggressive": "aggressive",
    "combination": "combination[aggressive]",
    "conservative": "conservative",
    "delay:d=0": "delay(0)",
    "delay:d=3": "delay(3)",
    "demand": "demand[MIN]",
    "parallel-aggressive": "parallel-aggressive",
    "parallel-conservative": "parallel-conservative",
}


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
        # Every default must round-trip through the grammar.
        defaults = {p.name: p.default for p in entry.params if not p.required}
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
        # may take more, never fewer.
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

    def test_factory_validation_becomes_configuration_error(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            make_algorithm("delay:d=-3")


class TestRegistration:
    def test_no_pseudo_entries_in_catalog(self):
        assert "delay:<d>" not in ALGORITHM_REGISTRY
        assert "delay" in ALGORITHM_REGISTRY

    def test_only_delay_takes_a_parameter(self):
        # The paper's strategies have one free parameter, Delay's d
        # (Theorem 3); every other entry is its bare name.
        params = {name: entry.param_names for name, entry in ALGORITHM_REGISTRY.items()}
        assert params.pop("delay") == ("d",)
        assert set(params.values()) == {()}

    @pytest.mark.parametrize("spec", REGISTRY_SPECS)
    def test_spec_records_its_policy_name(self, spec):
        kind = "parallel" if spec.startswith("parallel-") else "single-disk"
        result = simulate(_instance_for(kind), make_algorithm(spec))
        assert result.policy_name == RECORDED_NAMES[spec]
