"""Tests for the typed workload-spec registry.

The registry-driven property test walks :data:`WORKLOAD_REGISTRY` so every
workload added later is automatically held to the same contract: builds from
its defaults, accepts each documented parameter, rejects unknown keys, and
round-trips through :func:`with_spec_params`.  The regression classes pin
the three historical parsing bugs (silently ignored unknown keys, leaked
``ValueError`` on bad values, comma-truncated trace paths).
"""

from __future__ import annotations

import inspect

import pytest

from repro.disksim import ProblemInstance, RequestSequence, simulate
from repro.algorithms import make_algorithm
from repro.errors import ConfigurationError
from repro.workloads import save_trace, zipf
from repro.workloads.spec import (
    LAYOUT_BUILDERS,
    WORKLOAD_REGISTRY,
    build_workload_instance,
    format_workload_catalog,
    parse_workload,
    split_spec,
    with_spec_params,
    workload_accepts,
)

ALL_WORKLOADS = sorted(WORKLOAD_REGISTRY)


@pytest.fixture
def base_spec(request, tmp_path):
    """A buildable base spec for the given workload name.

    ``trace`` is the one workload with a required parameter; it gets a real
    file on disk.  Everything else builds from its schema defaults.
    """
    name = request.param
    if name == "trace":
        path = tmp_path / "trace.txt"
        save_trace(zipf(20, 6, seed=1), path)
        return f"trace:path={path}"
    return name


class TestRegistryContract:
    """Every registered workload satisfies the same parse/build contract."""

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_builds_from_defaults(self, base_spec):
        sequence = parse_workload(base_spec)
        assert isinstance(sequence, RequestSequence)
        assert len(sequence) >= 1

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_accepts_every_documented_parameter(self, base_spec):
        name, _ = split_spec(base_spec)
        definition = WORKLOAD_REGISTRY[name]
        defaults = {p.name: p.default for p in definition.params if not p.required}
        spec = with_spec_params(base_spec, **defaults)
        assert isinstance(parse_workload(spec), RequestSequence)

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_rejects_unknown_parameter(self, base_spec):
        spec = with_spec_params(base_spec, definitely_not_a_parameter=1)
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            parse_workload(spec)

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_round_trips_through_with_spec_params(self, base_spec):
        # Rewriting with no overrides is the identity on parameterised specs...
        assert with_spec_params(with_spec_params(base_spec)) == with_spec_params(base_spec)
        # ...and the rewritten spec regenerates the same sequence.
        assert list(parse_workload(with_spec_params(base_spec))) == list(
            parse_workload(base_spec)
        )

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_seeded_workloads_are_deterministic(self, base_spec):
        if not workload_accepts(base_spec, "seed"):
            pytest.skip("deterministic workload")
        a = parse_workload(with_spec_params(base_spec, seed=1))
        b = parse_workload(with_spec_params(base_spec, seed=1))
        assert list(a) == list(b)

    @pytest.mark.parametrize("base_spec", ALL_WORKLOADS, indirect=True)
    def test_builds_instances_and_simulates(self, base_spec):
        # k=13, F=4 satisfies every construction's constraints (thm2 needs
        # (F-1) | (k-1)).
        instance = build_workload_instance(base_spec, cache_size=13, fetch_time=4)
        assert isinstance(instance, ProblemInstance)
        result = simulate(instance, make_algorithm("demand"))
        assert result.elapsed_time >= result.metrics.num_requests

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_summary_and_builder_signature_match_the_schema(self, name):
        # The coerced parameters reach the builder as keyword arguments, so
        # its parameter names must be exactly the schema's.
        definition = WORKLOAD_REGISTRY[name]
        assert definition.summary.strip()
        builder_params = inspect.signature(definition.builder).parameters
        assert set(builder_params) == set(definition.param_names)


class TestUnknownAndDuplicateKeys:
    """Regression: a typo used to silently fall back to the default value."""

    def test_misspelled_parameter_rejected_with_valid_list(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_workload("zipf:blocs=10")
        message = str(excinfo.value)
        assert "blocs" in message
        assert "blocks" in message  # the valid parameters are listed

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate parameter"):
            parse_workload("zipf:n=10,n=20")

    def test_unknown_workload_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="available:"):
            parse_workload("nope:n=3")


class TestCoercionErrors:
    """Regression: bad values used to leak raw ValueError tracebacks."""

    @pytest.mark.parametrize("spec", ["zipf:n=abc", "zipf:seed=None", "zipf:skew=big"])
    def test_uncoercible_value_raises_configuration_error(self, spec):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_workload(spec)
        assert spec in str(excinfo.value)  # the offending spec is named

    @pytest.mark.parametrize(
        "spec",
        [
            "zipf:skew=-1", "zipf:skew=nan", "mixed:skew=nan", "multiclient:skew=nan",
            "zipf:seed=-1", "uniform:seed=-1", "wss:seed=-1", "mixed:seed=-1",
            "markov:seed=-1", "multiclient:seed=-1", "filescan:seed=-1",
        ],
    )
    def test_generator_validation_still_configuration_error(self, spec):
        with pytest.raises(ConfigurationError, match="must be non-negative"):
            parse_workload(spec)

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigurationError, match="required"):
            parse_workload("trace")


class TestSpecGrammar:
    """Regression: '=' in values round-trips; ',' in values errors, not truncates."""

    def test_trace_path_with_equals_round_trips(self, tmp_path):
        path = tmp_path / "odd=name.txt"
        save_trace(zipf(10, 4, seed=0), path)
        spec = f"trace:path={path}"
        assert with_spec_params(spec) == spec
        assert len(parse_workload(spec)) == 10

    def test_comma_in_value_rejected_on_parse(self):
        with pytest.raises(ConfigurationError, match="cannot contain ','"):
            parse_workload("trace:path=/tmp/a,b.txt")

    def test_comma_in_value_rejected_on_rewrite(self):
        with pytest.raises(ConfigurationError, match="cannot contain ','"):
            with_spec_params("trace", path="/tmp/a,b.txt")

    def test_empty_item_rejected(self):
        with pytest.raises(ConfigurationError, match="empty parameter item"):
            parse_workload("zipf:n=10,")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="empty workload name"):
            parse_workload(":n=10")

    def test_override_applies_in_place(self):
        assert with_spec_params("zipf:n=100", seed=3) == "zipf:n=100,seed=3"
        assert with_spec_params("zipf:n=100,seed=1", seed=3) == "zipf:n=100,seed=3"


class TestInstanceKindWorkloads:
    def test_thm2_takes_caller_cache_and_fetch(self):
        instance = build_workload_instance("thm2:phases=3", cache_size=13, fetch_time=4)
        assert instance.cache_size == 13 and instance.fetch_time == 4
        assert len(instance.initial_cache) == 13  # the warm set survives

    def test_spec_pinned_parameters_win(self):
        instance = build_workload_instance(
            "thm2:k=7,F=4,phases=2", cache_size=99, fetch_time=99
        )
        assert instance.cache_size == 7 and instance.fetch_time == 4

    def test_invalid_construction_parameters_are_configuration_errors(self):
        with pytest.raises(ConfigurationError):  # (F-1) does not divide (k-1)
            build_workload_instance("thm2:phases=2", cache_size=11, fetch_time=4)

    def test_multi_disk_placement_rejected(self):
        with pytest.raises(ConfigurationError, match="single-disk"):
            build_workload_instance("cao:cycles=2", cache_size=4, fetch_time=6, disks=2)

    def test_parse_workload_returns_the_sequence(self):
        sequence = parse_workload("cao:k=4,F=6,cycles=3")
        assert isinstance(sequence, RequestSequence)
        assert len(sequence) == 3 * 5


class TestLayouts:
    @pytest.mark.parametrize("layout", sorted(LAYOUT_BUILDERS))
    def test_every_layout_builds_multi_disk_instances(self, layout):
        instance = build_workload_instance(
            "scan:blocks=12", cache_size=4, fetch_time=3, disks=3, layout=layout
        )
        assert instance.num_disks == 3
        used = {instance.disk_of(b) for b in instance.sequence.distinct_blocks}
        assert used == {0, 1, 2}

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown layout"):
            build_workload_instance(
                "scan:blocks=12", cache_size=4, fetch_time=3, disks=2, layout="raid5"
            )

    def test_single_disk_ignores_layout(self):
        instance = build_workload_instance(
            "scan:blocks=12", cache_size=4, fetch_time=3, disks=1, layout="partitioned"
        )
        assert instance.num_disks == 1

    def test_partitioned_layout_is_contiguous(self):
        instance = build_workload_instance(
            "stream:streams=2,blocks=10", cache_size=4, fetch_time=3,
            disks=2, layout="partitioned",
        )
        # Sorted-name chunks keep each stream's blocks on one disk.
        disks_of_stream0 = {instance.disk_of(b) for b in instance.sequence.distinct_blocks
                            if str(b).startswith("st0_")}
        assert len(disks_of_stream0) == 1


class TestCatalog:
    def test_catalog_lists_every_workload_and_layout(self):
        catalog = format_workload_catalog()
        for name in ALL_WORKLOADS:
            assert name in catalog
        for layout in LAYOUT_BUILDERS:
            assert layout in catalog

    def test_single_workload_view_shows_parameter_help(self):
        view = format_workload_catalog("zipf")
        assert "skew" in view and "default" in view

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            format_workload_catalog("nope")

    def test_docs_match_the_registry(self):
        """README/DESIGN document every registered workload and layout."""
        from pathlib import Path

        from repro.workloads.spec import workload_catalog_rows

        root = Path(__file__).resolve().parents[2]
        readme = (root / "README.md").read_text(encoding="utf8")
        design = (root / "DESIGN.md").read_text(encoding="utf8")
        for row in workload_catalog_rows():
            assert f"`{row['name']}`" in readme, f"README table misses {row['name']}"
            assert f"`{row['example']}`" in readme, f"README table example drifted for {row['name']}"
            assert row["params"] in readme, f"README table schema drifted for {row['name']}"
        for layout in LAYOUT_BUILDERS:
            assert layout in readme and layout in design
