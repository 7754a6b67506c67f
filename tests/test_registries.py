"""Contract tests shared by the two spec registries.

:class:`~repro.specs.Registry` is the one registry type; the workload
registry and the algorithm registry are its two instances.  The registry
and catalog contract below runs over both as one more parametrised input,
so an entry added to either is held to it automatically.  Building the
entries (generators, algorithm factories) is tested next to each registry:
``tests/workloads/test_spec_registry.py`` and
``tests/algorithms/test_algorithm_spec_registry.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.errors import ConfigurationError
from repro.specs import ParamSpec, Registry, with_params
from repro.workloads.spec import WORKLOAD_REGISTRY

REGISTRIES = {"workload": WORKLOAD_REGISTRY, "algorithm": ALGORITHM_REGISTRY}

ENTRIES = [(role, name) for role, registry in REGISTRIES.items() for name in sorted(registry)]

#: One entry per registry with its single-entry catalog view's expected text.
SINGLE_VIEWS = [
    ("workload", "zipf", ("skew", "default")),
    ("algorithm", "delay", ("d (int, required)",)),
]

ROOT = Path(__file__).resolve().parents[1]


def _entry_id(pair) -> str:
    return f"{pair[0]}:{pair[1]}"


class TestRegistryAdd:
    def test_added_entry_parses_and_reports_its_parameters(self):
        registry = Registry("widget")
        entry = registry.add(
            "knob", "a test entry", dict, [ParamSpec("n", int, 1)],
            kind="test", example="knob:n=2",
        )
        assert registry["knob"] is entry and list(registry) == ["knob"]
        assert registry.parse("knob:n=5") == (entry, {"n": "5"}, {"n": 5})
        assert registry.accepts("knob", "n") and not registry.accepts("knob", "m")

    @pytest.mark.parametrize("role", sorted(REGISTRIES))
    def test_taken_name_rejected(self, role):
        registry = REGISTRIES[role]
        taken = sorted(registry)[0]
        before = dict(registry)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.add(taken, "a shadow", dict, kind="test", example=taken)
        assert dict(registry) == before

    def test_repeated_parameter_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ConfigurationError, match="duplicate parameters"):
            registry.add(
                "knob", "a test entry", dict, [ParamSpec("n"), ParamSpec("n")],
                kind="test", example="knob:n=1",
            )
        assert "knob" not in registry

    def test_unknown_name_lists_the_catalog(self):
        registry = Registry("widget")
        registry.add("knob", "a test entry", dict, kind="test", example="knob")
        with pytest.raises(ConfigurationError, match="unknown widget 'nope'.*available: knob"):
            registry.parse("nope:n=1")


class TestRegistryContract:
    """Every entry of both registries satisfies the same parse contract."""

    @pytest.mark.parametrize("role, name", ENTRIES, ids=_entry_id)
    def test_example_resolves_to_its_entry(self, role, name):
        registry = REGISTRIES[role]
        entry, _raw, _params = registry.parse(registry[name].example)
        assert entry.name == name

    @pytest.mark.parametrize("role, name", ENTRIES, ids=_entry_id)
    def test_rejects_unknown_parameter(self, role, name):
        registry = REGISTRIES[role]
        spec = with_params(registry[name].example, definitely_not_a_parameter=1)
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            registry.parse(spec)

    @pytest.mark.parametrize("role, name", ENTRIES, ids=_entry_id)
    def test_accepts_exactly_its_parameters(self, role, name):
        registry = REGISTRIES[role]
        for param in registry[name].params:
            assert registry.accepts(name, param.name)
        assert not registry.accepts(name, "definitely_not_a_parameter")


class TestCatalog:
    @pytest.mark.parametrize("role", sorted(REGISTRIES))
    def test_catalog_lists_every_entry(self, role):
        registry = REGISTRIES[role]
        catalog = registry.catalog_text()
        assert catalog.startswith(f"{role} catalog ({len(registry)} {role}s)")
        for name in registry:
            assert f"\n{name} ({registry[name].kind}) — " in catalog

    @pytest.mark.parametrize("role, name, expected", SINGLE_VIEWS)
    def test_single_entry_view_shows_parameter_help(self, role, name, expected):
        view = REGISTRIES[role].catalog_text(name)
        for text in expected:
            assert text in view

    @pytest.mark.parametrize("role", sorted(REGISTRIES))
    def test_unknown_name_rejected(self, role):
        with pytest.raises(ConfigurationError, match=f"unknown {role} 'nope'"):
            REGISTRIES[role].catalog_text("nope")

    @pytest.mark.parametrize("role", sorted(REGISTRIES))
    def test_docs_match_the_registry(self, role):
        """README documents every entry's name, example and schema."""
        readme = (ROOT / "README.md").read_text(encoding="utf8")
        design = (ROOT / "DESIGN.md").read_text(encoding="utf8")
        for row in REGISTRIES[role].catalog_rows():
            assert f"`{row['name']}`" in readme, f"README table misses {row['name']}"
            assert f"`{row['example']}`" in readme, (
                f"README table example drifted for {row['name']}"
            )
            assert row["params"] in readme, f"README table schema drifted for {row['name']}"
            if role == "algorithm":
                assert f"`{row['name']}`" in design, f"DESIGN misses algorithm {row['name']}"
