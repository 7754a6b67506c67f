"""Docs-sync: the generated reference and the guides cannot drift from the code.

``docs/reference.md`` is built by ``scripts/gen_reference.py`` from the live
registries; this suite regenerates it in memory and compares byte-for-byte,
so any registry change that forgets to re-run the generator fails CI.  The
architecture guide is checked structurally (it must keep naming every layer
and the load-bearing modules it documents).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_generator():
    """Import scripts/gen_reference.py by path (scripts/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "gen_reference", ROOT / "scripts" / "gen_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGeneratedReference:
    def test_reference_matches_generator_output(self):
        """docs/reference.md is byte-identical to a fresh regeneration."""
        generator = _load_generator()
        committed = (ROOT / "docs" / "reference.md").read_text(encoding="utf8")
        assert committed == generator.render_reference(), (
            "docs/reference.md drifted from the registries; "
            "run `python scripts/gen_reference.py`"
        )

    def test_reference_covers_every_registry(self):
        """Every workload, algorithm and CLI subcommand appears in the reference."""
        from repro.algorithms.registry import ALGORITHM_REGISTRY
        from repro.cli import build_parser
        from repro.workloads.spec import LAYOUT_BUILDERS, WORKLOAD_REGISTRY

        reference = (ROOT / "docs" / "reference.md").read_text(encoding="utf8")
        for name in WORKLOAD_REGISTRY:
            assert f"`{name}`" in reference
        for name in ALGORITHM_REGISTRY:
            assert f"`{name}`" in reference
        for name in LAYOUT_BUILDERS:
            assert f"`{name}`" in reference
        parser = build_parser()
        subcommands = []
        for action in parser._actions:
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict):
                subcommands.extend(choices)
        assert subcommands, "no subcommands discovered from the CLI parser"
        for command in subcommands:
            assert f"`repro {command}`" in reference

    def test_check_mode_passes_on_committed_file(self):
        """`gen_reference.py --check` agrees with the committed document."""
        generator = _load_generator()
        assert generator.main(["--check"]) == 0


class TestArchitectureGuide:
    def test_names_every_layer_and_key_module(self):
        """The guide keeps covering each package and the pipeline modules."""
        guide = (ROOT / "docs" / "architecture.md").read_text(encoding="utf8")
        for layer in (
            "disksim/", "algorithms/", "workloads/", "paging/", "lp/",
            "core/", "analysis/", "viz/", "cli.py",
        ):
            assert layer in guide, f"architecture guide misses layer {layer}"
        for module in (
            "OptimumService", "ExperimentSpec", "RunRecord", "ResultSet",
            "ExecutionBackend", "RunStore", "canonical.py", "service.py",
            "runner.py", "backends.py", "store.py", "reference.md",
        ):
            assert module in guide, f"architecture guide misses {module}"

    def test_readme_documents_the_resume_flow(self):
        """README keeps the run-store / resume walkthrough."""
        readme = (ROOT / "README.md").read_text(encoding="utf8")
        assert "--resume" in readme
        assert "runs.sqlite" in readme
        for subcommand in ("repro store stats", "repro store gc"):
            assert subcommand in readme, f"README misses {subcommand}"

    def test_readme_documents_the_ratio_flow(self):
        """README keeps the quickstart pipeline and the bench mapping."""
        readme = (ROOT / "README.md").read_text(encoding="utf8")
        assert "repro ratios" in readme
        assert "optimum_solve_seconds" in readme or "solve wall time" in readme
        for bench in [f"bench_e{i}" for i in range(13)]:
            assert bench in readme, f"README experiment mapping misses {bench}"
