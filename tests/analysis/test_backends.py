"""Tests for the pluggable execution backends and their adaptive chunking."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.backends import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    adaptive_chunk_size,
    make_backend,
    resolve_backend_name,
)
from repro.analysis.runner import ExperimentSpec, run_experiments
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every real backend the byte-identical-JSON equivalence suite runs; the
#: catalog-sync meta-test pins it to BACKEND_NAMES so a new backend cannot
#: ship without joining the equivalence property.
EQUIVALENCE_BACKENDS = ("serial", "thread", "process")


def _square(value: int) -> int:
    """Module-level (picklable) work function for the pool backends."""
    return value * value


def _maybe_boom(value: int) -> int:
    """Module-level work function that fails on a sentinel input."""
    if value == 13:
        raise ValueError("unlucky task")
    return value


class TestAdaptiveChunking:
    def test_small_grids_run_one_task_per_dispatch(self):
        assert adaptive_chunk_size(1, 8) == 1
        assert adaptive_chunk_size(8, 8) == 1
        assert adaptive_chunk_size(0, 4) == 1

    def test_large_grids_amortise_dispatch_overhead(self):
        # 10_000 tasks over 8 workers: 4 chunks per worker would mean
        # 313-task chunks; the cap keeps rebalancing granular.
        assert adaptive_chunk_size(10_000, 8) == 64
        assert adaptive_chunk_size(256, 8) == 8

    def test_chunk_count_keeps_every_worker_busy(self):
        for tasks in (7, 64, 511, 4096):
            for workers in (2, 4, 8):
                size = adaptive_chunk_size(tasks, workers)
                chunks = -(-tasks // size)
                assert chunks >= min(tasks, workers)


class TestFactory:
    def test_auto_resolves_by_worker_count(self):
        assert resolve_backend_name("auto", 0) == "serial"
        assert resolve_backend_name("auto", 1) == "serial"
        assert resolve_backend_name("auto", 4) == "process"

    def test_named_backends_resolve_to_their_types(self):
        assert isinstance(make_backend("serial", 4), SerialBackend)
        assert isinstance(make_backend("thread", 4), ThreadPoolBackend)
        assert isinstance(make_backend("process", 4), ProcessPoolBackend)

    def test_unknown_backend_rejected_with_alternatives(self):
        with pytest.raises(ConfigurationError, match="serial, thread, process$"):
            make_backend("mpi", 4)

    def test_spec_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            ExperimentSpec(
                name="t", workloads=("scan:blocks=10",), cache_sizes=(4,),
                fetch_times=(3,), algorithms=("aggressive",), backend="bogus",
            )

    def test_every_advertised_name_is_constructible(self):
        for name in BACKEND_NAMES:
            assert make_backend(name, 2).name in ("serial", "thread", "process")


class TestMapContract:
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_results_come_back_in_submission_order(self, name):
        backend = make_backend(name, 3)
        values = list(range(40))
        assert list(backend.map(_square, values)) == [v * v for v in values]

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_empty_input_yields_nothing(self, name):
        assert list(make_backend(name, 2).map(_square, [])) == []

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_worker_exceptions_propagate(self, name):
        backend = make_backend(name, 2)
        with pytest.raises(ValueError, match="unlucky task"):
            list(backend.map(_maybe_boom, list(range(20))))


class TestBackendEquivalence:
    """Acceptance: all backends emit byte-identical ResultSet JSON."""

    def _spec(self, **overrides) -> ExperimentSpec:
        base = dict(
            name="backend-eq",
            workloads=("zipf:n=40,blocks=10", "loop:blocks=10,loops=3"),
            cache_sizes=(4, 6),
            fetch_times=(3,),
            algorithms=("aggressive", "demand"),
            seeds=(0, 1),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "workloads": ("markov:n=300,blocks=60",),
                "cache_sizes": (8,),
                "fetch_times": (4,),
                "disks": (2, 4),
                "layouts": ("striped", "partitioned"),
                "algorithms": ("parallel-aggressive", "parallel-conservative"),
                "seeds": (0, 1, 2),
            },
        ],
        ids=["single-disk", "parallel-disk-runs"],
    )
    def test_plain_grid_is_byte_identical_across_backends(self, overrides):
        spec = self._spec(**overrides)
        runs = {
            name: run_experiments(spec, workers=2, backend=name)
            for name in EQUIVALENCE_BACKENDS
        }
        documents = {run.to_json() for run in runs.values()}
        assert len(documents) == 1
        assert {run.backend for run in runs.values()} == set(EQUIVALENCE_BACKENDS)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "disks": (1, 2),
                "algorithms": ("demand", "parallel-aggressive", "parallel-conservative"),
            },
        ],
        ids=["single-disk", "disks-1-2"],
    )
    def test_optimum_grid_is_identical_modulo_solve_walltime(self, tmp_path, overrides):
        from repro.analysis.results import RUN_RECORD_COLUMNS

        columns = tuple(
            c for c in RUN_RECORD_COLUMNS if c != "optimum_solve_seconds"
        )
        spec = self._spec(
            workloads=("loop:blocks=8,loops=3",), cache_sizes=(3,),
            seeds=(None,), compute_optimum=True, **overrides,
        )
        runs = [
            run_experiments(spec, workers=2, backend=name, cache_dir=tmp_path / name)
            for name in EQUIVALENCE_BACKENDS
        ]
        documents = {run.to_json(columns) for run in runs}
        assert len(documents) == 1

    def test_spec_backend_field_drives_execution(self):
        spec = self._spec(
            workloads=("scan:blocks=10",), cache_sizes=(4,), seeds=(None,),
            algorithms=("aggressive",), backend="thread",
        )
        run = run_experiments(spec, workers=2)
        assert run.backend == "thread"
        # An explicit argument overrides the spec's choice.
        assert run_experiments(spec, workers=0, backend="serial").backend == "serial"


class TestBackendCatalogSync:
    """Meta-tests: every advertised backend name appears everywhere it must.

    Adding a backend to ``BACKEND_NAMES`` without updating the CLI help, the
    architecture documentation, or the byte-identical equivalence suite is a
    drift bug — these tests make it fail the suite instead of shipping.
    """

    def test_cli_backend_help_lists_every_name(self):
        from repro.cli import build_parser

        parser = build_parser()
        sweep_parser = next(
            action.choices["sweep"]
            for action in parser._subparsers._group_actions
            if hasattr(action, "choices")
        )
        help_text = sweep_parser.format_help()
        for name in BACKEND_NAMES:
            assert name in help_text, f"--backend help is missing {name!r}"

    def test_architecture_docs_mention_every_name(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf8")
        for name in BACKEND_NAMES:
            assert name in text, f"docs/architecture.md does not mention {name!r}"

    def test_equivalence_suite_covers_every_real_backend(self):
        # 'auto' is an alias that resolves to serial/process, never a backend
        # of its own; every other name must run the equivalence property.
        assert set(EQUIVALENCE_BACKENDS) == set(BACKEND_NAMES) - {"auto"}
