"""Property tests for the optimum-ratio pipeline.

Two contracts from the issue's acceptance criteria:

* cached vs freshly solved optima are identical across serial and parallel
  runner execution (byte-identical JSON once the wall-time column is set
  aside, fully byte-identical through the cache), and a warmed grid re-runs
  with **zero** LP solves;
* ``ratio >= 1.0`` holds for every registered algorithm spec against the
  exact single-disk optimum on 100+ random instances — the optimum is a
  true minimum over all ``k``-slot schedules, so any measured violation is
  a bug in the LP, the extraction or the simulator.
"""

from __future__ import annotations

import random

import pytest

import repro.lp.service as service_module
from repro.algorithms import make_algorithm
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.analysis.results import RUN_RECORD_COLUMNS
from repro.analysis.runner import ExperimentSpec, point_cache_key, run_experiments
from repro.analysis.store import RunStore, store_path_for
from repro.disksim import ProblemInstance, simulate
from repro.lp import SOLVER_KEY, OptimumService
from repro.workloads import uniform_random, zipf

_VALUE_COLUMNS = tuple(
    column for column in RUN_RECORD_COLUMNS if column != "optimum_solve_seconds"
)


def _ratio_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="ratio-props",
        workloads=("loop:blocks=8,loops=3", "zipf:n=30,blocks=8"),
        cache_sizes=(3,),
        fetch_times=(3,),
        algorithms=("aggressive", "conservative"),
        seeds=(0, 1),
        compute_optimum=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSerialParallelOptima:
    def test_serial_and_parallel_runs_solve_identical_optima(self, tmp_path):
        """Freshly solved optima agree byte-for-byte modulo wall time."""
        spec = _ratio_spec()
        serial = run_experiments(spec, workers=0, cache_dir=tmp_path / "serial")
        fanned = run_experiments(spec, workers=2, cache_dir=tmp_path / "fanned")
        assert serial.to_json(_VALUE_COLUMNS) == fanned.to_json(_VALUE_COLUMNS)
        for record in serial:
            assert record.optimal_elapsed is not None
            assert record.optimum_solve_seconds is not None

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_each_solved_optimum_is_written_once(self, tmp_path, monkeypatch, backend):
        """A cold run stores each optimum it solves exactly once."""
        written = []
        put_optimum = RunStore.put_optimum

        def counted(store, record):
            written.append(record.fingerprint)
            put_optimum(store, record)

        monkeypatch.setattr(RunStore, "put_optimum", counted)
        run = run_experiments(_ratio_spec(), workers=2, backend=backend, cache_dir=tmp_path)
        assert run.optimum_requests > 0
        assert len(written) == run.optimum_requests
        assert len(set(written)) == len(written)

    def test_warmed_rerun_is_byte_identical_and_never_resolves(
        self, tmp_path, monkeypatch
    ):
        """Re-running a warmed grid is a pure cache hit: no LP solves at all."""
        spec = _ratio_spec()
        first = run_experiments(spec, workers=0, cache_dir=tmp_path)

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("warmed ratio grid must not re-solve any LP")

        monkeypatch.setattr(service_module, "compute_optimum_record", boom)
        second = run_experiments(spec, workers=0, cache_dir=tmp_path)
        assert second.cached_points == len(second.records) == len(first.records)
        assert second.to_json() == first.to_json()

    def test_cached_simulations_are_upgraded_with_optima(self, tmp_path):
        """A plain sweep's cache entries gain optima when ratios are requested."""
        plain = _ratio_spec(compute_optimum=False)
        run_experiments(plain, cache_dir=tmp_path)
        upgraded = run_experiments(_ratio_spec(), cache_dir=tmp_path)
        assert upgraded.cached_points == len(upgraded.records)
        assert all(r.optimal_elapsed is not None for r in upgraded)
        # The upgrade is persisted: the next run needs neither sims nor solves.
        again = run_experiments(_ratio_spec(), cache_dir=tmp_path)
        assert again.to_json() == upgraded.to_json()

    def test_stale_solver_key_reattaches_the_optimum(self, tmp_path):
        """Cached optima are trusted only when they carry ``SOLVER_KEY``."""
        spec = _ratio_spec(workloads=("loop:blocks=8,loops=3",), seeds=(None,))
        first = run_experiments(spec, cache_dir=tmp_path)
        with RunStore(store_path_for(tmp_path)) as store:
            for point in spec.points():
                key = point_cache_key(point)
                record = store.get_run(key)
                store.put_runs([(key, record.with_optimum(
                    optimal_stall=record.optimal_stall,
                    optimal_elapsed=record.optimal_elapsed,
                    solve_seconds=record.optimum_solve_seconds,
                    solver_key="method=milp;stale",
                ))])
        second = run_experiments(spec, cache_dir=tmp_path)
        # Every point is a cached simulation, but its optimum is re-attached
        # through the fingerprinted optimum store (a lookup, not a solve).
        assert second.cached_points == len(second.records)
        assert second.optimum_requests == 1
        assert second.to_json() == first.to_json()
        assert {r.optimum_solver_key for r in second} == {SOLVER_KEY}
        # The re-stamped records are persisted: the next run requests nothing.
        assert run_experiments(spec, cache_dir=tmp_path).optimum_requests == 0

    def test_one_solve_shared_by_all_algorithms_of_an_instance(self, tmp_path):
        """Optimum solves are deduplicated per instance, not per point."""
        spec = _ratio_spec(
            workloads=("loop:blocks=8,loops=3",),
            algorithms=("aggressive", "conservative", "demand", "delay:d=2"),
            seeds=(None,),
        )
        run = run_experiments(spec, cache_dir=tmp_path)
        assert run.optimum_requests == 1
        with RunStore(store_path_for(tmp_path)) as store:
            assert store.count_optima() == 1
        solve_times = {r.optimum_solve_seconds for r in run}
        assert len(solve_times) == 1  # all four records carry the one solve


class TestRatioAtLeastOne:
    def test_every_algorithm_on_100_plus_random_instances(self):
        """elapsed/stall ratios >= 1 against the exact optimum, all specs."""
        rng = random.Random(20260731)
        service = OptimumService()
        # Every registered algorithm, made constructible: `delay` requires
        # its d parameter, everything else builds from its bare name.
        algorithms = [
            "delay:d=2" if name == "delay" else name
            for name in sorted(ALGORITHM_REGISTRY)
        ]
        assert len(algorithms) >= 7
        instances = []
        for index in range(108):
            n = rng.randint(8, 14)
            blocks = rng.randint(4, 6)
            generator = zipf if index % 2 else uniform_random
            sequence = generator(n, blocks, seed=index, prefix=f"rp{index}_")
            warm = sorted(sequence.distinct_blocks, key=str)[: rng.randint(0, 2)]
            instances.append(
                ProblemInstance.single_disk(
                    sequence,
                    cache_size=rng.randint(2, 4),
                    fetch_time=rng.randint(2, 4),
                    initial_cache=warm,
                )
            )
        assert len(instances) >= 100
        checked = 0
        for instance in instances:
            optimum = service.optimum(instance)
            for spec in algorithms:
                result = simulate(instance, make_algorithm(spec))
                assert result.elapsed_time >= optimum.elapsed_time, (
                    f"{spec} beat the certified optimum on {instance.describe()}"
                )
                assert result.stall_time >= optimum.stall_time, (
                    f"{spec} stalled less than the optimum on {instance.describe()}"
                )
                checked += 1
        assert checked == len(instances) * len(algorithms)
        # One LP per instance, shared by every algorithm.
        assert service.solves == len(instances)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_runner_records_respect_the_bound(self, tmp_path, workers):
        """The pipeline's own ratio fields are >= 1 wherever defined."""
        run = run_experiments(
            _ratio_spec(), workers=workers, cache_dir=tmp_path / str(workers)
        )
        for record in run:
            assert record.elapsed_ratio is not None
            assert record.elapsed_ratio >= 1.0 - 1e-9
            assert record.stall_ratio >= 1.0 - 1e-9
