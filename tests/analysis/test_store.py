"""Tests for the SQLite run store: persistence, manifest, concurrency."""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analysis.runner as runner_module
import repro.lp.service as service_module
from repro.analysis.backends import adaptive_chunk_size
from repro.analysis.runner import (
    ExperimentSpec,
    point_cache_key,
    prepare_sweep,
    run_experiments,
    sweep_key_for,
)
from repro.analysis.results import RunRecord
from repro.analysis.store import RunStore, store_path_for
from repro.disksim.metrics import SimMetrics
from repro.errors import PointEvaluationError
from repro.lp.service import OptimumRecord, OptimumService


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="store-t",
        workloads=("zipf:n=40,blocks=10",),
        cache_sizes=(4, 6),
        fetch_times=(3,),
        algorithms=("aggressive", "demand"),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _record(**overrides) -> RunRecord:
    defaults = dict(
        point="p",
        algorithm="aggressive",
        algorithm_spec="aggressive",
        metrics=SimMetrics(num_requests=10, stall_time=4, num_fetches=3),
        workload="zipf:n=10,blocks=4",
        cache_size=4,
        fetch_time=3,
        disks=1,
        layout=None,
        engine="loop",
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


#: Hypothesis strategy over structurally valid run records (identity fields,
#: metrics, optional optimum) for the round-trip property test.
_records = st.builds(
    _record,
    point=st.text(min_size=1, max_size=20),
    workload=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
    algorithm_spec=st.sampled_from(["aggressive", "delay:d=2", "demand"]),
    layout=st.one_of(st.none(), st.sampled_from(["striped", "partitioned"])),
    cache_size=st.integers(min_value=1, max_value=64),
    fetch_time=st.integers(min_value=1, max_value=16),
    disks=st.integers(min_value=1, max_value=4),
    metrics=st.builds(
        SimMetrics,
        num_requests=st.integers(min_value=1, max_value=500),
        stall_time=st.integers(min_value=0, max_value=500),
        num_fetches=st.integers(min_value=0, max_value=200),
        cache_hits=st.integers(min_value=0, max_value=200),
        cache_misses=st.integers(min_value=0, max_value=200),
    ),
    optimal_stall=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    optimal_elapsed=st.one_of(st.none(), st.integers(min_value=1, max_value=900)),
    optimum_solver_key=st.one_of(st.none(), st.just("method=auto;x=1")),
)


#: A stored run body and optimum body, and the fields of each (top level and
#: ``metrics``) the corrupt-row property overwrites.
_RUN_BODY = _record(optimal_stall=1, optimal_elapsed=12, optimum_solver_key="k").to_json_dict()
_OPTIMUM = OptimumRecord(
    fingerprint="f1", stall_time=3, elapsed_time=13, lp_lower_bound=12.5,
    method_used="single-disk-exact", solve_seconds=0.01, solver_key="k",
)
_CORRUPTIBLE = (
    [("runs", (name,)) for name in sorted(_RUN_BODY)]
    + [("runs", ("metrics", name)) for name in sorted(_RUN_BODY["metrics"])]
    + [("optima", (name,)) for name in sorted(_OPTIMUM.as_json_dict())]
)
#: Raw JSON replacing one field: wrong types, a negative, non-finite numbers.
_CORRUPT_VALUES = ["null", "-1", "NaN", "Infinity", "-Infinity", '"text"', "[1, 2]", '{"a": 1}']
_DEEP_NEST = "[" * 10**5 + "]" * 10**5


def _corrupt_body(body, field, raw: str) -> str:
    """``body`` as JSON with the value at ``field`` (a key path) replaced by ``raw``."""
    body = json.loads(json.dumps(body))
    target = body
    for name in field[:-1]:
        target = target[name]
    target[field[-1]] = "__corrupt__"
    return json.dumps(body, sort_keys=True).replace('"__corrupt__"', raw)


class TestRunPersistence:
    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(_records, min_size=1, max_size=6))
    def test_round_trip_preserves_records_byte_for_byte(self, tmp_path_factory, records):
        """Property: a stored record reads back as the same canonical bytes."""
        directory = tmp_path_factory.mktemp("round-trip")
        expected = {
            f"key{index}": json.dumps(record.to_json_dict(), sort_keys=True)
            for index, record in enumerate(records)
        }
        with RunStore(directory / "runs.sqlite") as store:
            store.put_runs(
                (f"key{index}", record) for index, record in enumerate(records)
            )
            for key, payload in expected.items():
                stored = store.get_run(key)
                assert json.dumps(stored.to_json_dict(), sort_keys=True) == payload

    def test_round_trip_is_equality(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            record = _record()
            store.put_runs([("k1", record)])
            assert store.get_run("k1") == record
            assert store.get_run("missing") is None
            assert store.count_runs() == 1

    def test_upsert_replaces(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_runs([("k", _record())])
            upgraded = _record(optimal_stall=1, optimal_elapsed=12)
            store.put_runs([("k", upgraded)])
            assert store.count_runs() == 1
            assert store.get_run("k") == upgraded

    def test_non_database_file_raises_a_clean_store_error(self, tmp_path):
        from repro.errors import ReproError, StoreError

        bogus = tmp_path / "not-a-db.sqlite"
        bogus.write_text('{"this": "is json, not sqlite"}' * 100)
        with pytest.raises(StoreError, match="cannot open run store"):
            RunStore(bogus)
        assert issubclass(StoreError, ReproError)  # the CLI exits 2, no traceback

    def test_corrupt_row_is_a_miss(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_runs([("k", _record())])
            with store._conn:
                store._conn.execute("UPDATE runs SET record = '{not json'")
            assert store.get_run("k") is None

    @settings(max_examples=80, deadline=None)
    @given(target=st.sampled_from(_CORRUPTIBLE), raw=st.sampled_from(_CORRUPT_VALUES))
    @example(target=("runs", ("metrics", "stall_time")), raw=_DEEP_NEST).via("deep nest")
    @example(target=("optima", ("stall_time",)), raw=_DEEP_NEST).via("deep nest")
    def test_one_corrupt_field_reads_as_a_record_or_a_miss(
        self, tmp_path_factory, target, raw
    ):
        """Property: no field value makes a read raise; query_runs skips misses."""
        table, field = target
        body = _RUN_BODY if table == "runs" else _OPTIMUM.as_json_dict()
        with RunStore(tmp_path_factory.mktemp("corrupt") / "s.sqlite") as store:
            store.put_runs([("k", _record())])
            store.put_optimum(_OPTIMUM)
            with store._conn:
                store._conn.execute(
                    f"UPDATE {table} SET record = ?", (_corrupt_body(body, field, raw),)
                )
            run = store.get_run("k")
            optimum = store.get_optimum(_OPTIMUM.fingerprint)
            assert run is None or isinstance(run, RunRecord)
            assert optimum is None or isinstance(optimum, OptimumRecord)
            assert len(store.query_runs()) == (0 if run is None else 1)

    def test_indexed_queries_by_identity_columns(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_runs(
                [
                    ("a", _record(workload="w1", algorithm_spec="aggressive")),
                    ("b", _record(workload="w1", algorithm_spec="delay:d=2",
                                  algorithm="delay(2)")),
                    ("c", _record(workload="w2", algorithm_spec="aggressive",
                                  layout="partitioned", disks=2)),
                ]
            )
            assert len(store.query_runs(workload="w1")) == 2
            assert len(store.query_runs(algorithm="aggressive")) == 2
            # Resolved name and spec string both address the record.
            assert len(store.query_runs(algorithm="delay(2)")) == 1
            assert len(store.query_runs(algorithm="delay:d=2")) == 1
            assert len(store.query_runs(layout="partitioned")) == 1
            assert len(store.query_runs(workload="w1", algorithm="delay:d=2")) == 1
            assert len(store.query_runs()) == 3

    def test_optimum_round_trip(self, tmp_path):
        record = OptimumRecord(
            fingerprint="f1", stall_time=3, elapsed_time=13, lp_lower_bound=12.5,
            method_used="single-disk-exact", solve_seconds=0.01, solver_key="k",
        )
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_optimum(record)
            assert store.get_optimum("f1") == record
            assert store.get_optimum("f2") is None
            assert store.count_optima() == 1


class TestEngineColumn:
    def test_query_runs_engine_filter_and_alias(self, tmp_path):
        from repro.errors import ConfigurationError

        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_runs(
                [
                    ("a", _record(engine="loop")),
                    ("b", _record(engine="vector")),
                    ("c", _record(engine="vector")),
                    ("d", _record(engine="replay")),
                ]
            )
            assert len(store.query_runs(engine="loop")) == 1
            assert len(store.query_runs(engine="vector")) == 2
            assert len(store.query_runs(engine="replay")) == 1
            # The retired "indexed" alias is an unknown engine like any other,
            # and "auto" is a request that no record carries.
            for unknown in ("indexed", "warp", "auto"):
                with pytest.raises(ConfigurationError, match="unknown engine"):
                    store.query_runs(engine=unknown)

    def test_stats_reports_per_engine_counts(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with RunStore(path) as store:
            store.put_runs(
                [
                    ("a", _record(engine="loop")),
                    ("b", _record(engine="vector")),
                    ("c", _record(engine="vector")),
                ]
            )
        with RunStore(path) as store:
            stats = store.stats()
            assert stats["runs_engine_loop"] == 1
            assert stats["runs_engine_vector"] == 2
            assert "runs_engine_scan" not in stats


class TestSweepManifest:
    def test_begin_reconcile_progress(self, tmp_path):
        spec = _spec()
        cache_dir = tmp_path / "c"
        with RunStore(store_path_for(cache_dir)) as store:
            progress = prepare_sweep(spec, store)
            assert progress.total == 8 and progress.done == 0
            assert len(progress.remaining_labels) == 8
            assert not progress.complete
        run_experiments(spec, cache_dir=cache_dir)
        with RunStore(store_path_for(cache_dir)) as store:
            progress = prepare_sweep(spec, store)
            assert progress.complete and progress.remaining == 0

    def test_partial_overlap_counts_shared_points_as_done(self, tmp_path):
        cache_dir = tmp_path / "c"
        run_experiments(_spec(algorithms=("aggressive",)), cache_dir=cache_dir)
        wider = _spec(algorithms=("aggressive", "demand"))
        with RunStore(store_path_for(cache_dir)) as store:
            progress = prepare_sweep(wider, store)
            # The aggressive half is already stored; only demand remains.
            assert progress.total == 8 and progress.done == 4
            assert all("demand" in label for label in progress.remaining_labels)

    def test_reregistering_keeps_done_status(self, tmp_path):
        spec = _spec(cache_sizes=(4,), seeds=(0,))
        key = sweep_key_for(spec)
        with RunStore(tmp_path / "s.sqlite") as store:
            labeled = [(point_cache_key(p), p.describe()) for p in spec.points()]
            store.begin_sweep(key, spec.name, labeled)
            store.mark_points_done(key, [0])
            store.begin_sweep(key, spec.name, labeled)
            assert store.sweep_progress(key).done == 1

    def test_optimum_sweeps_require_matching_solver_key(self, tmp_path):
        cache_dir = tmp_path / "c"
        plain = _spec(cache_sizes=(4,), seeds=(0,))
        run_experiments(plain, cache_dir=cache_dir)
        ratio = _spec(cache_sizes=(4,), seeds=(0,), compute_optimum=True)
        with RunStore(store_path_for(cache_dir)) as store:
            # Records exist but carry no optimum under this solver config:
            # the ratio sweep still has work to do at every point.
            assert prepare_sweep(ratio, store).done == 0
        run_experiments(ratio, cache_dir=cache_dir)
        with RunStore(store_path_for(cache_dir)) as store:
            assert prepare_sweep(ratio, store).complete

    def test_stats_and_gc(self, tmp_path):
        cache_dir = tmp_path / "c"
        spec = _spec(cache_sizes=(4,), seeds=(0,))
        run_experiments(spec, cache_dir=cache_dir)
        with RunStore(store_path_for(cache_dir)) as store:
            stats = store.stats()
            assert stats["runs"] == 2 and stats["sweeps"] == 1
            assert stats["sweep_points_done"] == 2
            outcome = store.gc()
            assert outcome["sweeps_removed"] == 1
            assert store.stats()["sweeps"] == 0
            # The records themselves are the cache; gc never drops them.
            assert store.count_runs() == 2


class TestResume:
    def test_warmed_resume_performs_zero_sims_and_zero_solves(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a warmed ``--resume`` run touches no simulator, no LP."""
        spec = _spec(compute_optimum=True, cache_sizes=(3,),
                     workloads=("loop:blocks=8,loops=3",), seeds=(None,))
        first = run_experiments(spec, cache_dir=tmp_path)
        assert first.simulated_points == len(first.records)

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("warmed resume must re-run nothing")

        monkeypatch.setattr(runner_module, "_evaluate_point", boom)
        monkeypatch.setattr(service_module, "compute_optimum_record", boom)
        with RunStore(store_path_for(tmp_path)) as store:
            assert prepare_sweep(spec, store).complete
        second = run_experiments(spec, cache_dir=tmp_path)
        assert second.simulated_points == 0
        assert second.optimum_requests == 0
        assert second.cached_points == len(second.records)
        assert second.to_json() == first.to_json()

    def test_corrupt_row_is_resimulated_and_overwritten(self, tmp_path):
        """A row whose stall_time is JSON ``Infinity`` is a miss, then repaired."""
        spec = _spec(cache_sizes=(4,), algorithms=("aggressive",), seeds=(0,))
        first = run_experiments(spec, cache_dir=tmp_path)
        key = point_cache_key(spec.points()[0])
        with RunStore(store_path_for(tmp_path)) as store:
            body = store.get_run(key).to_json_dict()
            with store._conn:
                store._conn.execute(
                    "UPDATE runs SET record = ? WHERE key = ?",
                    (_corrupt_body(body, ("metrics", "stall_time"), "Infinity"), key),
                )
        second = run_experiments(spec, cache_dir=tmp_path)
        assert second.simulated_points == 1
        assert second.to_json() == first.to_json()
        with RunStore(store_path_for(tmp_path)) as store:
            assert store.get_run(key) == first.records[0]

    def test_failed_run_keeps_every_finished_unit(self, tmp_path):
        """Each unit's records are stored together once the unit finishes."""
        spec = _spec(
            workloads=("zipf:n=40,blocks=10", "trace:path=/nonexistent/never.txt"),
            cache_sizes=(4,), seeds=tuple(range(10)),
        )
        points = spec.points()
        failing = next(i for i, point in enumerate(points) if "trace" in point.workload)
        size = adaptive_chunk_size(len(points), 1)
        finished = failing - failing % size  # the runs before the failing one
        assert finished > 0 and failing % size > 0
        with pytest.raises(PointEvaluationError):
            run_experiments(spec, cache_dir=tmp_path)
        with RunStore(store_path_for(tmp_path)) as store:
            stored = [store.get_run(point_cache_key(point)) is not None for point in points]
        assert stored == [position < finished for position in range(len(points))]

    def test_killed_sweep_resumes_from_stored_records(self, tmp_path, monkeypatch):
        """Records persisted before a crash count as progress on resume."""
        spec = _spec()
        full = run_experiments(spec)  # reference, no store

        # Simulate a sweep killed halfway: only the first half of the grid
        # got evaluated and persisted before the manifest could be marked.
        points = spec.points()
        half = len(points) // 2
        with RunStore(store_path_for(tmp_path)) as store:
            sweep_key = sweep_key_for(spec)
            store.begin_sweep(
                sweep_key, spec.name,
                [(point_cache_key(p), p.describe()) for p in points],
            )
            for point, record in list(zip(points, full.records))[:half]:
                store.put_runs([(point_cache_key(point), record)])
            progress = prepare_sweep(spec, store)
            assert progress.done == half and progress.remaining == half

        evaluated = []
        original = runner_module._evaluate_point

        def counting(point, sequences):
            evaluated.append(point.describe())
            return original(point, sequences)

        monkeypatch.setattr(runner_module, "_evaluate_point", counting)
        resumed = run_experiments(spec, cache_dir=tmp_path)
        assert len(evaluated) == half  # only the missing half re-simulated
        assert resumed.cached_points == half
        assert resumed.to_json() == full.to_json()


class TestConcurrentWriters:
    def test_concurrent_openers_of_a_fresh_store_all_succeed(self, tmp_path):
        """Stress: 4-8 threads opening one fresh file at once never fail.

        Switching a fresh database to WAL mode bypasses SQLite's busy
        handler; without retrying the switch, several of these trials
        raised ``StoreError: database is locked`` at once.
        """
        for trial in range(200):
            path = tmp_path / f"fresh{trial}.sqlite"
            openers = 4 + trial % 5
            barrier = threading.Barrier(openers)
            errors = []

            def open_store():
                try:
                    barrier.wait(timeout=30)
                    RunStore(path).close()
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=open_store) for _ in range(openers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), f"trial {trial}: an opener hung"
            assert not errors, f"trial {trial} ({openers} openers): {errors[0]}"
            with RunStore(path) as store:
                (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
                assert mode == "wal"

    def test_two_process_pool_sweeps_share_one_store(self, tmp_path):
        """Stress: two pool-backed sweeps race on one store without damage."""
        overlapping = _spec(name="racer-a")
        disjointish = _spec(name="racer-b", cache_sizes=(4, 6, 8))
        reference_a = run_experiments(overlapping)
        reference_b = run_experiments(disjointish)

        results, errors = {}, []

        def drive(tag, spec):
            try:
                results[tag] = run_experiments(
                    spec, workers=2, backend="process", cache_dir=tmp_path
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=drive, args=("a", overlapping)),
            threading.Thread(target=drive, args=("b", disjointish)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results["a"].to_json() == reference_a.to_json()
        assert results["b"].to_json() == reference_b.to_json()
        with RunStore(store_path_for(tmp_path)) as store:
            # The two grids overlap on 8 of 12 point keys; the store holds
            # the union exactly once per key.
            assert store.count_runs() == 12
            assert store.stats()["sweeps"] == 2
        # And the warmed store serves both grids without re-simulation.
        rerun = run_experiments(disjointish, cache_dir=tmp_path)
        assert rerun.simulated_points == 0


class TestStoreBackedOptimumService:
    def test_store_layer_is_shared_across_service_objects(self, tmp_path):
        from repro.workloads import uniform_random
        from repro.disksim import ProblemInstance

        instance = ProblemInstance.single_disk(
            uniform_random(16, 6, seed=3, prefix="sb_"), cache_size=3, fetch_time=3
        )
        with RunStore(tmp_path / "s.sqlite") as store:
            writer = OptimumService(store=store)
            record = writer.optimum(instance)
            assert writer.solves == 1
            reader = OptimumService(store=store)
            assert reader.optimum(instance) == record
            assert reader.solves == 0
            assert store.count_optima() == 1
