"""Tests for the batched experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import (
    ExperimentPoint,
    ExperimentSpec,
    evaluate_instances,
    run_experiments,
)
from repro.disksim import ProblemInstance
from repro.errors import ConfigurationError, PointEvaluationError
from repro.lp import instance_fingerprint
from repro.workloads import single_disk_example, zipf


def _small_spec(**overrides):
    base = dict(
        name="t",
        workloads=("zipf:n=40,blocks=10",),
        cache_sizes=(4, 6),
        fetch_times=(3,),
        algorithms=("aggressive", "demand"),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_grid_expansion_order_and_size(self):
        points = _small_spec().points()
        assert len(points) == 1 * 2 * 1 * 2 * 2  # workloads*seeds*F*k*algorithms
        assert points[0].workload == "zipf:n=40,blocks=10,seed=0"
        assert points[0].cache_size == 4 and points[0].algorithm == "aggressive"
        assert points[1].algorithm == "demand"

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            _small_spec(algorithms=())

    def test_point_without_workload_or_instance_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentPoint().build_instance()

    def test_layout_axis_swept_only_on_multi_disk_counts(self):
        spec = _small_spec(
            cache_sizes=(4,), seeds=(0,), algorithms=("aggressive",),
            disks=(1, 2), layouts=("striped", "partitioned"),
        )
        points = spec.points()
        # D=1 emits one point (placement irrelevant); D=2 emits one per layout.
        assert len(points) == 1 + 2
        assert [(p.disks, p.layout) for p in points] == [
            (1, "striped"), (2, "striped"), (2, "partitioned"),
        ]
        assert "layout=partitioned" in points[2].describe()
        assert "layout" not in points[0].describe()

    def test_layout_changes_the_instance(self):
        kwargs = dict(workload="scan:blocks=12", cache_size=4, fetch_time=3, disks=3)
        striped = ExperimentPoint(layout="striped", **kwargs).build_instance()
        partitioned = ExperimentPoint(layout="partitioned", **kwargs).build_instance()
        assert striped.num_disks == partitioned.num_disks == 3
        placements = lambda inst: {b: inst.disk_of(b) for b in inst.sequence.distinct_blocks}
        assert placements(striped) != placements(partitioned)

    def test_seed_axis_collapses_for_deterministic_workloads(self):
        spec = _small_spec(workloads=("scan:blocks=10",), cache_sizes=(4,),
                          algorithms=("aggressive",), seeds=(0, 1))
        points = spec.points()
        # scan has no seed parameter: no key is injected and no duplicate
        # points are emitted for the extra seeds.
        assert [p.workload for p in points] == ["scan:blocks=10"]

    def test_unknown_layout_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown layout"):
            _small_spec(layouts=("raid5",))

    def test_bad_algorithm_spec_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            _small_spec(algorithms=("nope",))

    def test_bad_nested_component_spec_rejected_at_construction(self):
        # combination's delay/alt values are specs themselves; a bad one must
        # fail here, not inside a worker once that branch gets selected.
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            _small_spec(algorithms=("combination:alt=bogus",))

    def test_instance_kind_workload_in_grid(self):
        spec = _small_spec(workloads=("thm2:phases=2",), cache_sizes=(13,),
                          fetch_times=(4,), algorithms=("aggressive",), seeds=(None,))
        rows = run_experiments(spec).as_rows()
        assert len(rows) == 1
        assert rows[0]["cache_size"] == 13 and rows[0]["fetch_time"] == 4


class TestRun:
    def test_serial_and_parallel_emit_identical_json(self):
        spec = _small_spec()
        serial = run_experiments(spec, workers=0)
        fanned = run_experiments(spec, workers=2)
        assert serial.to_json() == fanned.to_json()
        assert len(serial.records) == 8

    def test_rows_carry_metrics(self):
        run = run_experiments(_small_spec(cache_sizes=(4,), seeds=(0,)))
        row = run.as_rows()[0]
        assert row["algorithm"] == "aggressive"
        assert row["elapsed_time"] == row["num_requests"] + row["stall_time"]
        assert row["layout"] is None  # single disk: no placement

    def test_multi_disk_rows_record_layout(self):
        spec = _small_spec(
            cache_sizes=(4,), seeds=(0,), algorithms=("parallel-aggressive",),
            disks=(2,), layouts=("roundrobin",),
        )
        row = run_experiments(spec).as_rows()[0]
        assert row["layout"] == "roundrobin" and row["disks"] == 2

    def test_caching_round_trip(self, tmp_path):
        spec = _small_spec(cache_sizes=(4,), seeds=(0,))
        first = run_experiments(spec, cache_dir=tmp_path)
        assert first.cached_points == 0
        second = run_experiments(spec, cache_dir=tmp_path)
        assert second.cached_points == len(second.records) == 2
        assert second.to_json() == first.to_json()

    def test_caching_round_trip_with_layouts(self, tmp_path):
        spec = _small_spec(
            cache_sizes=(4,), seeds=(0,), algorithms=("parallel-aggressive",),
            disks=(2,), layouts=("striped", "partitioned"),
        )
        first = run_experiments(spec, cache_dir=tmp_path)
        second = run_experiments(spec, cache_dir=tmp_path)
        assert second.cached_points == len(second.records) == 2
        assert second.to_json() == first.to_json()

    def test_json_and_csv_files(self, tmp_path):
        run = run_experiments(_small_spec(cache_sizes=(4,), seeds=(0,)))
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        run.write_json(json_path)
        run.write_csv(csv_path)
        document = json.loads(json_path.read_text())
        assert document["num_points"] == 2
        header = csv_path.read_text().splitlines()[0]
        assert "stall_time" in header and "algorithm" in header

    def test_cache_hit_keeps_current_labels(self, tmp_path):
        """Content-shared cache entries must not leak the writing run's labels."""
        instance = single_disk_example()
        first = evaluate_instances([("labelA", instance)], ["aggressive"], cache_dir=tmp_path)
        second = evaluate_instances([("labelB", instance)], ["aggressive"], cache_dir=tmp_path)
        assert second.cached_points == 1
        assert second.metric("elapsed_time")["labelB alg=aggressive"] == (
            first.metric("elapsed_time")["labelA alg=aggressive"]
        )

    def test_evaluate_instances(self):
        run = evaluate_instances(
            [("paper", single_disk_example())], ["aggressive", "conservative"]
        )
        elapsed = run.metric("elapsed_time")
        assert elapsed["paper alg=aggressive"] == 13
        assert elapsed["paper alg=conservative"] == 12


class TestWorkerFailures:
    """A failing point must be named, not surface as a bare worker traceback."""

    @pytest.mark.parametrize("workers,backend", [(0, "serial"), (2, "process")])
    def test_failure_names_the_exact_grid_point(self, workers, backend):
        spec = _small_spec(
            workloads=("trace:path=/nonexistent/never.txt",),
            cache_sizes=(4,), seeds=(None,), algorithms=("aggressive",),
        )
        with pytest.raises(PointEvaluationError) as excinfo:
            run_experiments(spec, workers=workers, backend=backend)
        message = str(excinfo.value)
        assert "trace:path=/nonexistent/never.txt k=4 F=3 D=1 alg=aggressive" in message
        # load_trace wraps the OSError in a strict ConfigurationError that
        # names the unreadable path.
        assert "ConfigurationError" in message
        assert "/nonexistent/never.txt" in message


class TestFingerprint:
    def test_equal_instances_share_fingerprints(self):
        a = ProblemInstance.single_disk(zipf(30, 8, seed=1), cache_size=4, fetch_time=3)
        b = ProblemInstance.single_disk(zipf(30, 8, seed=1), cache_size=4, fetch_time=3)
        assert a is not b
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_fingerprint_covers_parameters(self):
        base = ProblemInstance.single_disk(zipf(30, 8, seed=1), cache_size=4, fetch_time=3)
        assert instance_fingerprint(base) != instance_fingerprint(base.with_cache_size(5))
        other_seq = ProblemInstance.single_disk(zipf(30, 8, seed=2), cache_size=4, fetch_time=3)
        assert instance_fingerprint(base) != instance_fingerprint(other_seq)
