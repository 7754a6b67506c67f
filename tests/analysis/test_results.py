"""Tests for the unified run-record result model and its round-trips."""

from __future__ import annotations

import json

import pytest

from repro.algorithms import Aggressive, make_algorithm
from repro.analysis.results import RUN_RECORD_COLUMNS, ResultSet, RunRecord, safe_ratio
from repro.analysis.runner import evaluate_instances
from repro.disksim import ProblemInstance, simulate
from repro.workloads import parallel_disk_example, single_disk_example, uniform_random


def _record(**overrides) -> RunRecord:
    instance = ProblemInstance.single_disk(
        uniform_random(30, 10, seed=2), cache_size=5, fetch_time=3
    )
    result = simulate(instance, make_algorithm("delay:d=2"))
    defaults = dict(
        point="unit-test",
        algorithm_spec="delay:d=2",
        workload="uniform:n=30,blocks=10,seed=2",
        engine="loop",
    )
    defaults.update(overrides)
    return RunRecord.from_simulation(result, **defaults)


class TestRunRecord:
    def test_identity_read_off_the_instance(self):
        record = _record()
        assert record.cache_size == 5 and record.fetch_time == 3 and record.disks == 1
        assert record.algorithm == "delay(2)"
        assert record.algorithm_spec == "delay:d=2"

    def test_ratios_require_an_optimum(self):
        record = _record()
        assert record.elapsed_ratio is None and record.stall_ratio is None
        with_opt = _record(optimal_elapsed=30, optimal_stall=0)
        assert with_opt.elapsed_ratio == pytest.approx(
            with_opt.metrics.elapsed_time / 30
        )

    def test_as_row_covers_the_canonical_columns(self):
        row = _record().as_row()
        assert tuple(row) == RUN_RECORD_COLUMNS

    def test_json_round_trip_is_equality(self):
        record = _record(optimal_elapsed=31, optimal_stall=1)
        payload = json.loads(json.dumps(record.to_json_dict()))
        assert RunRecord.from_json_dict(payload) == record

    def test_with_identity_relabels_only_identity(self):
        record = _record()
        relabeled = record.with_identity(
            point="other", workload=None, algorithm_spec="delay:3", layout=None
        )
        assert relabeled.point == "other"
        assert relabeled.metrics == record.metrics
        assert relabeled != record

    def test_matches_algorithm_by_name_and_spec(self):
        record = _record()
        assert record.matches_algorithm("delay(2)")
        assert record.matches_algorithm("delay:d=2")
        assert not record.matches_algorithm("aggressive")


class TestResultSet:
    def test_round_trip_is_equality(self):
        results = ResultSet(
            name="rt", records=(_record(), _record(point="p2")), workers=2,
            cached_points=1,
        )
        payload = json.loads(json.dumps(results.to_json_dict()))
        assert ResultSet.from_json_dict(payload) == results

    def test_column_selection(self):
        results = ResultSet(name="cols", records=(_record(),))
        rows = results.as_rows(columns=["point", "stall_time"])
        assert rows == [
            {"point": "unit-test", "stall_time": results.records[0].metrics.stall_time}
        ]
        document = json.loads(results.to_json(columns=["point", "elapsed_time"]))
        assert set(document["results"][0]) == {"point", "elapsed_time"}

    def test_csv_uses_canonical_columns(self, tmp_path):
        results = ResultSet(name="csv", records=(_record(),))
        path = tmp_path / "out.csv"
        results.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RUN_RECORD_COLUMNS)

    def test_filtered_views_keep_simulated_points_nonnegative(self):
        """Filters keep the run-level cache count; the derived count clamps."""
        full = ResultSet(
            name="warm", records=(_record(), _record(point="p2")), cached_points=2,
        )
        assert full.simulated_points == 0
        filtered = full.for_algorithm("delay(2)")
        assert len(filtered.records) == 2
        assert full.for_algorithm("nothing").simulated_points == 0

    def test_safe_ratio_conventions(self):
        assert safe_ratio(0, 0) == 1.0
        assert safe_ratio(3, 0) == float("inf")
        assert safe_ratio(3, 2) == 1.5

    def test_infinite_ratio_emits_strict_json(self):
        """A zero-stall optimum must not leak the non-standard Infinity token."""
        record = _record(optimal_elapsed=30, optimal_stall=0)
        assert record.stall_ratio == float("inf")
        results = ResultSet(name="inf", records=(record,))
        document = results.to_json()
        assert "Infinity" not in document
        assert json.loads(document)["results"][0]["stall_ratio"] == "inf"


class TestOptimumRecords:
    def test_ratio_records_name_the_engine_that_ran(self):
        """Optimum-carrying runner records carry the engine that actually ran."""
        single = evaluate_instances(
            [("paper", single_disk_example())], ["aggressive"], compute_optimum=True
        )
        parallel = evaluate_instances(
            [("paper", parallel_disk_example())], ["parallel-aggressive"],
            compute_optimum=True,
        )
        assert [r.engine for r in single.records + parallel.records] == ["loop", "loop"]
        assert single.ratios_for("aggressive") == {
            "paper alg=aggressive": pytest.approx(13 / 11)
        }
        result = simulate(single_disk_example(), Aggressive())
        assert RunRecord.from_simulation(result, point="p").engine == "loop"
