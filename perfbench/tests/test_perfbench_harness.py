"""Tests of the benchmark harness's own logic (no grid is run).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

import pytest

import grids
import run
import spans
from spans import Span, Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    tree = [
        Span("disksim.loop", 0.0, 10.0, -1),
        Span("algorithms.reset", 1.0, 4.0, 0),
        Span("paging.min", 2.0, 3.0, 1),
        Span("algorithms.reset", 5.0, 6.0, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs["disksim.loop"] == pytest.approx(6.0)
    assert selfs["algorithms.reset"] == pytest.approx(2.0 + 1.0)
    assert selfs["paging.min"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("backends.map", 0.0, 10.0, -1),
        Span("runner.task", 1.0, 5.0, 0),
        Span("runner.task", 3.0, 7.0, 0),
        Span("runner.task", 9.0, 12.0, 0),
    ]
    assert spans.self_times(tree)["backends.map"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_same_name_nesting():
    tracer = Tracer()
    with tracer.span("disksim.vector"):
        with tracer.span("disksim.loop"):
            pass
        with tracer.span("disksim.loop"):
            with tracer.span("paging.min"):
                pass
    with tracer.span("store.put"):
        pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("disksim.vector", -1),
        ("disksim.loop", 0),
        ("disksim.loop", 0),
        ("paging.min", 2),
        ("store.put", -1),
    ]
    selfs = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent == -1]
    assert sum(selfs.values()) == pytest.approx(sum(s.end - s.start for s in roots))


def test_layer_metrics_reads_counts_and_self_times():
    tracer = Tracer()
    tracer.spans = [
        Span("disksim.loop", 0.0, 4.0, -1),
        Span("paging.min", 1.0, 2.0, 0),
        Span("store.get", 4.0, 4.5, -1),
        Span("store.get", 4.5, 5.0, -1),
    ]
    tracer.count("disksim.loop.requests", 3000)
    tracer.count("paging.min_faults", 70)
    tracer.count("store.gets", 2)
    tracer.count("store.hits", 1)
    metrics = spans.layer_metrics(tracer, vector_points=1, points=4)
    assert metrics["disksim.loop.points"] == 1
    assert metrics["disksim.loop.s"] == pytest.approx(3.0)
    assert metrics["disksim.loop.req_per_s"] == pytest.approx(1000.0)
    assert metrics["paging.min_s"] == pytest.approx(1.0)
    assert metrics["paging.min_faults"] == 70
    assert metrics["store.gets"] == 2
    assert metrics["store.hit_frac"] == pytest.approx(0.5)
    assert metrics["disksim.vector.share"] == pytest.approx(0.25)
    assert metrics["disksim.vector.req_per_s"] == 0.0
    assert set(metrics) <= set(run.PER_LAYER)


def test_backend_map_hook_spans_only_the_wait():
    tracer = Tracer()

    def source(self, fn, items):
        for item in items:
            yield fn(item)

    wrapped = spans._backend_map(tracer)(source)
    results = []
    for value in wrapped(None, lambda x: x * 2, [1, 2, 3]):
        with tracer.span("store.put"):
            results.append(value)
    assert results == [2, 4, 6]
    assert tracer.counts["backends.tasks"] == 3
    assert tracer.task_items == [1, 2, 3] and tracer.task_results == [2, 4, 6]
    assert all(s.parent == -1 for s in tracer.spans)
    assert spans.span_counts(tracer.spans)["backends.map"] == 4  # three results + the end


def test_covered_seconds_leaves_out_container_self_time():
    tree = [
        Span("backends.map", 0.0, 10.0, -1),
        Span("runner.task", 1.0, 9.0, 0),
        Span("disksim.loop", 2.0, 6.0, 1),
        Span("paging.min", 3.0, 4.0, 2),
        Span("store.put", 9.5, 10.5, -1),
    ]
    tracer = Tracer()
    tracer.spans = tree
    assert spans.covered_seconds(tracer, ()) == pytest.approx(11.0)
    assert spans.covered_seconds(tracer, ("runner.task", "backends.map")) == pytest.approx(5.0)


class _Outcome:
    def __init__(self, engine):
        self.engine = engine


class _Instance:
    num_requests = 100


def test_run_batch_hook_counts_vector_rows_only():
    tracer = Tracer()

    def source(pairs):
        return [_Outcome("vector"), _Outcome("loop"), _Outcome("vector")]

    wrapped = spans._run_batch(tracer)(source)
    wrapped([(_Instance(), None)] * 3)
    assert tracer.counts["disksim.vector.batches"] == 1
    assert tracer.counts["disksim.vector.rows"] == 2
    assert tracer.counts["disksim.vector.fallbacks"] == 1
    assert tracer.counts["disksim.vector.requests"] == 200


def test_single_point_vector_run_is_a_row_not_a_batch():
    tracer = Tracer()
    wrapped = spans._simulate(tracer)(lambda instance, policy: ("result", "vector"))
    assert wrapped(_Instance(), None) == ("result", "vector")
    metrics = spans.layer_metrics(tracer, vector_points=1, points=1)
    assert metrics["disksim.vector.rows"] == 1
    assert metrics["disksim.vector.batches"] == 0
    assert metrics["disksim.loop.points"] == 0


def test_patcher_restores_own_and_inherited_attributes():
    class Base:
        def map(self):
            return "base"

    class Child(Base):
        pass

    patcher = spans.Patcher()
    patcher.replace(Child, "map", lambda original: lambda self: "patched " + original(self))
    patcher.replace(Base, "map", lambda original: lambda self: "base patched")
    assert Child().map() == "patched base"
    patcher.restore()
    assert "map" not in vars(Child)
    assert Child().map() == "base"


# -- metric names ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["points_per_s", "disksim.loop.req_per_s", "a-b", "9x"])
def test_metric_name_grammar_accepts(name):
    assert spans.check_names([name]) is None


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "lp/solves", "x" * 65, "é"])
def test_metric_name_grammar_rejects(name):
    assert spans.check_names([name]) == name


def test_declared_metrics_match_the_harness():
    declared = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert spans.check_names(list(end_to_end) + list(per_layer)) is None
    assert {w["name"] for w in declared["workloads"]} == set(grids.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


# -- digest and counts ----------------------------------------------------------------


def _document(rows):
    return json.dumps({"experiment": "x", "num_points": len(rows), "results": rows})


def _row(**overrides):
    row = {
        "point": "p", "workload": "zipf:n=4,blocks=2,seed=0", "cache_size": 2,
        "fetch_time": 2, "disks": 1, "layout": None, "algorithm": "conservative",
        "algorithm_spec": "conservative", "engine": "loop", "num_requests": 4,
        "stall_time": 1, "elapsed_time": 5, "num_fetches": 3,
        "optimal_elapsed": 5, "optimum_solve_seconds": 0.25,
    }
    row.update(overrides)
    return row


def test_digest_ignores_engine_and_solve_seconds():
    base = grids.digest(_document([_row()]))
    assert grids.digest(_document([_row(engine="vector")])) == base
    assert grids.digest(_document([_row(optimum_solve_seconds=9.5)])) == base
    assert grids.digest(_document([_row(stall_time=2)])) != base
    assert grids.digest(_document([_row(), _row()])) != base


def test_normalised_rows_drop_only_volatile_fields():
    (row,) = grids.normalised_rows(_document([_row(engine="vector")]))
    assert row["engine"] == "any"
    assert "optimum_solve_seconds" not in row
    assert row["num_fetches"] == 3


def test_record_counts():
    rows = [
        _row(engine="vector", algorithm_spec="aggressive", num_fetches=10),
        _row(engine="loop", algorithm_spec="conservative", num_fetches=7),
        _row(engine="loop", algorithm_spec="parallel-conservative", num_fetches=5),
        _row(engine="vector", algorithm_spec="delay:d=3", num_requests=6),
    ]
    counts = grids.record_counts(rows, optimum_requests=2)
    assert counts == {
        "points": 4,
        "requests": 18,
        "lp.solves": 2,
        "paging.min_faults": 12,
        "disksim.vector.rows": 2,
        "disksim.vector.share": 0.5,
    }


def test_fingerprint_mismatches_compare_shared_counts_only():
    assert grids.fingerprint_mismatches({"points": 4, "requests": 8}, {"points": 4}) == []
    assert grids.fingerprint_mismatches(
        {"points": 4, "lp.milp_solves": 1}, {"points": 5, "lp.milp_solves": 1}
    ) == ["points"]


# -- inputs and oracles ---------------------------------------------------------------


def test_seed_base_shifts_the_seed_axis():
    workload = grids.WORKLOADS["sweep-mixed"]
    size = workload.seeds_per_grid
    assert workload.seed_axis(0) == tuple(range(size))
    assert workload.seed_axis(3) == tuple(range(3 * size, 4 * size))
    assert workload.spec_kwargs(1)["seeds"] == list(range(size, 2 * size))


@pytest.mark.parametrize("name", sorted(grids.WORKLOADS))
def test_every_workload_follows_the_seed_base(name):
    workload = grids.WORKLOADS[name]
    assert set(workload.seed_axis(0)).isdisjoint(workload.seed_axis(1))


def test_min_faults_matches_a_textbook_trace():
    # Belady on 1 2 3 4 1 2 5 1 2 3 4 5 with 3 frames: 7 faults.
    trace = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
    assert grids.min_faults(trace, 3) == 7
    assert grids.min_faults(trace, 4) == 6
    assert grids.min_faults(trace, 3, initial=[1, 2, 3]) == 4
