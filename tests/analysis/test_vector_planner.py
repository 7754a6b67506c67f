"""Tests for the shape-bucketing planner and the runner's vector path."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_spec, random_instance
from repro.algorithms import make_algorithm
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.analysis.backends import adaptive_chunk_size
from repro.analysis.runner import (
    MAX_VECTOR_BATCH,
    MIN_VECTOR_BATCH,
    ExperimentSpec,
    _plan_execution_units,
    point_cache_key,
    run_experiments,
)
from repro.disksim import simulate_with_engine


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="planner-t",
        workloads=("zipf:n=30,blocks=8",),
        cache_sizes=(4,),
        fetch_times=(3,),
        algorithms=("aggressive",),
        seeds=tuple(range(10)),
        engine="auto",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _pending(spec):
    points = spec.points()
    return [(position, point, point_cache_key(point)) for position, point in enumerate(points)]


# -- partition properties ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    workloads=st.lists(
        st.sampled_from(
            ["zipf:n=30,blocks=8", "zipf:n=24,blocks=6", "uniform:n=30,blocks=8"]
        ),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    cache_sizes=st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=2, unique=True),
    algorithms=st.lists(
        st.sampled_from(["aggressive", "delay:d=2", "combination", "conservative", "demand"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    num_seeds=st.integers(min_value=1, max_value=12),
    engine=st.sampled_from(["auto", "loop"]),
    workers=st.integers(min_value=1, max_value=4),
)
def test_every_pending_point_lands_in_exactly_one_unit(
    workloads, cache_sizes, algorithms, num_seeds, engine, workers
):
    """Property: the planner partitions the grid — no point dropped, none duplicated."""
    spec = _spec(
        workloads=tuple(workloads),
        cache_sizes=tuple(cache_sizes),
        algorithms=tuple(algorithms),
        seeds=tuple(range(num_seeds)),
        engine=engine,
    )
    pending = _pending(spec)
    units = _plan_execution_units(pending, workers)
    flattened = [item for _kind, items in units for item in items]
    assert sorted(position for position, _p, _k in flattened) == list(range(len(pending)))
    assert {id(item) for item in flattened} == {id(item) for item in pending}
    run_positions = [p for kind, items in units if kind == "sim" for p, _point, _k in items]
    run_size = adaptive_chunk_size(len(run_positions), workers)
    # Runs cut the non-batched points, in grid order, into consecutive slices.
    assert run_positions == sorted(run_positions)
    for kind, items in units:
        if kind == "sim":
            assert 1 <= len(items) <= run_size
        else:
            assert MIN_VECTOR_BATCH <= len(items) <= MAX_VECTOR_BATCH
            # A stacked unit holds one shape bucket, in grid order.
            assert [p for p, _point, _k in items] == sorted(p for p, _point, _k in items)
    if engine == "loop":
        assert all(kind == "sim" for kind, _items in units)


def test_small_buckets_demote_to_runs():
    spec = _spec(seeds=tuple(range(MIN_VECTOR_BATCH - 1)))
    units = _plan_execution_units(_pending(spec), 1)
    assert all(kind == "sim" for kind, _items in units)
    assert sum(len(items) for _kind, items in units) == MIN_VECTOR_BATCH - 1
    spec = _spec(seeds=tuple(range(MIN_VECTOR_BATCH)))
    units = _plan_execution_units(_pending(spec), 1)
    assert [kind for kind, _items in units] == ["simbatch"]


def test_runs_are_sized_from_the_point_count_and_the_workers():
    """160 loop points on 2 workers: 8 runs of 20 consecutive points."""
    spec = _spec(
        workloads=("markov:n=60,blocks=20",), engine="auto", seeds=tuple(range(20)),
        disks=(2, 4), layouts=("striped", "partitioned"),
        algorithms=("parallel-aggressive", "parallel-conservative"),
    )
    units = _plan_execution_units(_pending(spec), 2)
    assert [kind for kind, _items in units] == ["sim"] * 8
    assert [[p for p, _point, _k in items] for _kind, items in units] == [
        list(range(start, start + 20)) for start in range(0, 160, 20)
    ]


def test_oversized_buckets_chunk_at_the_batch_ceiling():
    spec = _spec(seeds=tuple(range(MAX_VECTOR_BATCH + 5)))
    units = _plan_execution_units(_pending(spec), 1)
    assert [kind for kind, _items in units] == ["simbatch", "simbatch"]
    assert [len(items) for _kind, items in units] == [MAX_VECTOR_BATCH, 5]


def test_ineligible_points_join_runs():
    """Uncovered families and parallel-disk points never enter a bucket."""
    spec = _spec(algorithms=("aggressive", "conservative"), seeds=tuple(range(8)))
    units = _plan_execution_units(_pending(spec), 1)
    kinds = {}
    for kind, items in units:
        for _position, point, _key in items:
            kinds.setdefault(point.algorithm, set()).add(kind)
    assert kinds["aggressive"] == {"simbatch"}
    assert kinds["conservative"] == {"sim"}


@pytest.mark.parametrize("family", sorted(ALGORITHM_REGISTRY))
def test_prescreen_buckets_exactly_the_families_the_kernel_plans(family):
    """The runner stacks a single-disk family into a kernel batch exactly when
    the vector planner has a plan for it."""
    spec = family_spec(family)
    units = _plan_execution_units(_pending(_spec(algorithms=(spec,))), 1)
    _result, engine = simulate_with_engine(random_instance(0), make_algorithm(spec), engine="auto")
    planned = engine == "vector"
    assert {kind for kind, _items in units} == ({"simbatch"} if planned else {"sim"})


# -- runner equivalence ------------------------------------------------------------


def _normalized(result_set):
    """Record dumps with the engine provenance normalized away."""
    out = []
    for record in result_set.records:
        payload = record.to_json_dict()
        payload["engine"] = "<engine>"
        out.append(json.dumps(payload, sort_keys=True))
    return out


def test_run_experiments_vector_matches_loop_modulo_engine():
    """Batched grid output == serial loop grid output, in the same order."""
    grid = dict(
        workloads=("zipf:n=40,blocks=10",),
        algorithms=("aggressive", "delay:d=3", "conservative"),
        seeds=tuple(range(9)),
    )
    loop = run_experiments(_spec(engine="loop", **grid))
    vector = run_experiments(_spec(engine="auto", **grid))
    assert _normalized(vector) == _normalized(loop)
    by_algorithm = {}
    for record in vector.records:
        by_algorithm.setdefault(record.algorithm_spec, set()).add(record.engine)
    assert by_algorithm["aggressive"] == {"vector"}
    assert by_algorithm["delay:d=3"] == {"vector"}
    assert by_algorithm["conservative"] == {"replay"}  # per point, MIN's plan replayed


def test_auto_prefers_the_vector_engine():
    results = run_experiments(_spec(engine="auto", seeds=tuple(range(MIN_VECTOR_BATCH))))
    assert {record.engine for record in results.records} == {"vector"}
