"""Opt-in event log and the loop engine's on-demand eviction heap.

Neither may change what a run does.  For every registry algorithm spec, on
single- and parallel-disk instances, a run without the event log must yield
the schedule and metrics of a run with it, and the log it records must be
the reference log below.  The loop engine builds its furthest-next-use heap
on the first query that needs it, seeded from the resident set at that
cursor; runs whose first query comes mid-run, with fetches in flight, are
checked against the scan engine, which has no heap.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from helpers import ANY_LAYOUT_SPECS, REGISTRY_SPECS
from repro.algorithms import ParallelAggressive, make_algorithm
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.disksim import DiskLayout, ProblemInstance, simulate, simulate_with_engine
from repro.disksim.executor import _EngineState

#: Prefix of the SHA-256 over the event logs each spec records on the
#: battery (:func:`_log_digest`): the reference every change to the loop
#: engine must keep reproducing.
REFERENCE_LOGS = {
    (False, "aggressive"): "e836f9915a799f89",
    (False, "combination"): "6c2bfa70e612126f",
    (False, "conservative"): "e9dd0c3f62f0e16a",
    (False, "delay:d=0"): "e836f9915a799f89",
    (False, "delay:d=3"): "00c190db59c8bb79",
    (False, "demand"): "e87f862d2ab8bae5",
    (False, "parallel-aggressive"): "e836f9915a799f89",
    (False, "parallel-conservative"): "e9dd0c3f62f0e16a",
    (True, "demand"): "623c094819821959",
    (True, "parallel-aggressive"): "cb229782b34cfc23",
    (True, "parallel-conservative"): "726bf7e62ffed1ce",
}

BATTERY_SIZE = 24


def _instance(seed, parallel):
    """A random instance drawn with the standard library only, so the
    reference digests do not depend on numpy's generator streams.

    Odd seeds skew requests towards low-numbered blocks; the warm cache may
    hold blocks the sequence never requests."""
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(rng.randint(4, 20))]
    weights = [1 / (rank + 1) for rank in range(len(names))] if seed % 2 else None
    requests = rng.choices(names, weights=weights, k=rng.randint(10, 70))
    cache_size = rng.randint(2, 9)
    pool = sorted(set(requests)) + ["w0", "w1"]
    warm = rng.sample(pool, rng.randint(0, min(cache_size, len(pool))))
    if not parallel:
        return ProblemInstance.single_disk(
            requests, cache_size=cache_size, fetch_time=rng.randint(1, 9), initial_cache=warm
        )
    return ProblemInstance.parallel_disk(
        requests,
        cache_size=cache_size,
        fetch_time=rng.randint(1, 9),
        layout=DiskLayout.striped(pool, rng.randint(2, 4)),
        initial_cache=warm,
    )


def _battery(parallel):
    offset = 200 if parallel else 0
    return [_instance(offset + seed, parallel) for seed in range(BATTERY_SIZE)]


def _log_digest(logs):
    digest = hashlib.sha256()
    for log in logs:
        for e in log:
            digest.update(
                repr((e.time, e.kind.value, e.block, e.disk, e.request_index, e.duration)).encode()
            )
    return digest.hexdigest()[:16]


def test_every_registry_algorithm_is_covered():
    names = {spec.split(":")[0] for spec in REGISTRY_SPECS}
    assert names == set(ALGORITHM_REGISTRY)
    assert set(REFERENCE_LOGS) == {(False, s) for s in REGISTRY_SPECS} | {
        (True, s) for s in ANY_LAYOUT_SPECS
    }


@pytest.mark.parametrize(
    "parallel, spec",
    [(False, s) for s in REGISTRY_SPECS] + [(True, s) for s in ANY_LAYOUT_SPECS],
)
def test_recording_changes_nothing_and_log_matches_reference(parallel, spec):
    logs = []
    for instance in _battery(parallel):
        plain = simulate(instance, make_algorithm(spec))
        recorded = simulate(instance, make_algorithm(spec), record_events=True)
        assert plain.events is None
        assert plain.schedule == recorded.schedule
        assert plain.metrics == recorded.metrics
        logs.append(recorded.events)
    assert _log_digest(logs) == REFERENCE_LOGS[(parallel, spec)]


def test_record_events_runs_auto_and_vector_on_the_loop_engine():
    instance = _instance(0, parallel=False)
    plain, plain_engine = simulate_with_engine(
        instance, make_algorithm("aggressive"), engine="auto"
    )
    for engine in ("auto", "vector"):
        result, ran = simulate_with_engine(
            instance, make_algorithm("aggressive"), engine=engine, record_events=True
        )
        assert ran == "loop" and result.engine_reason is not None
        assert result.events is not None and len(result.events) > 0
        assert (result.schedule, result.metrics) == (plain.schedule, plain.metrics)
    assert plain_engine == "vector" and plain.events is None


class _NoOpPolicy:
    """Never fetches: every miss becomes a forced demand fetch."""

    name = "noop"

    def reset(self, instance):
        pass

    def decide(self, view):
        return []


class _PrefetchesBesideAFetch(ParallelAggressive):
    """Parallel Aggressive that prefetches only while another fetch is in
    flight, so its first victim query comes mid-run with a fetch in flight."""

    def decide(self, view):
        return super().decide(view) if view.busy_disks else []


CUSTOM_POLICIES = {"noop": _NoOpPolicy, "beside-a-fetch": _PrefetchesBesideAFetch}


@pytest.fixture
def heap_builds(monkeypatch):
    """(cursor, fetches in flight) of each run's first eviction-heap build."""
    builds = []
    original = _EngineState.eviction_heap

    def recording(state):
        if state.evictions is None:
            builds.append((state.cursor, len(state.in_flight)))
        return original(state)

    monkeypatch.setattr(_EngineState, "eviction_heap", recording)
    return builds


@pytest.mark.parametrize(
    "parallel, spec",
    [
        (False, "aggressive"),
        (False, "delay:d=3"),
        (False, "noop"),
        (True, "parallel-aggressive"),
        (True, "parallel-conservative"),
        (True, "noop"),
        (True, "beside-a-fetch"),
    ],
)
def test_heap_seeded_mid_run_matches_scan_engine(heap_builds, parallel, spec):
    def policy():
        return CUSTOM_POLICIES[spec]() if spec in CUSTOM_POLICIES else make_algorithm(spec)

    for instance in _battery(parallel):
        loop = simulate(instance, policy(), engine="loop", record_events=True)
        scan = simulate(instance, policy(), engine="scan", record_events=True)
        assert loop.schedule == scan.schedule
        assert loop.metrics == scan.metrics
        assert list(loop.events) == list(scan.events)
    # The battery must reach the seeding path the test is about.
    assert any(cursor > 0 for cursor, _ in heap_builds)
    if spec == "beside-a-fetch":
        assert any(cursor > 0 and in_flight > 0 for cursor, in_flight in heap_builds)


def test_conservative_never_builds_the_heap(heap_builds):
    for instance in _battery(False):
        simulate(instance, make_algorithm("conservative"))
    assert heap_builds == []

