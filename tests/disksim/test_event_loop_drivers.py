"""Policy runs and schedule replays share one event loop.

:func:`~repro.disksim.simulate` drives the event loop with the policy driver
and :func:`~repro.disksim.execute_schedule` drives the same loop with the
replay driver, so replaying the schedule of a policy run must reproduce that
run exactly: every fetch (start time, disk, block, victim) and every metric,
forced demand fetches included.  The scan reference engine must record the
loop engine's event log (the engine-equivalence suite compares schedules and
metrics only).  Both checks sweep the engine-equivalence suite's randomized
instance battery.  Every run also resets its policy first, so a policy
object reused across instances plans exactly as a fresh one.
"""

from __future__ import annotations

import pytest

from helpers import ANY_LAYOUT_SPECS, REGISTRY_SPECS, random_instance
from repro.algorithms import make_algorithm
from repro.disksim import execute_schedule, simulate, simulate_with_engine

SINGLE_DISK_SPECS = (
    "aggressive",
    "conservative",
    "delay:d=3",
    "combination",
    "demand",
)

PARALLEL_SPECS = (
    "parallel-aggressive",
    "parallel-conservative",
    "demand",
)


def _assert_replay_reproduces_run(instance, spec):
    run = simulate(instance, make_algorithm(spec))
    for engine in ("loop", "scan"):
        replay = execute_schedule(instance, run.schedule, engine=engine)
        assert replay.schedule == run.schedule, engine
        assert replay.metrics == run.metrics, engine


def _assert_scan_records_the_loop_log(instance, spec):
    loop = simulate(instance, make_algorithm(spec), record_events=True)
    scan = simulate(instance, make_algorithm(spec), engine="scan", record_events=True)
    assert scan.schedule == loop.schedule
    assert scan.metrics == loop.metrics
    assert list(scan.events) == list(loop.events)


@pytest.mark.parametrize("seed", range(28))
def test_single_disk_replay_reproduces_run(seed):
    """Single-disk battery, rotating policy specs."""
    spec = SINGLE_DISK_SPECS[seed % len(SINGLE_DISK_SPECS)]
    _assert_replay_reproduces_run(random_instance(seed), spec)


@pytest.mark.parametrize("seed", range(28))
def test_single_disk_scan_records_the_loop_log(seed):
    spec = SINGLE_DISK_SPECS[(seed + 3) % len(SINGLE_DISK_SPECS)]
    _assert_scan_records_the_loop_log(random_instance(seed), spec)


@pytest.mark.parametrize("seed", range(150, 166))
def test_parallel_disk_replay_and_log(seed):
    instance = random_instance(seed, parallel=True)
    spec = PARALLEL_SPECS[seed % len(PARALLEL_SPECS)]
    _assert_replay_reproduces_run(instance, spec)
    _assert_scan_records_the_loop_log(instance, spec)


@pytest.mark.parametrize(
    "parallel, spec",
    [(False, s) for s in REGISTRY_SPECS] + [(True, s) for s in ANY_LAYOUT_SPECS],
)
def test_reused_policy_plans_like_a_fresh_one(parallel, spec):
    """One policy object runs the whole battery on every engine; each run
    must equal a run of a freshly built policy."""
    offset = 150 if parallel else 0
    policy = make_algorithm(spec)
    for seed in range(offset, offset + 6):
        instance = random_instance(seed, parallel=parallel)
        for engine in ("loop", "scan", "auto"):
            reused, reused_engine = simulate_with_engine(instance, policy, engine=engine)
            fresh, fresh_engine = simulate_with_engine(
                instance, make_algorithm(spec), engine=engine
            )
            assert reused_engine == fresh_engine
            assert reused.schedule == fresh.schedule, (seed, engine)
            assert reused.metrics == fresh.metrics, (seed, engine)


@pytest.mark.parametrize("record_events", [False, True])
@pytest.mark.parametrize("engine", ["loop", "scan", "auto"])
def test_event_log_only_on_request(engine, record_events):
    """The log is attached exactly when asked for and changes nothing else;
    asking for it runs ``auto`` on the loop engine."""
    instance = random_instance(3)
    plain = simulate(instance, make_algorithm("aggressive"))
    result, ran = simulate_with_engine(
        instance, make_algorithm("aggressive"), engine=engine, record_events=record_events
    )
    if engine != "auto":
        assert ran == engine
    elif record_events:
        assert ran == "loop"
    else:
        assert ran == "vector"
    assert (result.events is not None) == record_events
    assert result.schedule == plain.schedule
    assert result.metrics == plain.metrics
