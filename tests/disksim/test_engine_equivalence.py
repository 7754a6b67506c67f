"""One oracle for the engines: scan == loop == vector == replay, byte for byte.

The indexed engine (``engine="loop"``, the default) must be a pure
performance transformation of the seed's scan engine, and whatever an
``engine="vector"`` request runs one of the loop engine: on every instance
and policy the :class:`Schedule` (every fetch, start time, disk, victim) and
the :class:`SimMetrics` must match exactly.  Every case runs all three
requests.  The kernel runs the single-disk Delay family (Aggressive,
Delay(d), Combination); one-disk Conservative, in either of its two classes,
runs as a replay of MIN's plan; everything else — DemandFetch and every
parallel-disk instance — must *fall back* to the loop engine, naming why.
These tests sweep 225 deterministic randomized instances — single- and
parallel-disk — with two policy families each, one case per instance and
family, run ``ParallelConservative`` on every single-disk one besides, and
add a hypothesis property for free-form sequences.
``test_vector_equivalence.py`` keeps the kernel's own API cases (batches,
Combination's branches, tie order, run records).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from repro.algorithms import (
    Aggressive,
    Combination,
    Conservative,
    Delay,
    DemandFetch,
    ParallelAggressive,
    ParallelConservative,
)
from repro.disksim import (
    FetchDecision,
    ProblemInstance,
    RequestSequence,
    execute_schedule,
    simulate,
    simulate_with_engine,
)

# (family, policy factory, engine the vector request must report).
SINGLE_DISK_FAMILIES = (
    ("aggressive", lambda seed: Aggressive(), "vector"),
    ("conservative", lambda seed: Conservative(), "replay"),
    ("delay", lambda seed: Delay(seed % 11), "vector"),
    ("combination", lambda seed: Combination(), "vector"),
    ("demand", lambda seed: DemandFetch(), "loop"),
)

# Conservative's rule on one disk; it runs on every single-disk seed beside
# the rotation, so each rotating family keeps its 60 seeds.
ONE_DISK_PARALLEL_CONSERVATIVE = (
    "parallel-conservative", lambda seed: ParallelConservative(), "replay"
)

# (family, policy factory); the kernel claims no parallel-disk instance.
PARALLEL_FAMILIES = (
    ("parallel-aggressive", lambda seed: ParallelAggressive()),
    ("parallel-conservative", lambda seed: ParallelConservative()),
    ("demand", lambda seed: DemandFetch()),
)


def _rotation(seeds, families, offsets):
    """One case per (seed, family): seed ``s`` draws the families at
    ``(s + offset) % len(families)`` for each offset."""
    cases = []
    for seed in seeds:
        for offset in offsets:
            family = families[(seed + offset) % len(families)]
            cases.append(pytest.param(seed, family, id=f"{seed}-{family[0]}"))
    return cases


def _assert_equivalent(instance, policy_factory, seed):
    """Run the scan and loop engines and a vector request; return the engine
    and reason the vector request reported."""
    scan = simulate(instance, policy_factory(seed), engine="scan")
    indexed = simulate(instance, policy_factory(seed), engine="loop")
    assert indexed.schedule == scan.schedule, f"schedules diverge (seed {seed})"
    assert indexed.metrics == scan.metrics, f"metrics diverge (seed {seed})"
    vector, engine = simulate_with_engine(instance, policy_factory(seed), engine="vector")
    assert vector.schedule == indexed.schedule, f"schedules diverge (seed {seed}, engine {engine})"
    assert vector.metrics == indexed.metrics, f"metrics diverge (seed {seed}, engine {engine})"
    return engine, vector.engine_reason


@pytest.mark.parametrize(
    "seed, family",
    _rotation(range(150), SINGLE_DISK_FAMILIES, (0, 2))
    + _rotation(range(150), (ONE_DISK_PARALLEL_CONSERVATIVE,), (0,)),
)
def test_single_disk_equivalence(seed, family):
    """150 single-disk instances, two policy families each (rotating), and
    ParallelConservative on every one."""
    _name, factory, expected_engine = family
    engine, _reason = _assert_equivalent(random_instance(seed), factory, seed)
    assert engine == expected_engine


@pytest.mark.parametrize("seed, family", _rotation(range(150, 225), PARALLEL_FAMILIES, (0, 1)))
def test_parallel_disk_equivalence(seed, family):
    """75 parallel-disk instances, two policy families each (rotating); the
    kernel never claims them and says so."""
    _name, factory = family
    engine, reason = _assert_equivalent(random_instance(seed, parallel=True), factory, seed)
    assert (engine, reason) == ("loop", "parallel-disk instance")


class _PastJudgingPolicy:
    """Calls furthest_resident with a from_position *behind* the cursor.

    No shipped policy does this, but the PolicyView contract places no
    precondition on from_position, so the engines must agree on it too.
    """

    name = "past-judging"

    def reset(self, instance):
        pass

    def decide(self, view):
        if not view.is_idle(0):
            return []
        target = view.next_missing_position()
        if target is None or view.free_slots > 0:
            return []
        victim = view.furthest_resident(from_position=max(0, view.cursor - 2))
        if victim is None or view.next_use(victim) <= target:
            return []
        return [FetchDecision(disk=0, block=view.instance.sequence[target], victim=victim)]


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_past_from_position_equivalence(seed):
    instance = random_instance(seed)
    _assert_equivalent(instance, lambda s: _PastJudgingPolicy(), seed)


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_replay_equivalence(seed):
    """Replaying an indexed schedule through both engines matches too."""
    instance = random_instance(seed)
    result = simulate(instance, Aggressive())
    replay_scan = execute_schedule(instance, result.schedule, engine="scan")
    replay_indexed = execute_schedule(instance, result.schedule, engine="loop")
    assert replay_indexed.schedule == replay_scan.schedule
    assert replay_indexed.metrics == replay_scan.metrics
    assert replay_indexed.metrics.stall_time == result.metrics.stall_time


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=40),
    cache_size=st.integers(min_value=2, max_value=6),
    fetch_time=st.integers(min_value=1, max_value=7),
    delay=st.integers(min_value=0, max_value=9),
)
def test_property_equivalence_on_arbitrary_sequences(blocks, cache_size, fetch_time, delay):
    instance = ProblemInstance.single_disk(
        RequestSequence(blocks), cache_size=cache_size, fetch_time=fetch_time
    )
    for policy_factory, expected_engine in (
        (lambda s: Aggressive(), "vector"),
        (lambda s: Delay(delay), "vector"),
        (lambda s: Combination(), "vector"),
        (lambda s: Conservative(), "replay"),
        (lambda s: ParallelConservative(), "replay"),
        (lambda s: DemandFetch(), "loop"),
    ):
        engine, _reason = _assert_equivalent(instance, policy_factory, delay)
        assert engine == expected_engine
