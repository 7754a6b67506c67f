"""Indexed engine vs the scan reference: byte-identical results.

The indexed engine (``engine="loop"``, the default) must be a pure
performance transformation of the seed's scan engine: on every instance and
policy the :class:`Schedule` (every fetch, start time, disk, victim) and the
:class:`SimMetrics` must match exactly.  These tests sweep well over 200
deterministic randomized instances — single- and parallel-disk — across all
policy families, plus a hypothesis property for free-form sequences.
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
)

SINGLE_DISK_FACTORIES = (
    lambda seed: Aggressive(),
    lambda seed: Conservative(),
    lambda seed: Delay(seed % 11),
    lambda seed: Combination(),
    lambda seed: DemandFetch(),
)

PARALLEL_FACTORIES = (
    lambda seed: ParallelAggressive(),
    lambda seed: ParallelConservative(),
    lambda seed: DemandFetch(),
)


def _assert_equivalent(instance, policy_factory, seed):
    scan = simulate(instance, policy_factory(seed), engine="scan")
    indexed = simulate(instance, policy_factory(seed), engine="loop")
    assert indexed.schedule == scan.schedule, f"schedules diverge (seed {seed})"
    assert indexed.metrics == scan.metrics, f"metrics diverge (seed {seed})"


@pytest.mark.parametrize("seed", range(150))
def test_single_disk_equivalence(seed):
    """150 single-disk instances, two policy families each (rotating)."""
    instance = random_instance(seed)
    _assert_equivalent(instance, SINGLE_DISK_FACTORIES[seed % 5], seed)
    _assert_equivalent(instance, SINGLE_DISK_FACTORIES[(seed + 2) % 5], seed)


@pytest.mark.parametrize("seed", range(150, 225))
def test_parallel_disk_equivalence(seed):
    """75 parallel-disk instances, two policy families each (rotating)."""
    instance = random_instance(seed, parallel=True)
    _assert_equivalent(instance, PARALLEL_FACTORIES[seed % 3], seed)
    _assert_equivalent(instance, PARALLEL_FACTORIES[(seed + 1) % 3], seed)


class _PastJudgingPolicy:
    """Calls furthest_resident with a from_position *behind* the cursor.

    No shipped policy does this, but the PolicyView contract places no
    precondition on from_position, so both engines must agree on it too.
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
    for policy_factory in (lambda s: Aggressive(), lambda s: Delay(delay), lambda s: DemandFetch()):
        _assert_equivalent(instance, policy_factory, delay)
