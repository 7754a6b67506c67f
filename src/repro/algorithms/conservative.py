"""The Conservative algorithm (Cao et al.), single-disk version.

Conservative performs exactly the block replacements of the optimal offline
paging algorithm MIN (Belady) — so it never makes the cache contents worse
than pure optimal caching — while initiating each fetch *at the earliest
point in time that is consistent with the chosen victim*, i.e. immediately
after the victim's last reference preceding the fetched block's miss.  Cao et
al. proved its elapsed-time approximation ratio is exactly 2; the paper uses
it as the other end of the spectrum that the Delay(d) family spans.

Implementation
--------------
The replacements are precomputed by replaying MIN over the sequence
(:func:`repro.paging.run_paging`, one pass over the engine's
furthest-next-use heap).  Each MIN fault yields a planned fetch
``(block, victim, earliest start position)`` (:func:`min_plan`, which
ParallelConservative shares); fetches are issued in fault order whenever the
disk is idle and the cursor has reached the earliest start position.

On one disk that schedule needs no event loop: :func:`replay` derives it,
and every metric, from the plan by a recurrence over the faults.
``simulate_with_engine`` runs it for ``engine="vector"``/``"auto"`` requests
(reported as engine ``"replay"``); :class:`Conservative` on the event loop
stays the reference it is tested against.

Conservative has no tunable knobs — MIN's replacement sequence *is* the
algorithm — so its registry entry (``conservative``) declares an empty
parameter schema and any ``conservative:key=value`` spec is rejected.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from .._typing import BlockId
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..disksim.metrics import SimMetrics
from ..disksim.schedule import Schedule, TimedFetch
from ..paging.base import PagingResult, run_paging
from .base import PrefetchAlgorithm

__all__ = ["Conservative", "PlannedFetch", "min_plan", "replay"]


class PlannedFetch(NamedTuple):
    """One precomputed fetch: load ``block``, evict ``victim``, not before ``earliest_pos``.

    A named tuple, as a plan holds one per MIN fault and is built per run.
    """

    block: BlockId
    victim: Optional[BlockId]
    earliest_pos: int
    miss_pos: int


def min_plan(instance: ProblemInstance, paging_result: PagingResult) -> List[PlannedFetch]:
    """MIN's faults on ``instance`` as fetches, each with its earliest start.

    ``paging_result`` is MIN's :func:`run_paging` result over the instance's
    sequence.  A cold-start fault into a free slot may start immediately;
    otherwise the victim must stay in cache until its last reference before
    the miss, and the fetch may start once that reference is served.  The
    plan is in fault (= sequence) order.
    """
    previous_use_before = instance.sequence.previous_use_before
    return [
        PlannedFetch(
            block,
            victim,
            0 if victim is None else previous_use_before(miss_pos, victim) + 1,
            miss_pos,
        )
        for miss_pos, block, victim in paging_result.evictions
    ]


def replay(instance: ProblemInstance) -> Tuple[SimMetrics, Schedule]:
    """Conservative's metrics and schedule on a one-disk ``instance``, from MIN's plan.

    The event loop runs :class:`Conservative` request by request; on one
    disk its whole run follows from :func:`min_plan` instead.  Let ``A(p)``
    be ``p`` plus the stall charged at the faults before position ``p``
    (the time the processor reaches request ``p``).  Fetch ``j`` of the
    plan, with earliest start ``e_j`` and miss position ``q_j``, starts at
    ``s_j = max(c_{j-1}, A(e_j))`` and completes at ``c_j = s_j + F``
    (``c_{-1} = 0``); fault ``q_j`` stalls ``max(0, c_j - A(q_j))``.  A
    request is a miss exactly when it stalls, and fetch ``j`` is a demand
    fetch when ``A(q_j) <= s_j`` (the processor already waits at ``q_j``).
    Only victimless fetches take a new slot, so peak use is the warm set
    plus their number.

    No guard is needed on one disk, because fetches start in fault order:
    fetch ``j`` starts no earlier than every earlier fetch has completed,
    so its victim, resident in MIN's cache at ``q_j``, has arrived, and its
    block, evicted by an earlier fault or never cached, has left.  So
    :meth:`Conservative.decide`'s defensive branches never fire, every fetch
    is issued before its miss is served, and the engine's forced demand
    fetch never fires either.  The engine battery checks the result against
    the event loop, schedule and metrics.
    """
    result = run_paging(
        instance.sequence, instance.cache_size, initial_cache=instance.initial_cache
    )
    plan = min_plan(instance, result)
    fetch_time = instance.fetch_time
    miss_positions = [planned.miss_pos for planned in plan]
    stall_before = [0]  # stall_before[j]: the stall charged at the first j faults
    fetches: List[TimedFetch] = []
    completion = misses = demand = victimless = 0
    for j, (block, victim, earliest, miss) in enumerate(plan):
        start = earliest + stall_before[bisect_left(miss_positions, earliest, 0, j)]
        if start < completion:
            start = completion
        completion = start + fetch_time
        arrival = miss + stall_before[j]
        stall = completion - arrival
        if stall > 0:
            misses += 1
        else:
            stall = 0
        if arrival <= start:
            demand += 1
        if victim is None:
            victimless += 1
        stall_before.append(stall_before[j] + stall)
        fetches.append(TimedFetch(start, 0, block, victim))
    n = instance.num_requests
    metrics = SimMetrics(
        num_requests=n,
        stall_time=stall_before[-1],
        num_fetches=len(fetches),
        num_demand_fetches=demand,
        cache_hits=n - misses,
        cache_misses=misses,
        peak_cache_used=len(instance.initial_cache) + victimless,
        fetches_per_disk={0: len(fetches)} if fetches else {},
    )
    schedule = Schedule(
        fetch_time=fetch_time,
        num_disks=1,
        fetches=tuple(fetches),
        initial_cache=instance.initial_cache,
    )
    return metrics, schedule


class Conservative(PrefetchAlgorithm):
    """MIN's replacements, each fetch started as early as the victim choice allows."""

    name = "conservative"
    single_disk = True

    def __init__(self) -> None:
        super().__init__()
        self._plan: List[PlannedFetch] = []
        self._next_plan_index = 0

    def on_reset(self, instance: ProblemInstance) -> None:
        result = run_paging(
            instance.sequence, instance.cache_size, initial_cache=instance.initial_cache
        )
        self._plan = min_plan(instance, result)
        self._next_plan_index = 0

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        if not view.is_idle(0):
            return []
        if self._next_plan_index >= len(self._plan):
            return []
        planned = self._plan[self._next_plan_index]
        if view.cursor < planned.earliest_pos:
            return []
        # The planned block might already be resident (e.g. warm start quirks);
        # skip such entries defensively.
        if view.is_available(planned.block) or view.is_in_flight(planned.block):
            self._next_plan_index += 1
            return self.decide(view)
        self._next_plan_index += 1
        victim = planned.victim
        if victim is not None and victim not in view.resident:
            # The victim was already evicted by a forced demand fetch; fall back
            # to the furthest-next-use resident block to keep the run feasible.
            victim = view.furthest_resident()
        if victim is None and view.free_slots == 0:
            victim = view.furthest_resident()
        return self.single_disk_decision(planned.block, victim)
