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

Conservative has no tunable knobs — MIN's replacement sequence *is* the
algorithm — so its registry entry (``conservative``) declares an empty
parameter schema and any ``conservative:key=value`` spec is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .._typing import BlockId
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..paging.base import PagingResult, run_paging
from .base import PrefetchAlgorithm

__all__ = ["Conservative", "PlannedFetch", "min_plan"]


@dataclass(frozen=True)
class PlannedFetch:
    """One precomputed fetch: load ``block``, evict ``victim``, not before ``earliest_pos``."""

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
    plan: List[PlannedFetch] = []
    for miss_pos, block, victim in paging_result.evictions:
        earliest = 0
        if victim is not None:
            earliest = instance.sequence.previous_use_before(miss_pos, victim) + 1
        plan.append(
            PlannedFetch(block=block, victim=victim, earliest_pos=earliest, miss_pos=miss_pos)
        )
    return plan


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
