"""Demand fetching: the no-prefetching baseline.

The processor fetches a block only at the moment it is needed, always paying
the full fetch time ``F`` in stall (after a cold or capacity miss).  The
victim is chosen by Belady's MIN, so the baseline is "optimal caching, no
prefetching".  The integrated algorithms of the paper are motivated
precisely by how much of this stall can be hidden by overlapping fetches
with computation.
"""

from __future__ import annotations

from typing import List

from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..paging.belady import BeladyMIN
from .base import PrefetchAlgorithm

__all__ = ["DemandFetch"]


class DemandFetch(PrefetchAlgorithm):
    """Fetch a block only when the processor already needs it (MIN victims)."""

    name = "demand[MIN]"

    def __init__(self) -> None:
        super().__init__()
        self._policy = BeladyMIN()
        self._fed = 0
        self._miss_at = -1

    def on_reset(self, instance: ProblemInstance) -> None:
        self._policy.reset(instance.sequence, instance.cache_size)
        self._fed = 0
        self._miss_at = -1

    def _feed_accesses(self, view: PolicyView) -> None:
        """Report served positions to MIN's ``on_access`` hook.

        ``run_paging`` reports every access to the policy as it happens;
        here the engine owns the serve loop, so the positions the cursor has
        passed since the last decision are replayed as hits (their misses
        were reported when the fetch was issued in :meth:`decide`).  The
        cursor only advances by serving, and ``decide`` runs before every
        serve, so no position is skipped.
        """
        sequence = view.instance.sequence
        while self._fed < view.cursor:
            if self._fed != self._miss_at:
                self._policy.on_access(self._fed, sequence[self._fed], True)
            self._fed += 1

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        self._feed_accesses(view)
        cursor = view.cursor
        block = view.instance.sequence[cursor]
        if view.is_available(block) or view.is_in_flight(block):
            return []
        disk = view.instance.disk_of(block)
        if not view.is_idle(disk):
            return []
        if cursor != self._miss_at:
            # Mirror run_paging's order: the fault is reported before the
            # victim is chosen, exactly once per faulting position.
            self._policy.on_access(cursor, block, False)
            self._miss_at = cursor
        victim = None
        if view.free_slots == 0:
            victim = self._policy.choose_victim(cursor, set(view.resident), block)
        return [FetchDecision(disk=disk, block=block, victim=victim)]
