"""Demand fetching: the no-prefetching baseline.

The processor fetches a block only at the moment it is needed, always paying
the full fetch time ``F`` in stall (after a cold or capacity miss).  The
victim is chosen by a pluggable classical eviction policy (MIN by default, so
the baseline is "optimal caching, no prefetching").  The integrated
algorithms of the paper are motivated precisely by how much of this stall can
be hidden by overlapping fetches with computation.

The eviction backend is spec-addressable: :data:`EVICTION_BACKENDS` maps
``min | lru | fifo`` to the :mod:`repro.paging` policies, so
``demand:evict=lru`` runs the *online* baseline (LRU caching, no
prefetching) next to the offline-optimal one — the comparison Cao et al.
originally motivated the integrated model with.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..paging.base import EvictionPolicy
from ..paging.belady import BeladyMIN
from ..paging.fifo import FIFO
from ..paging.lru import LRU
from .base import PrefetchAlgorithm

__all__ = ["DemandFetch", "EVICTION_BACKENDS", "make_eviction_policy"]

#: Spec-addressable eviction backends for ``demand:evict=...``.
EVICTION_BACKENDS: Dict[str, Callable[[], EvictionPolicy]] = {
    "min": BeladyMIN,
    "lru": LRU,
    "fifo": FIFO,
}


def make_eviction_policy(evict: str) -> EvictionPolicy:
    """Instantiate the eviction backend registered under ``evict``."""
    name = str(evict).strip().lower()
    if name not in EVICTION_BACKENDS:
        raise ValueError(
            f"evict must be one of {', '.join(sorted(EVICTION_BACKENDS))}, got {evict!r}"
        )
    return EVICTION_BACKENDS[name]()


class DemandFetch(PrefetchAlgorithm):
    """Fetch a block only when the processor already needs it.

    Parameters
    ----------
    eviction_policy:
        Classical eviction policy consulted on each miss; defaults to Belady's
        MIN so the baseline isolates the effect of (not) prefetching.
    evict:
        Alternative to ``eviction_policy``: the name of a registered backend
        (``min``/``lru``/``fifo``), the form the algorithm registry uses.
    """

    def __init__(
        self,
        eviction_policy: Optional[EvictionPolicy] = None,
        *,
        evict: Optional[str] = None,
    ) -> None:
        super().__init__()
        if eviction_policy is not None and evict is not None:
            raise ValueError("pass either eviction_policy or evict, not both")
        if evict is not None:
            eviction_policy = make_eviction_policy(evict)
        self._policy = eviction_policy or BeladyMIN()
        self.name = f"demand[{self._policy.name}]"
        self._fed = 0
        self._miss_at = -1

    def on_reset(self, instance: ProblemInstance) -> None:
        self._policy.reset(instance.sequence, instance.cache_size)
        self._fed = 0
        self._miss_at = -1

    def _feed_accesses(self, view: PolicyView) -> None:
        """Report served positions to the policy's ``on_access`` hook.

        ``run_paging`` drives stateful policies (LRU, FIFO) access by access;
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
