"""The Aggressive algorithm (Cao et al.), single-disk version.

Aggressive starts prefetch operations as early as possible:

    "Whenever the algorithm is not prefetching a block, it initiates a
     prefetch for the next missing block in the sequence provided it can
     evict a block from cache that is not requested before the block to be
     fetched.  In this case it evicts the block whose next reference is
     furthest in the future."

Theorem 1 of the paper shows its elapsed-time approximation ratio is at most
``min{1 + F/(k + ceil(k/F) - 1), 2}`` (improving the ``min{1 + F/k, 2}``
bound of Cao et al.), and Theorem 2 shows this is essentially tight.  The
closed forms live in :mod:`repro.core.bounds`; this module is the executable
algorithm whose measured ratios the E1/E2 experiments compare against those
bounds.

The paper's eviction rule leaves the choice among *equally* furthest blocks
open; the engine's native order breaks ties towards the largest block
string.  Any tie-break satisfies the Theorem 1 analysis.
"""

from __future__ import annotations

from typing import List

from ..disksim.executor import FetchDecision, PolicyView
from .base import PrefetchAlgorithm

__all__ = ["Aggressive"]


class Aggressive(PrefetchAlgorithm):
    """Start the next prefetch as soon as a safe victim exists (single disk)."""

    name = "aggressive"
    single_disk = True

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        if not view.is_idle(0):
            return []
        target = view.next_missing_position()
        if target is None:
            return []
        if view.free_slots > 0:
            # A free cache slot (cold start, or the extra-memory experiments):
            # fetching into it is always safe and never worse than evicting.
            return self.single_disk_decision(view.instance.sequence[target], None)
        victim = view.furthest_resident()
        if victim is None or not self.can_evict_for(view, target, victim):
            # Every cached block is requested before the next missing block;
            # Aggressive waits (serving requests) until that changes.
            return []
        return self.single_disk_decision(view.instance.sequence[target], victim)
