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
open; the engine's native order (and the historical behaviour of this
reproduction) breaks ties towards the largest block string.  The
``tiebreak`` knob (``aggressive:tiebreak=low`` in spec form) flips that
direction, opening a cheap sensitivity axis for the experiments without
changing the proven bounds — any tie-break satisfies the Theorem 1 analysis.
"""

from __future__ import annotations

from typing import FrozenSet, List

from ..disksim.executor import FetchDecision, PolicyView
from .base import PrefetchAlgorithm

__all__ = ["Aggressive", "TIEBREAKS"]

#: Valid victim tie-break directions: ``high`` (largest block string among
#: the equally furthest, the engine's native order) or ``low`` (smallest).
TIEBREAKS: FrozenSet[str] = frozenset({"high", "low"})


class Aggressive(PrefetchAlgorithm):
    """Start the next prefetch as soon as a safe victim exists (single disk)."""

    name = "aggressive"
    single_disk = True

    def __init__(self, tiebreak: str = "high") -> None:
        super().__init__()
        self.tiebreak = self.validate_choice(tiebreak, TIEBREAKS, "tiebreak")
        if self.tiebreak != "high":
            self.name = f"aggressive[tiebreak={self.tiebreak}]"

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
        victim = self.tie_broken_victim(view, self.tiebreak)
        if victim is None or not self.can_evict_for(view, target, victim):
            # Every cached block is requested before the next missing block;
            # Aggressive waits (serving requests) until that changes.
            return []
        return self.single_disk_decision(view.instance.sequence[target], victim)
