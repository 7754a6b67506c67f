"""The Delay(d) family of algorithms — the paper's new single-disk strategies.

Quoting Section 2 of the paper:

    "Algorithm Delay(d).  Let r_i be the next request to be served and r_j,
     j >= i, the next reference where the requested block is missing in
     cache.  If all blocks in cache are requested before r_j, serve r_i
     without initiating a fetch.  Otherwise let d' = min{d, j - i} and let b
     be the block whose next request is furthest in the future after request
     r_{i+d'-1}.  Initiate a fetch for r_j at the earliest point in time
     after r_{i-1} such that the evicted block b is not requested again
     before r_j."

``Delay(0)`` is exactly the Aggressive strategy, so :class:`Aggressive` is
defined here as ``Delay(0)``; ``Delay(n)`` (with ``n`` the sequence length) is
the Conservative strategy.  Theorem 3 bounds the
approximation ratio of Delay(d) by
``max{(d+F)/F, (d+2F)/(d+F), 3(d+F)/(d+2F)}``, and Corollary 1 shows the best
choice ``d0 = ceil((sqrt(3)-1) F / 2)`` drives the ratio to sqrt(3) ≈ 1.73 —
better than both classical algorithms for F substantially smaller than k.

Implementation notes
--------------------
The algorithm is evaluated afresh at every decision point: with the cursor at
position ``i`` (0-based) it determines the next missing position ``j``, the
victim ``b`` (the resident block whose next use measured from position
``min(i + d, j)`` is furthest), and issues the fetch as soon as ``b`` has no
remaining reference before ``j`` — which is precisely "the earliest point in
time such that the evicted block is not requested again before r_j".  While
such a reference remains, the algorithm simply keeps serving requests, which
realises the delay.  When the victim is judged at the cursor (always so for
``d = 0``, i.e. Aggressive) that wait is the decline itself, so it is not
checked twice.

The registry spec form is ``delay:d=<int>``; ``d`` is required because the
paper's family is parametrised by definition — ``repro algorithms delay``
shows the schema.
"""

from __future__ import annotations

from typing import List

from ..disksim.executor import FetchDecision, PolicyView
from .base import PrefetchAlgorithm

__all__ = ["Aggressive", "Delay"]


class Delay(PrefetchAlgorithm):
    """Delay the victim decision by up to ``d`` requests before fetching.

    Parameters
    ----------
    d:
        Non-negative delay parameter.  ``d = 0`` reproduces Aggressive;
        ``d >= n`` reproduces Conservative's behaviour on every sequence of
        length ``n``.
    """

    single_disk = True

    def __init__(self, d: int) -> None:
        super().__init__()
        if d < 0:
            raise ValueError(f"Delay parameter d must be non-negative, got {d}")
        self.d = d
        self.name = f"delay({d})"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        if not view.is_idle(0):
            return []
        target = view.next_missing_position()
        if target is None:
            return []
        sequence = view.instance.sequence
        if view.free_slots > 0:
            return self.single_disk_decision(sequence[target], None)

        cursor = view.cursor
        # d' = min{d, j - i}; the victim is judged from position i + d' (the
        # reference point "after request r_{i+d'-1}" in 1-based paper terms).
        effective_delay = min(self.d, target - cursor)
        judge_from = cursor + effective_delay
        victim = view.furthest_resident(from_position=judge_from)
        if victim is None:
            return []
        if view.next_use(victim, from_position=judge_from) <= target:
            # Every cached block is requested (at or after the judging point)
            # before the missing block: serve without initiating a fetch.
            return []
        if judge_from > cursor and view.next_use(victim) <= target:
            # The chosen victim still has a reference between the cursor and
            # the miss: wait (keep serving) until that reference has been
            # served, i.e. start the fetch at the earliest consistent time.
            return []
        return self.single_disk_decision(sequence[target], victim)


class Aggressive(Delay):
    """The Aggressive algorithm (Cao et al.), single-disk version: ``Delay(0)``.

    Aggressive starts prefetch operations as early as possible:

        "Whenever the algorithm is not prefetching a block, it initiates a
         prefetch for the next missing block in the sequence provided it can
         evict a block from cache that is not requested before the block to be
         fetched.  In this case it evicts the block whose next reference is
         furthest in the future."

    That is Delay's rule with the victim judged at the cursor.  Theorem 1 of
    the paper shows its elapsed-time approximation ratio is at most
    ``min{1 + F/(k + ceil(k/F) - 1), 2}`` (improving the ``min{1 + F/k, 2}``
    bound of Cao et al.), and Theorem 2 shows this is essentially tight.  The
    closed forms live in :mod:`repro.core.bounds`; the E1/E2 experiments
    compare this class's measured ratios against them.  The paper leaves the
    choice among equally furthest blocks open; the engine's native order takes
    the largest block string, and any tie-break satisfies Theorem 1's analysis.
    """

    def __init__(self) -> None:
        super().__init__(0)
        self.name = "aggressive"
