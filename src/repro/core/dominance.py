"""Cursor/hole/state dominance — the machinery behind the Theorem 1 analysis.

Cao et al. (and the paper's refined analysis) compare two prefetching
algorithms through *dominance*: algorithm A's state dominates B's when A's
cursor is at least as far and each of A's "holes" (the first references to
the blocks missing from A's cache) occurs no earlier than B's corresponding
hole.  The key Lemma 1 states that dominance is preserved by a prefetch step
when both algorithms fetch their next missing block and evict the
furthest-in-future resident block.

These functions let tests and the E9 ablation *check* dominance empirically:
they compute hole profiles from simulator states and verify, e.g., that
Aggressive's state dominates the state of any other algorithm at phase
boundaries — the structural fact on which the Theorem 1 proof rests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .._typing import INFINITY, BlockId
from ..disksim.instance import ProblemInstance
from ..disksim.sequence import RequestSequence

__all__ = ["AlgorithmState", "hole_positions", "state_of", "dominates"]


@dataclass(frozen=True)
class AlgorithmState:
    """Cursor position plus hole profile of an algorithm at some instant."""

    cursor: int
    holes: Tuple[int, ...]

    def hole(self, j: int) -> int:
        """The ``j``-th hole (1-based); ``INFINITY`` when fewer holes exist."""
        if j < 1:
            raise ValueError("hole index is 1-based")
        return self.holes[j - 1] if j <= len(self.holes) else INFINITY


def hole_positions(
    sequence: RequestSequence, cursor: int, resident: Iterable[BlockId]
) -> Tuple[int, ...]:
    """Positions of the first references to the blocks missing from ``resident``.

    ``hole_positions(...)[j-1]`` is the paper's ``h(i, j)``: the position of
    the first reference (at or after ``cursor``) to the ``j``-th distinct
    missing block.  Blocks in flight are *not* considered present — the
    definition is purely about cache contents, so callers decide whether to
    include in-flight blocks in ``resident``.
    """
    resident_set = frozenset(resident)
    holes = []
    seen_missing = set()
    for position in range(cursor, len(sequence)):
        block = sequence[position]
        if block in resident_set or block in seen_missing:
            continue
        seen_missing.add(block)
        holes.append(position)
    return tuple(holes)


def state_of(
    instance: ProblemInstance, cursor: int, resident: Iterable[BlockId]
) -> AlgorithmState:
    """Bundle a cursor and cache contents into an :class:`AlgorithmState`."""
    return AlgorithmState(
        cursor=cursor, holes=hole_positions(instance.sequence, cursor, resident)
    )


def dominates(state_a: AlgorithmState, state_b: AlgorithmState) -> bool:
    """Whether ``state_a`` dominates ``state_b`` (cursor and every hole).

    Following the paper: A's cursor must be at least B's, and for every ``j``
    the position of A's ``j``-th hole must be at least the position of B's
    ``j``-th hole.  An algorithm with *fewer* holes is treated as having its
    missing holes at infinity, which can only help it.
    """
    if state_a.cursor < state_b.cursor:
        return False
    max_holes = max(len(state_a.holes), len(state_b.holes))
    for j in range(1, max_holes + 1):
        if state_a.hole(j) < state_b.hole(j):
            return False
    return True
