"""Synchronized schedules (Section 3, Lemma 3).

A parallel-disk schedule is *synchronized* when no two fetch operations
properly intersect (overlapping fetches start and end at exactly the same
times) and, in the strict sense of the paper, every fetch interval keeps all
``D`` disks busy.  Lemma 3 shows that restricting attention to synchronized
schedules costs nothing: for every request sequence there is a synchronized
schedule whose stall time is at most the unrestricted optimum
``s_OPT(sigma, k)``, provided ``D - 1`` extra cache locations are available.

This module provides the predicates the tests and the E7 experiment use to
verify that claim empirically: classification of schedules, counting of
proper intersections, and a convenience wrapper that obtains an optimal
synchronized schedule from the LP machinery and certifies the Lemma 3
inequality against the brute-force optimum on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..disksim.instance import ProblemInstance
from ..disksim.schedule import Schedule, TimedFetch

__all__ = [
    "proper_intersections",
    "is_synchronized",
    "is_fully_synchronized",
    "SynchronizedComparison",
    "compare_synchronized_to_optimal",
]


def proper_intersections(schedule: Schedule) -> List[Tuple[TimedFetch, TimedFetch]]:
    """All pairs of fetches that properly intersect (overlap without coinciding)."""
    pairs = []
    ops = schedule.fetches
    for a_idx in range(len(ops)):
        a = ops[a_idx]
        for b_idx in range(a_idx + 1, len(ops)):
            b = ops[b_idx]
            if b.start_time >= a.start_time + schedule.fetch_time:
                break
            if b.start_time != a.start_time:
                pairs.append((a, b))
    return pairs


def is_synchronized(schedule: Schedule) -> bool:
    """Whether no two fetches properly intersect."""
    return not proper_intersections(schedule)


def is_fully_synchronized(schedule: Schedule) -> bool:
    """Whether the schedule is synchronized *and* every interval uses all disks.

    This is the strict Section 3 notion; the LP's relaxed mode produces
    schedules that are synchronized but may leave disks idle in an interval
    (they correspond to strict schedules whose padding fetches were dropped).
    """
    if not is_synchronized(schedule):
        return False
    by_start = {}
    for op in schedule.fetches:
        by_start.setdefault(op.start_time, set()).add(op.disk)
    return all(len(disks) == schedule.num_disks for disks in by_start.values())


@dataclass(frozen=True)
class SynchronizedComparison:
    """Lemma 3 check: optimal synchronized stall vs the unrestricted optimum."""

    synchronized_stall: int
    unrestricted_optimal_stall: int
    extra_cache_used: int
    num_disks: int

    @property
    def lemma3_holds(self) -> bool:
        """Synchronized stall is at most the unrestricted optimum, with <= D-1 extra."""
        return (
            self.synchronized_stall <= self.unrestricted_optimal_stall
            and self.extra_cache_used <= self.num_disks - 1
        )


def compare_synchronized_to_optimal(
    instance: ProblemInstance, *, max_states: int = 2_000_000
) -> SynchronizedComparison:
    """Certify Lemma 3 on a small instance.

    The optimal synchronized schedule is computed with the Section 3 LP
    (``k + D - 1`` locations); the unrestricted optimum with exactly ``k``
    locations comes from the brute-force oracle, so this is only usable on
    tiny instances.
    """
    from ..analysis.optimal import brute_force_optimal_stall
    from ..lp.parallel import optimal_parallel_schedule

    optimum = optimal_parallel_schedule(instance)
    brute = brute_force_optimal_stall(instance, max_states=max_states)
    return SynchronizedComparison(
        synchronized_stall=optimum.stall_time,
        unrestricted_optimal_stall=brute.stall_time,
        extra_cache_used=optimum.extra_cache_used,
        num_disks=instance.num_disks,
    )
