"""Schedule representations.

Two complementary views of a prefetching/caching schedule are used throughout
the library:

* :class:`TimedFetch` / :class:`Schedule` — fetches anchored to the global
  integer clock.  This is what the simulator produces while driving an
  algorithm, and what the executor validates.

* :class:`IntervalFetch` / :class:`IntervalSchedule` — fetches anchored to
  request positions, matching the fetch-interval formulation of the paper's
  Section 3 linear program: an interval ``(i, j)`` (paper notation, 1-based)
  represents a fetch that starts after request ``r_i`` has been served and
  completes before ``r_j`` is served, incurring ``F - (j - i - 1)`` units of
  stall at its end.  Internally the library stores the 0-based equivalent:
  ``start_pos = i`` requests have been served when the fetch starts.

``IntervalSchedule.to_schedule`` converts position-anchored fetches to clock
times by replaying the request sequence, so that the single executor can
validate either representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .._typing import BlockId, DiskId
from ..errors import InvalidScheduleError

__all__ = ["TimedFetch", "Schedule", "IntervalFetch", "IntervalSchedule"]


@dataclass(frozen=True)
class TimedFetch:
    """A single fetch operation anchored to the global clock.

    Attributes
    ----------
    start_time:
        Integer time at which the fetch begins.  The victim becomes
        unavailable at this time.
    disk:
        Disk performing the fetch.
    block:
        Block being loaded into cache; usable for requests starting at
        ``start_time + F``.
    victim:
        Block evicted to make room, or ``None`` when a free cache slot is
        used (relevant for the extra-memory schedules of Section 3).
    """

    start_time: int
    disk: DiskId
    block: BlockId
    victim: Optional[BlockId] = None

    def finish_time(self, fetch_time: int) -> int:
        """Completion time of the fetch given the fetch duration ``F``."""
        return self.start_time + fetch_time


@dataclass(frozen=True)
class Schedule:
    """A complete prefetching/caching schedule anchored to the clock.

    The schedule records *decisions* only; stall and elapsed time are derived
    by :func:`repro.disksim.executor.execute_schedule`, which re-simulates the
    request sequence under these decisions and checks feasibility.  Fetches
    are kept sorted by ``(start_time, disk)``; equality compares every
    fetch's block and victim too.
    """

    fetch_time: int
    num_disks: int
    fetches: Tuple[TimedFetch, ...]
    initial_cache: FrozenSet[BlockId] = frozenset()

    def __post_init__(self) -> None:
        # Block ids of mixed types cannot be ordered, so sort by time and disk only.
        ordered = sorted(self.fetches, key=lambda op: (op.start_time, op.disk))
        object.__setattr__(self, "fetches", tuple(ordered))
        self._check_disk_overlap()

    def _check_disk_overlap(self) -> None:
        by_disk: Dict[DiskId, List[TimedFetch]] = {}
        for op in self.fetches:
            if not 0 <= op.disk < self.num_disks:
                raise InvalidScheduleError(
                    f"fetch {op} uses disk {op.disk}, schedule has {self.num_disks} disks"
                )
            by_disk.setdefault(op.disk, []).append(op)
        for disk, ops in by_disk.items():
            for prev, cur in zip(ops, ops[1:]):
                if cur.start_time < prev.start_time + self.fetch_time:
                    raise InvalidScheduleError(
                        f"disk {disk}: fetch at t={cur.start_time} overlaps fetch at "
                        f"t={prev.start_time} (F={self.fetch_time})"
                    )

    # -- queries ------------------------------------------------------------------

    @property
    def num_fetches(self) -> int:
        """Total number of fetch operations."""
        return len(self.fetches)

    def fetches_starting_at(self, time: int) -> Tuple[TimedFetch, ...]:
        """Fetch operations initiated exactly at ``time``."""
        return tuple(op for op in self.fetches if op.start_time == time)

    def blocks_fetched(self) -> FrozenSet[BlockId]:
        """Distinct blocks fetched at least once."""
        return frozenset(op.block for op in self.fetches)

    def extra_cache_used(self, base_capacity: int) -> int:
        """Peak number of cache slots used beyond ``base_capacity``.

        Computed from the fetch/eviction structure alone: each fetch with a
        ``None`` victim grows the occupancy by one; explicit victims keep it
        constant.  The executor reports the exact peak occupancy; this method
        is a quick structural upper bound used in tests.
        """
        occupancy = len(self.initial_cache)
        peak = occupancy
        for op in self.fetches:
            if op.victim is None:
                occupancy += 1
                peak = max(peak, occupancy)
        return max(0, peak - base_capacity)


@dataclass(frozen=True)
class IntervalFetch:
    """A fetch anchored to request positions (LP fetch-interval semantics).

    Attributes
    ----------
    start_pos:
        Number of requests already served when the fetch starts (0-based; the
        paper's interval start index ``i``).
    end_pos:
        The paper's interval end index ``j``: the fetch must complete before
        the ``j``-th request (1-based) is served, i.e. before 0-based request
        ``j - 1``.  ``end_pos - start_pos - 1`` requests overlap the fetch, so
        ``F - (end_pos - start_pos - 1)`` stall units are charged at its end.
    disk, block, victim:
        As in :class:`TimedFetch`.
    """

    start_pos: int
    end_pos: int
    disk: DiskId
    block: BlockId
    victim: Optional[BlockId] = None

    def __post_init__(self) -> None:
        if self.end_pos <= self.start_pos:
            raise InvalidScheduleError(
                f"interval fetch has end_pos {self.end_pos} <= start_pos {self.start_pos}"
            )

    @property
    def length(self) -> int:
        """Number of requests served during the fetch (the paper's ``|I|``)."""
        return self.end_pos - self.start_pos - 1

    def charged_stall(self, fetch_time: int) -> int:
        """Stall charged at the end of the interval: ``max(0, F - |I|)``."""
        return max(0, fetch_time - self.length)


@dataclass(frozen=True)
class IntervalSchedule:
    """A schedule expressed as position-anchored fetch intervals."""

    fetch_time: int
    num_disks: int
    num_requests: int
    fetches: Tuple[IntervalFetch, ...]
    initial_cache: FrozenSet[BlockId] = frozenset()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.fetches, key=lambda f: (f.start_pos, f.end_pos, f.disk)))
        object.__setattr__(self, "fetches", ordered)
        for op in ordered:
            if not 0 <= op.disk < self.num_disks:
                raise InvalidScheduleError(
                    f"interval fetch {op} uses disk {op.disk}, schedule has {self.num_disks} disks"
                )
            if op.start_pos < 0 or op.end_pos > self.num_requests:
                raise InvalidScheduleError(
                    f"interval fetch {op} outside request range [0, {self.num_requests}]"
                )

    @property
    def num_fetches(self) -> int:
        """Total number of fetch operations."""
        return len(self.fetches)

    def fetches_starting_at(self, position: int) -> Tuple[IntervalFetch, ...]:
        """Interval fetches whose start position equals ``position``."""
        return tuple(op for op in self.fetches if op.start_pos == position)

    def charged_stall(self) -> int:
        """Total stall charged by the LP objective over all *distinct* intervals.

        In a synchronized schedule the ``D`` fetches sharing an interval incur
        the interval's stall once, not ``D`` times, so the charge is summed per
        distinct ``(start_pos, end_pos)`` pair.
        """
        intervals = {(op.start_pos, op.end_pos) for op in self.fetches}
        return sum(max(0, self.fetch_time - (j - i - 1)) for i, j in intervals)

    def start_positions(self) -> Tuple[int, ...]:
        """Sorted distinct start positions of all intervals."""
        return tuple(sorted({op.start_pos for op in self.fetches}))
