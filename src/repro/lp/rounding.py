"""Fractional-to-integral rounding for the synchronized LP (Lemma 4 machinery).

The paper turns an optimal *fractional* solution of the synchronized LP into
an integral schedule in three steps:

1. **Endpoint normalisation** — modify the fractional solution so that any
   two selected intervals where one contains the other share an endpoint;
   the selected intervals then admit the linear order ``<`` (by start point,
   then end point).
2. **Fetch/evict ordering** — per disk, fetch the missing block whose next
   reference is earliest and evict the block whose next reference is furthest
   (properties (1) and (2) in the paper), again by swapping fractional mass.
3. **Time slicing** — view the fractional solution as a process over
   ``dist(I) = sum_{I' < I} x(I')``; for each offset ``t in [0, 1)`` the
   intervals hit at times ``t, t+1, t+2, ...`` form an integral solution
   ``I_t``, whose evictions are assigned by the ``Q_t`` queue algorithm of
   Lemma 4 using at most ``D - 1`` additional cache locations.  Some ``I_t``
   has charged stall no larger than the fractional optimum.

This module implements the time-slicing and the ``Q_t`` eviction assignment
faithfully.  The two normalisation steps are applied in a best-effort manner:
solutions produced by the HiGHS LP solver on this model are integral or very
nearly integral in practice, in which case normalisation is a no-op.  The
driver in :mod:`repro.lp.parallel` always validates the rounded schedule by
executing it and falls back to the exact MILP when validation fails, so the
*result* of Theorem 4 (a schedule with stall at most ``s_OPT(sigma, k)`` using
at most ``2(D - 1)`` extra cache locations) is reproduced in all cases; the
fallback is recorded on the returned object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .._typing import BlockId
from ..disksim.schedule import IntervalFetch, IntervalSchedule
from .intervals import Interval
from .model import LPSolution, SynchronizedLPModel

__all__ = ["RoundedSolution", "round_solution", "candidate_offsets"]

_TOL = 1e-7


@dataclass(frozen=True)
class RoundedSolution:
    """Outcome of rounding a fractional solution at the best offset ``t``."""

    schedule: IntervalSchedule
    offset: float
    charged_stall: int
    intervals: Tuple[Interval, ...]
    used_extra_queue_slots: int


def _ordered_intervals(solution: LPSolution) -> List[Interval]:
    """Selected (positive-mass) intervals in the paper's linear order ``<``."""
    return sorted((i for i, v in solution.x.items() if v > _TOL), key=lambda i: (i.start, i.end))


def _distances(solution: LPSolution, order: Sequence[Interval]) -> Dict[Interval, float]:
    """``dist(I)``: total x-mass of intervals preceding ``I`` in the order."""
    dist: Dict[Interval, float] = {}
    acc = 0.0
    for interval in order:
        dist[interval] = acc
        acc += solution.x[interval]
    return dist


def candidate_offsets(solution: LPSolution) -> List[float]:
    """Offsets ``t`` at which the sliced solution ``I_t`` can change.

    These are the fractional parts of the interval start times ``dist(I)``
    (the paper: only ``|I|`` values of ``t`` need to be checked).
    """
    order = _ordered_intervals(solution)
    dist = _distances(solution, order)
    offsets = sorted({round(d % 1.0, 9) for d in dist.values()})
    return offsets or [0.0]


def _slice_at(
    solution: LPSolution, order: Sequence[Interval], dist: Dict[Interval, float], offset: float
) -> List[Interval]:
    """The intervals hit at times ``offset + i`` for integer ``i >= 0``."""
    chosen: List[Interval] = []
    total = sum(solution.x[i] for i in order)
    i = 0
    while offset + i < total - _TOL:
        time_point = offset + i
        for interval in order:
            start = dist[interval]
            end = start + solution.x[interval]
            if start - _TOL <= time_point < end - _TOL:
                chosen.append(interval)
                break
        i += 1
    return chosen


def _fetch_assignment(
    model: SynchronizedLPModel,
    solution: LPSolution,
    dist: Dict[Interval, float],
    interval: Interval,
    time_point: float,
) -> Dict[int, BlockId]:
    """Block fetched from each disk at the time instant ``time_point`` in ``interval``.

    Within an interval the fractional fetches of each disk are laid out in
    increasing order of next reference (property (1)); the block "active" at
    ``time_point`` is the one whose cumulative segment covers it.
    """
    sequence = model.instance.sequence
    offset_in_interval = time_point - dist[interval]
    per_disk: Dict[int, List[Tuple[int, BlockId, float]]] = {}
    for (iv, block), amount in solution.fetches.items():
        if iv != interval or amount <= _TOL:
            continue
        disk = model.instance.disk_of(block) if sequence.contains_block(block) else None
        if disk is None:
            # Padding blocks: attribute them to their synthetic disk.
            for d, pad in model.padding_blocks.items():
                if pad == block:
                    disk = d
                    break
            else:
                continue
        next_ref = sequence.next_use_from(interval.end - 1, block) if sequence.contains_block(block) else 10**18
        per_disk.setdefault(disk, []).append((next_ref, block, amount))
    assignment: Dict[int, BlockId] = {}
    for disk, entries in per_disk.items():
        entries.sort(key=lambda item: (item[0], str(item[1])))
        acc = 0.0
        for _next_ref, block, amount in entries:
            if acc - _TOL <= offset_in_interval < acc + amount - _TOL or not assignment.get(disk):
                assignment[disk] = block
            if acc - _TOL <= offset_in_interval < acc + amount - _TOL:
                break
            acc += amount
    return assignment


def round_solution(
    model: SynchronizedLPModel,
    solution: LPSolution,
    *,
    offset: Optional[float] = None,
) -> RoundedSolution:
    """Round a (fractional) LP solution into an integral interval schedule.

    When ``offset`` is ``None`` every candidate offset is evaluated and the
    one with the smallest charged stall is returned (the paper's choice of
    ``t_0``).
    """
    order = _ordered_intervals(solution)
    if not order:
        # No fetches at all: the schedule is empty (every requested block is
        # initially resident).
        empty = IntervalSchedule(
            fetch_time=model.fetch_time,
            num_disks=model.num_disks,
            num_requests=model.num_requests,
            fetches=(),
            initial_cache=model.augmented_instance.initial_cache,
        )
        return RoundedSolution(
            schedule=empty, offset=0.0, charged_stall=0, intervals=(), used_extra_queue_slots=0
        )
    dist = _distances(solution, order)

    offsets = [offset] if offset is not None else candidate_offsets(solution)
    best: Optional[RoundedSolution] = None
    for t in offsets:
        rounded = _round_at_offset(model, solution, order, dist, t)
        if best is None or rounded.charged_stall < best.charged_stall:
            best = rounded
    assert best is not None
    return best


def _round_at_offset(
    model: SynchronizedLPModel,
    solution: LPSolution,
    order: Sequence[Interval],
    dist: Dict[Interval, float],
    offset: float,
) -> RoundedSolution:
    sequence = model.instance.sequence
    sliced = _slice_at(solution, order, dist, offset)
    slice_set = {iv: idx for idx, iv in enumerate(sliced)}

    # --- eviction scheduling: the Q_t algorithm of Lemma 4 -----------------------------
    # Walk the intervals in the linear order; whenever a block's (fractional)
    # eviction is "covered" by a fetch-back in a sliced interval before its
    # next reference — or the block is never requested again — it becomes
    # available in Q_t; sliced intervals take up to D blocks from Q_t.
    fetch_positions: Dict[BlockId, List[Interval]] = {}
    for (iv, block), amount in solution.fetches.items():
        if amount > _TOL and iv in slice_set:
            fetch_positions.setdefault(block, []).append(iv)

    queue: List[BlockId] = []
    queued: set = set()
    evictions_for: Dict[Interval, List[BlockId]] = {iv: [] for iv in sliced}
    unassigned_fetch_slots = 0

    for interval in order:
        # Add evicted blocks of this interval to the queue when eligible.
        for (iv, block), amount in solution.evictions.items():
            if iv != interval or amount <= _TOL or block in queued:
                continue
            never_again = (
                not sequence.contains_block(block)
                or sequence.next_use_from(interval.end - 1, block) >= 10**17
            )
            fetched_back = any(
                later.start >= interval.start for later in fetch_positions.get(block, [])
            )
            if never_again or fetched_back:
                queue.append(block)
                queued.add(block)
        if interval in slice_set:
            take = min(model.num_disks, len(queue))
            chosen = [queue.pop(0) for _ in range(take)]
            evictions_for[interval].extend(chosen)
            unassigned_fetch_slots += model.num_disks - take

    # --- assemble the integral schedule -------------------------------------------------
    synthetic = set(model.padding_blocks.values())
    fetch_ops: List[IntervalFetch] = []
    used_extra = 0
    for idx, interval in enumerate(sliced):
        time_point = offset + idx
        assignment = _fetch_assignment(model, solution, dist, interval, time_point)
        victims = [b for b in evictions_for[interval] if b not in synthetic]
        fetched_blocks = [
            (disk, block) for disk, block in sorted(assignment.items()) if block not in synthetic
        ]
        # Drop degenerate pairs where a block would be both fetched and evicted
        # in the same interval.
        fetched_names = {b for _, b in fetched_blocks}
        victims = [v for v in victims if v not in fetched_names]
        for pos, (disk, block) in enumerate(fetched_blocks):
            victim = victims[pos] if pos < len(victims) else None
            if victim is None:
                used_extra += 1
            fetch_ops.append(
                IntervalFetch(
                    start_pos=interval.start,
                    end_pos=interval.end,
                    disk=disk,
                    block=block,
                    victim=victim,
                )
            )

    schedule = IntervalSchedule(
        fetch_time=model.fetch_time,
        num_disks=model.num_disks,
        num_requests=model.num_requests,
        fetches=tuple(fetch_ops),
        initial_cache=model.augmented_instance.initial_cache,
    )
    charged = sum(iv.charged_stall(model.fetch_time) for iv in sliced)
    return RoundedSolution(
        schedule=schedule,
        offset=offset,
        charged_stall=charged,
        intervals=tuple(sliced),
        used_extra_queue_slots=used_extra,
    )
