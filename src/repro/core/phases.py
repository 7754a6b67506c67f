"""Phase partitions used in the Theorem 1 analysis (and its E9 ablation).

The refined analysis of Aggressive partitions the request sequence into
phases of exactly ``k + ceil(k/F) - 1`` consecutive requests (Cao et al. used
phases of ``k`` requests, which is what yields the weaker ``1 + F/k`` bound).
The induction shows Aggressive loses at most ``F`` time units per phase
relative to the optimum, giving the ratio ``1 + F/(phase length)``.

This module computes phase boundaries for either convention and measures the
per-phase elapsed time of a simulated run from its event log, so the E9
ablation can show the per-phase overhead is indeed bounded by ``F`` and that
the longer phases of the refined analysis are what tighten the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..disksim.events import EventKind
from ..disksim.executor import SimulationResult
from ..errors import ConfigurationError

__all__ = ["phase_length", "phase_boundaries", "PhaseBreakdown", "phase_breakdown"]


def phase_length(cache_size: int, fetch_time: int, *, refined: bool = True) -> int:
    """Phase length: ``k + ceil(k/F) - 1`` (refined, Theorem 1) or ``k`` (Cao et al.)."""
    if cache_size < 1 or fetch_time < 1:
        raise ConfigurationError("cache_size and fetch_time must be positive")
    if not refined:
        return cache_size
    return cache_size + math.ceil(cache_size / fetch_time) - 1


def phase_boundaries(
    num_requests: int, cache_size: int, fetch_time: int, *, refined: bool = True
) -> List[Tuple[int, int]]:
    """Half-open request ranges ``[lo, hi)`` of the phases covering the sequence."""
    if num_requests < 0:
        raise ConfigurationError("num_requests must be non-negative")
    length = phase_length(cache_size, fetch_time, refined=refined)
    boundaries = []
    lo = 0
    while lo < num_requests:
        hi = min(lo + length, num_requests)
        boundaries.append((lo, hi))
        lo = hi
    return boundaries


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-phase elapsed-time decomposition of one simulated run."""

    boundaries: Tuple[Tuple[int, int], ...]
    elapsed_per_phase: Tuple[int, ...]
    stall_per_phase: Tuple[int, ...]

    @property
    def num_phases(self) -> int:
        """Number of phases covering the run."""
        return len(self.boundaries)

    def max_stall(self) -> int:
        """Largest per-phase stall (Theorem 1 predicts at most ``F`` on average)."""
        return max(self.stall_per_phase) if self.stall_per_phase else 0

    def average_stall(self) -> float:
        """Mean per-phase stall."""
        if not self.stall_per_phase:
            return 0.0
        return sum(self.stall_per_phase) / len(self.stall_per_phase)


def phase_breakdown(
    result: SimulationResult, *, refined: bool = True
) -> PhaseBreakdown:
    """Split a run's elapsed time across the Theorem 1 phases.

    Stall events are attributed to the phase of the request the processor was
    waiting for; serve events to the phase of the request served.  The run
    must have recorded its event log (``simulate(..., record_events=True)``);
    :class:`~repro.errors.ConfigurationError` otherwise.
    """
    events = result.event_log("phase_breakdown")
    instance = result.instance
    boundaries = phase_boundaries(
        instance.num_requests,
        instance.cache_size,
        instance.fetch_time,
        refined=refined,
    )

    def phase_of(position: int) -> int:
        for idx, (lo, hi) in enumerate(boundaries):
            if lo <= position < hi:
                return idx
        return len(boundaries) - 1

    elapsed = [0] * len(boundaries)
    stall = [0] * len(boundaries)
    for event in events:
        if event.kind == EventKind.SERVE and event.request_index is not None:
            elapsed[phase_of(event.request_index)] += 1
        elif event.kind == EventKind.STALL and event.request_index is not None:
            idx = phase_of(event.request_index)
            elapsed[idx] += event.duration
            stall[idx] += event.duration
    return PhaseBreakdown(
        boundaries=tuple(boundaries),
        elapsed_per_phase=tuple(elapsed),
        stall_per_phase=tuple(stall),
    )
