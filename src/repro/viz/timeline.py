"""Human-readable event timelines and cache-occupancy traces.

Complements the Gantt chart with a line-per-event narrative (useful when
debugging a policy's decisions) and a per-time-step cache occupancy count
(used by the Section 3 experiments to show peak extra-memory usage).
"""

from __future__ import annotations

from typing import List, Tuple

from ..disksim.events import EventKind
from ..disksim.executor import SimulationResult

__all__ = ["render_timeline", "cache_occupancy_trace"]


def render_timeline(result: SimulationResult, *, limit: int | None = None) -> str:
    """One line per event: time, kind, block/disk/request involved.

    The run must have recorded its event log (``record_events=True``).
    """
    log = result.event_log("render_timeline")
    lines: List[str] = [
        f"run of {result.policy_name!r} on {result.instance.describe()}",
        f"stall={result.stall_time} elapsed={result.elapsed_time} "
        f"fetches={result.metrics.num_fetches}",
    ]
    events = list(log)
    if limit is not None:
        events = events[:limit]
    for event in events:
        if event.kind == EventKind.SERVE:
            lines.append(f"  t={event.time:<4d} serve   r{event.request_index} = {event.block}")
        elif event.kind == EventKind.STALL:
            lines.append(
                f"  t={event.time:<4d} stall   {event.duration} unit(s) waiting for {event.block}"
            )
        elif event.kind == EventKind.FETCH_START:
            lines.append(f"  t={event.time:<4d} fetch   {event.block} on disk {event.disk}")
        elif event.kind == EventKind.FETCH_COMPLETE:
            lines.append(f"  t={event.time:<4d} arrive  {event.block} from disk {event.disk}")
        elif event.kind == EventKind.EVICT:
            lines.append(f"  t={event.time:<4d} evict   {event.block} (for disk {event.disk})")
    if limit is not None and len(log) > limit:
        lines.append(f"  ... ({len(log) - limit} more events)")
    return "\n".join(lines)


def cache_occupancy_trace(result: SimulationResult) -> List[Tuple[int, int]]:
    """``(time, occupied slots)`` after every fetch start/completion event.

    Occupancy counts resident plus in-flight blocks, i.e. reserved cache
    slots; the maximum over the trace equals
    ``result.metrics.peak_cache_used``.  The run must have recorded its
    event log (``record_events=True``).
    """
    events = result.event_log("cache_occupancy_trace")
    occupancy = len(result.instance.initial_cache)
    trace: List[Tuple[int, int]] = [(0, occupancy)]
    for event in events:
        if event.kind == EventKind.EVICT:
            occupancy -= 1
            trace.append((event.time, occupancy))
        elif event.kind == EventKind.FETCH_START:
            occupancy += 1
            trace.append((event.time, occupancy))
    return trace
