"""Text Gantt charts of prefetching/caching runs.

Rendering uses plain ASCII so it works in any terminal and in test output;
there is no plotting dependency.  The chart has one row for the processor
(serving/stalling) and one row per disk (fetch operations), with one column
per time unit.

Example (the paper's single-disk example under Aggressive)::

    t        0         1
             0123456789012
    cpu      ssssss...ssss
    disk0    .ffffffff....

``s`` = serving a request, ``.`` = idle, ``f`` = fetching, ``x`` = stall.
"""

from __future__ import annotations

from typing import Dict, List

from ..disksim.events import EventKind
from ..disksim.executor import SimulationResult

__all__ = ["render_gantt"]


def render_gantt(result: SimulationResult, *, max_width: int = 200) -> str:
    """Render a simulated run as an ASCII Gantt chart.

    Runs longer than ``max_width`` time units are truncated on the right (a
    marker shows how many units were cut).  The run must have recorded its
    event log (``simulate(..., record_events=True)``).
    """
    events = result.event_log("render_gantt")
    horizon = result.elapsed_time
    truncated = 0
    if horizon > max_width:
        truncated = horizon - max_width
        horizon = max_width

    cpu_row = ["."] * horizon
    disk_rows: Dict[int, List[str]] = {
        d: ["."] * horizon for d in range(result.instance.num_disks)
    }

    for event in events:
        if event.kind == EventKind.SERVE:
            if event.time < horizon:
                cpu_row[event.time] = "s"
        elif event.kind == EventKind.STALL:
            for t in range(event.time, min(event.time + event.duration, horizon)):
                cpu_row[t] = "x"
        elif event.kind == EventKind.FETCH_START and event.disk is not None:
            for t in range(event.time, min(event.time + result.instance.fetch_time, horizon)):
                disk_rows[event.disk][t] = "f"

    # Time ruler: tens line and units line.
    tens = "".join(str((t // 10) % 10) if t % 10 == 0 else " " for t in range(horizon))
    units = "".join(str(t % 10) for t in range(horizon))

    label_width = max(len(f"disk{d}") for d in disk_rows) if disk_rows else 5
    label_width = max(label_width, len("cpu"), len("t"))
    lines = [
        f"{'t'.ljust(label_width)}  {tens}",
        f"{''.ljust(label_width)}  {units}",
        f"{'cpu'.ljust(label_width)}  {''.join(cpu_row)}",
    ]
    for disk in sorted(disk_rows):
        lines.append(f"{f'disk{disk}'.ljust(label_width)}  {''.join(disk_rows[disk])}")
    if truncated:
        lines.append(f"... ({truncated} further time units not shown)")
    legend = "legend: s=serve  x=stall  f=fetch  .=idle"
    lines.append(legend)
    return "\n".join(lines)
