"""Event log produced by the simulator and schedule executor.

The event log is a flat, time-ordered record of everything that happened
during a run: requests served, stall periods, fetch starts/completions and
evictions.  It exists for three reasons: the text Gantt chart and timeline in
:mod:`repro.viz` and the phase breakdown in :mod:`repro.core.phases` consume
it, tests use it to assert fine-grained behaviour (e.g. *"the fetch for b5
started exactly when r3 was served"*), and it makes simulator bugs visible
without a debugger.

Recording is opt-in: ``simulate(..., record_events=True)`` attaches a log to
the result, every other run leaves ``SimulationResult.events`` as ``None``
and skips the per-event allocation (sweeps read only metrics and
schedules).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .._typing import BlockId, DiskId

__all__ = ["EventKind", "Event", "EventLog"]


class EventKind(str, enum.Enum):
    """Kinds of events recorded during a simulation."""

    SERVE = "serve"
    STALL = "stall"
    FETCH_START = "fetch_start"
    FETCH_COMPLETE = "fetch_complete"
    EVICT = "evict"


@dataclass(frozen=True)
class Event:
    """A single timestamped event.

    Attributes
    ----------
    time:
        Clock time at which the event occurs (for ``STALL`` events, the time
        the stall period starts).
    kind:
        One of :class:`EventKind`.
    block:
        The block involved (served, fetched, evicted); ``None`` for pure
        stall events.
    disk:
        The disk involved for fetch events; ``None`` otherwise.
    request_index:
        The 0-based request position being served or waited for, when
        applicable.
    duration:
        Length of the event in time units (1 for serves, the stall length for
        stalls, 0 for instantaneous events).
    """

    time: int
    kind: EventKind
    block: Optional[BlockId] = None
    disk: Optional[DiskId] = None
    request_index: Optional[int] = None
    duration: int = 0


class EventLog:
    """Append-only, time-ordered collection of :class:`Event` objects."""

    __slots__ = ("_events",)

    def __init__(self, events: Tuple[Event, ...] | List[Event] = ()) -> None:
        self._events: List[Event] = list(events)

    def record(self, event: Event) -> None:
        """Append an event (events must be appended in non-decreasing time order)."""
        self._events.append(event)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def of_kind(self, kind: EventKind) -> Tuple[Event, ...]:
        """All events of the given kind, in time order."""
        return tuple(e for e in self._events if e.kind == kind)

    def total_stall(self) -> int:
        """Sum of stall durations recorded in the log."""
        return sum(e.duration for e in self._events if e.kind == EventKind.STALL)

    def fetch_starts(self) -> Tuple[Event, ...]:
        """All fetch-start events."""
        return self.of_kind(EventKind.FETCH_START)

    def serves(self) -> Tuple[Event, ...]:
        """All serve events."""
        return self.of_kind(EventKind.SERVE)

    def last_time(self) -> int:
        """Time of the final event plus its duration (0 for an empty log)."""
        if not self._events:
            return 0
        last = self._events[-1]
        return last.time + max(last.duration, 0)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"EventLog({len(self._events)} events)"
