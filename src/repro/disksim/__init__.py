"""Single- and parallel-disk prefetching/caching simulator (the model substrate).

This subpackage implements the Cao–Felten–Karlin–Li model used by the paper:
request sequences, cache state with fetch reservations, disk layouts, schedule
representations, the simulation engine and the schedule validator, plus the
metrics every experiment consumes and the opt-in event log the charts read.
"""

from .cache import CacheState
from .disk import DiskLayout
from .events import Event, EventKind, EventLog
from .executor import (
    FetchDecision,
    PolicyView,
    PrefetchPolicy,
    SimulationResult,
    canonical_engine,
    execute_interval_schedule,
    execute_schedule,
    simulate,
    simulate_with_engine,
)
from .index import EvictionHeap, MissTracker
from .instance import ProblemInstance
from .metrics import SimMetrics
from .schedule import IntervalFetch, IntervalSchedule, Schedule, TimedFetch
from .sequence import RequestSequence
from .vector import (
    BatchOutcome,
    run_batch,
    simulate_batch,
    simulate_vector,
)

__all__ = [
    "CacheState",
    "DiskLayout",
    "Event",
    "EventKind",
    "EventLog",
    "FetchDecision",
    "PolicyView",
    "PrefetchPolicy",
    "SimulationResult",
    "canonical_engine",
    "execute_interval_schedule",
    "execute_schedule",
    "simulate",
    "simulate_with_engine",
    "BatchOutcome",
    "run_batch",
    "simulate_batch",
    "simulate_vector",
    "EvictionHeap",
    "MissTracker",
    "ProblemInstance",
    "SimMetrics",
    "IntervalFetch",
    "IntervalSchedule",
    "Schedule",
    "TimedFetch",
    "RequestSequence",
]
