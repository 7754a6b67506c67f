"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from infeasible
schedules or solver failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InvalidSequenceError",
    "InvalidScheduleError",
    "CacheError",
    "PointEvaluationError",
    "PolicyError",
    "SolverError",
    "StoreError",
    "InfeasibleError",
]


class ReproError(Exception):
    """Base class for all exceptions raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A simulation or solver was configured with inconsistent parameters.

    Examples: non-positive cache size, fetch time ``F < 1``, a block mapped
    to a disk that does not exist, or an initial cache larger than ``k``.
    """


class InvalidSequenceError(ReproError):
    """A request sequence is malformed (empty request, unknown block, ...)."""


class InvalidScheduleError(ReproError):
    """A prefetching/caching schedule violates the model constraints.

    Raised by the schedule executor when a fetch is issued on a busy disk,
    a victim is not resident, a fetched block is already resident, the cache
    capacity is exceeded, or a request is served while its block is absent.
    """


class CacheError(ReproError):
    """An illegal cache-state transition was attempted."""


class PointEvaluationError(ReproError):
    """Evaluating one experiment grid point failed.

    Raised by the runner's worker entry points with the failing
    ``ExperimentPoint.describe()`` label in the message, so a parallel
    sweep's failure names the exact grid point instead of surfacing a bare
    worker traceback.  Carries only its message string, so it pickles
    cleanly across process-pool boundaries.
    """


class PolicyError(ReproError):
    """A prefetching policy returned an invalid decision."""


class SolverError(ReproError):
    """The LP/MILP backend failed or returned an unusable result."""


class StoreError(ReproError):
    """The run store could not be opened (missing, corrupt, not a database)."""


class InfeasibleError(SolverError):
    """The optimisation model has no feasible solution.

    For the integrated prefetching/caching LP this indicates an internal
    modelling bug: the model is always feasible because demand fetching every
    block one request before its use is a feasible (if slow) schedule.
    """
