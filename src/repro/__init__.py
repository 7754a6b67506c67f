"""repro — reproduction of Albers & Büttner, *Integrated prefetching and caching
in single and parallel disk systems* (SPAA 2003 / Information and Computation 2005).

The package provides:

* :mod:`repro.disksim` — the single/parallel disk simulation substrate,
* :mod:`repro.paging` — Belady's MIN, run on the engine's furthest-next-use heap,
* :mod:`repro.algorithms` — Aggressive, Conservative, Delay(d), Combination and
  the parallel-disk baselines,
* :mod:`repro.lp` — the Section 3 linear-programming machinery and exact
  optimal schedulers,
* :mod:`repro.core` — theoretical bounds, dominance arguments and the
  Theorem 4 driver,
* :mod:`repro.workloads` — adversarial, synthetic and trace-like request
  generators,
* :mod:`repro.analysis` — approximation-ratio measurement and parameter sweeps,
* :mod:`repro.viz` — text-based schedule visualisation.

Quickstart
----------
>>> from repro import ProblemInstance, simulate
>>> from repro.algorithms import Aggressive
>>> inst = ProblemInstance.single_disk(
...     ["b1", "b2", "b3", "b4", "b4", "b5", "b1", "b4", "b4", "b2"],
...     cache_size=4, fetch_time=4, initial_cache=["b1", "b2", "b3", "b4"])
>>> result = simulate(inst, Aggressive())
>>> result.elapsed_time
13
"""

from .disksim import (
    CacheState,
    DiskLayout,
    FetchDecision,
    IntervalFetch,
    IntervalSchedule,
    PolicyView,
    PrefetchPolicy,
    ProblemInstance,
    RequestSequence,
    Schedule,
    SimMetrics,
    SimulationResult,
    TimedFetch,
    execute_interval_schedule,
    execute_schedule,
    simulate,
)
from .errors import (
    CacheError,
    ConfigurationError,
    InfeasibleError,
    InvalidScheduleError,
    InvalidSequenceError,
    PolicyError,
    ReproError,
    SolverError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulator
    "CacheState",
    "DiskLayout",
    "FetchDecision",
    "IntervalFetch",
    "IntervalSchedule",
    "PolicyView",
    "PrefetchPolicy",
    "ProblemInstance",
    "RequestSequence",
    "Schedule",
    "SimMetrics",
    "SimulationResult",
    "TimedFetch",
    "execute_interval_schedule",
    "execute_schedule",
    "simulate",
    # errors
    "CacheError",
    "ConfigurationError",
    "InfeasibleError",
    "InvalidScheduleError",
    "InvalidSequenceError",
    "PolicyError",
    "ReproError",
    "SolverError",
]
