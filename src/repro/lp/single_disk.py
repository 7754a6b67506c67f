"""Optimal single-disk prefetching/caching schedules.

For ``D = 1`` every schedule is trivially synchronized (a single disk never
runs two fetches at once), so the Section 3 model, whose ``k + D - 1``
locations are exactly ``k`` here, computes the true optimum
``s_OPT(sigma, k)`` — this is the Albers–Garg–Leonardi result that optimal
single-disk schedules can be found in polynomial time, realised here
through the same LP as the parallel case (variables
``x(I)``/``f(I,a)``/``e(I,a)``, the Section 3 constraints, objective
``sum_I x(I)(F - |I|)``; see :mod:`repro.lp.model`).  The single-disk
experiments (E1–E5) use these optima as the denominator of every measured
approximation ratio.  The relaxation is used when it is integral and the
exact MILP otherwise (:mod:`repro.lp.solver`).  The MILP gets the
relaxation, whose reduced costs fix every variable that no schedule of
stall ``ceil(LB)`` can move before it branches; its answer is kept when its
stall is at most ``ceil(LB)``, which makes it optimal because stalls are
integers.

The driver builds the dominance-pruned single-disk model
(``aggregate_never_requested`` — interchangeable never-requested resident
blocks share one aggregated eviction budget), which shrinks cold-instance
models by roughly the cache-size factor without changing the optimum; the
equivalence is property-tested against the full model, which
:func:`repro.lp.parallel.optimal_parallel_schedule` solves on one disk.
The wall-clock cost of build + solve + extraction is recorded on the
returned execution's metrics (``SimMetrics.solve_seconds``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..disksim.executor import SimulationResult, execute_interval_schedule
from ..disksim.instance import ProblemInstance
from ..disksim.schedule import IntervalSchedule
from ..errors import ConfigurationError
from .model import LPSolution, SynchronizedLPModel
from .solver import solve_integral, solve_relaxation

__all__ = ["SingleDiskOptimum", "optimal_single_disk"]


@dataclass(frozen=True)
class SingleDiskOptimum:
    """An optimal single-disk schedule plus its certified stall time."""

    instance: ProblemInstance
    schedule: IntervalSchedule
    solution: LPSolution
    execution: SimulationResult
    lp_lower_bound: float

    @property
    def stall_time(self) -> int:
        """Optimal stall time ``s_OPT(sigma, k)`` (as executed by the simulator)."""
        return self.execution.stall_time

    @property
    def elapsed_time(self) -> int:
        """Optimal elapsed time ``n + s_OPT(sigma, k)``."""
        return self.execution.elapsed_time

    @property
    def charged_stall(self) -> int:
        """Stall charged by the LP objective (an upper bound on the executed stall)."""
        return self.solution.charged_stall(self.instance.fetch_time)


def optimal_single_disk(instance: ProblemInstance) -> SingleDiskOptimum:
    """Compute an optimal single-disk schedule for ``instance``.

    Solves the dominance-pruned model (same optimum as the full model,
    smaller LP — see the module docstring).  Raises
    :class:`ConfigurationError` if the instance uses more than one disk; use
    :func:`repro.lp.parallel.optimal_parallel_schedule` for the multi-disk
    problem.
    """
    if instance.num_disks != 1:
        raise ConfigurationError(
            f"optimal_single_disk needs a single-disk instance, got D={instance.num_disks}"
        )
    started = time.perf_counter()
    model = SynchronizedLPModel(instance, aggregate_never_requested=True)
    relaxation = solve_relaxation(model)
    solution = relaxation if relaxation.is_integral else solve_integral(model, relaxation)
    schedule = model.extract_schedule(solution)
    solve_seconds = time.perf_counter() - started
    execution = execute_interval_schedule(
        model.augmented_instance, schedule, capacity_override=model.capacity
    )
    return SingleDiskOptimum(
        instance=instance,
        schedule=schedule,
        solution=solution,
        execution=execution.with_solve_seconds(solve_seconds),
        lp_lower_bound=relaxation.objective,
    )
