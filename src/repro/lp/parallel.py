"""Theorem 4 driver: minimum-stall schedules for parallel disk systems.

Given a request sequence over ``D`` disks, :func:`optimal_parallel_schedule`
computes a prefetching/caching schedule whose stall time is at most the
optimal stall time ``s_OPT(sigma, k)`` of schedules that use only ``k`` cache
locations — the paper's Theorem 4, which allows up to ``2(D - 1)`` extra
locations.  The pipeline is:

1. build the synchronized LP over ``k + D - 1`` cache locations
   (:class:`~repro.lp.model.SynchronizedLPModel`); by Lemma 3 its optimum is
   at most ``s_OPT(sigma, k)``;
2. take the LP relaxation when it is integral and otherwise solve the exact
   MILP.  This is the documented substitution for the paper's Lemma 4,
   which rounds a fractional optimum by time slicing; the rounding is not
   implemented;
3. extract the schedule, normalised per disk
   (:meth:`~repro.lp.model.SynchronizedLPModel.extract_schedule`), and
   execute it with the simulator to certify its actual stall time and peak
   cache usage.  The executed stall is at most the LP objective and the
   schedule uses at most ``D - 1`` locations beyond ``k``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..disksim.executor import SimulationResult, execute_interval_schedule
from ..disksim.instance import ProblemInstance
from ..disksim.schedule import IntervalSchedule
from .model import LPSolution, SynchronizedLPModel
from .solver import solve_integral, solve_relaxation

__all__ = ["ParallelOptimum", "optimal_parallel_schedule"]


@dataclass(frozen=True)
class ParallelOptimum:
    """A certified minimum-stall parallel-disk schedule."""

    instance: ProblemInstance
    schedule: IntervalSchedule
    solution: LPSolution
    execution: SimulationResult
    lp_lower_bound: float
    method_used: str
    allowed_capacity: int

    @property
    def stall_time(self) -> int:
        """Actual stall time of the schedule (measured by the simulator)."""
        return self.execution.stall_time

    @property
    def elapsed_time(self) -> int:
        """Actual elapsed time of the schedule."""
        return self.execution.elapsed_time

    @property
    def extra_cache_used(self) -> int:
        """Peak cache slots used beyond the instance's ``k`` (paper bound: 2(D-1))."""
        return max(0, self.execution.metrics.peak_cache_used - self.instance.cache_size)

    @property
    def charged_stall(self) -> int:
        """Stall charged by the LP objective for the selected intervals."""
        return self.solution.charged_stall(self.instance.fetch_time)


def optimal_parallel_schedule(instance: ProblemInstance) -> ParallelOptimum:
    """Compute a schedule with stall time at most ``s_OPT(sigma, k)`` (Theorem 4).

    ``instance`` is the parallel-disk problem instance; single-disk
    instances are accepted and reduce to the exact optimum.  The LP gets
    ``D - 1`` cache locations beyond ``k``, as in the paper, and the
    relaxation is used when it is integral (``method_used ==
    "lp-integral"``), the exact MILP otherwise (``"milp"``).  The replay is
    checked against the paper's capacity ``k + 2(D - 1)``.
    """
    allowed_capacity = instance.cache_size + 2 * (instance.num_disks - 1)

    started = time.perf_counter()
    model = SynchronizedLPModel(instance)
    relaxation = solve_relaxation(model)
    if relaxation.is_integral:
        solution, method_used = relaxation, "lp-integral"
    else:
        solution, method_used = solve_integral(model, relaxation), "milp"

    schedule = model.extract_schedule(solution)
    solve_seconds = time.perf_counter() - started
    execution = execute_interval_schedule(
        model.augmented_instance, schedule, capacity_override=allowed_capacity
    )
    return ParallelOptimum(
        instance=instance,
        schedule=schedule,
        solution=solution,
        execution=execution.with_solve_seconds(solve_seconds),
        lp_lower_bound=relaxation.objective,
        method_used=method_used,
        allowed_capacity=allowed_capacity,
    )
