"""Theorem 4 driver: minimum-stall schedules for parallel disk systems.

Given a request sequence over ``D`` disks, :func:`optimal_parallel_schedule`
computes a prefetching/caching schedule whose stall time is at most the
optimal stall time ``s_OPT(sigma, k)`` of schedules that use only ``k`` cache
locations, while itself using at most ``2(D - 1)`` extra locations — the
paper's Theorem 4.  The pipeline is:

1. build the synchronized LP over ``k + D - 1`` cache locations
   (:class:`~repro.lp.model.SynchronizedLPModel`); by Lemma 3 its optimum is
   at most ``s_OPT(sigma, k)``;
2. obtain an integral solution — either the LP relaxation happens to be
   integral, or the paper's time-slicing rounding succeeds
   (:mod:`repro.lp.rounding`), or the exact MILP is solved (the documented
   substitution for the paper's integrality argument);
3. execute the schedule with the simulator to certify its actual stall time
   and peak cache usage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

from ..disksim.executor import SimulationResult, execute_interval_schedule
from ..disksim.instance import ProblemInstance
from ..disksim.schedule import IntervalSchedule
from ..errors import InvalidScheduleError, SolverError
from .model import LPSolution, SynchronizedLPModel
from .rounding import round_solution
from .solver import solve_integral, solve_relaxation

__all__ = ["ParallelOptimum", "optimal_parallel_schedule"]

Method = Literal["auto", "milp", "lp-rounding"]


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


def optimal_parallel_schedule(
    instance: ProblemInstance,
    *,
    method: Method = "auto",
) -> ParallelOptimum:
    """Compute a schedule with stall time at most ``s_OPT(sigma, k)`` (Theorem 4).

    Parameters
    ----------
    instance:
        The parallel-disk problem instance (single-disk instances are accepted
        and reduce to the exact optimum).
    method:
        ``"auto"`` (default) uses the LP relaxation when it is integral and
        falls back to the exact MILP otherwise; ``"milp"`` always solves the
        MILP; ``"lp-rounding"`` follows the paper's rounding procedure and
        falls back to the MILP only if the rounded schedule fails validation.

    The LP gets ``D - 1`` cache locations beyond ``k``, as in the paper; the
    executed schedule may use up to ``D - 1`` more (rounding), never
    exceeding ``k + 2(D - 1)``.
    """
    extra_cache = instance.num_disks - 1
    allowed_capacity = instance.cache_size + 2 * extra_cache

    started = time.perf_counter()
    model = SynchronizedLPModel(
        instance,
        extra_cache=extra_cache,
        require_all_disks=(method == "lp-rounding"),
    )
    relaxation = solve_relaxation(model)
    lower_bound = relaxation.objective

    if method == "lp-rounding":
        rounded = round_solution(model, relaxation)
        try:
            execution = execute_interval_schedule(
                model.augmented_instance,
                rounded.schedule,
                capacity_override=allowed_capacity,
            )
            if execution.stall_time <= lower_bound + 1e-6:
                return ParallelOptimum(
                    instance=instance,
                    schedule=rounded.schedule,
                    solution=relaxation,
                    execution=execution.with_solve_seconds(
                        time.perf_counter() - started
                    ),
                    lp_lower_bound=lower_bound,
                    method_used="lp-rounding",
                    allowed_capacity=allowed_capacity,
                )
        except InvalidScheduleError:
            pass
        # The rounded schedule did not validate (see module docstring of
        # repro.lp.rounding): fall back to the exact MILP.
        model = SynchronizedLPModel(instance, extra_cache=extra_cache, require_all_disks=False)
        relaxation = solve_relaxation(model)
        lower_bound = min(lower_bound, relaxation.objective)
        method_used = "lp-rounding->milp"
    elif method == "milp":
        method_used = "milp"
    elif method == "auto":
        method_used = "auto"
    else:
        raise SolverError(f"unknown method {method!r}")

    if relaxation.is_integral and method != "milp":
        solution = relaxation
        if method_used == "auto":
            method_used = "lp-integral"
    else:
        solution = solve_integral(model)
        if method_used == "auto":
            method_used = "milp"

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
        lp_lower_bound=lower_bound,
        method_used=method_used,
        allowed_capacity=allowed_capacity,
    )
