"""Static validation of synchronized-LP solutions (the Section 3 program).

The simulator already validates *schedules* dynamically; this module checks
*LP solutions* — assignments to the Section 3 variables ``x(I)``, ``f(I,a)``
and ``e(I,a)`` — against the model's own constraint matrices (slot
coverage, per-disk fetch counts, fetch/evict balance, epoch feasibility and
the ``[0, 1]`` bounds).  The LP tests use it to make sure the matrices
encode what the docstrings claim; :mod:`repro.lp.parallel` and
:mod:`repro.lp.single_disk` check their schedules by executing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LPSolution, SynchronizedLPModel

__all__ = ["ValidationReport", "validate_solution", "solution_vector"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a solution vector against the LP's constraints."""

    max_equality_violation: float
    max_inequality_violation: float
    max_bound_violation: float
    objective: float

    @property
    def is_feasible(self) -> bool:
        """Whether all constraint violations are within numerical tolerance."""
        tol = 1e-6
        return (
            self.max_equality_violation <= tol
            and self.max_inequality_violation <= tol
            and self.max_bound_violation <= tol
        )


def solution_vector(model: SynchronizedLPModel, solution: LPSolution) -> np.ndarray:
    """Reconstruct the raw variable vector corresponding to ``solution``."""
    vector = np.zeros(model.num_variables)
    for interval, value in solution.x.items():
        vector[model._x_index[interval]] = value
    for key, value in solution.fetches.items():
        vector[model._f_index[key]] = value
    for key, value in solution.evictions.items():
        vector[model._e_index[key]] = value
    return vector


def validate_solution(model: SynchronizedLPModel, solution: LPSolution) -> ValidationReport:
    """Check ``solution`` against the model's equality/inequality systems."""
    vector = solution_vector(model, solution)
    A_eq, b_eq = model.equality_system()
    A_ub, b_ub = model.inequality_system()
    eq_violation = 0.0
    ub_violation = 0.0
    if A_eq is not None:
        eq_violation = float(np.max(np.abs(A_eq @ vector - b_eq))) if A_eq.shape[0] else 0.0
    if A_ub is not None:
        ub_violation = float(np.max(A_ub @ vector - b_ub)) if A_ub.shape[0] else 0.0
        ub_violation = max(0.0, ub_violation)
    bound_violation = float(max(0.0, np.max(-vector), np.max(vector - 1.0)))
    return ValidationReport(
        max_equality_violation=eq_violation,
        max_inequality_violation=ub_violation,
        max_bound_violation=bound_violation,
        objective=float(np.dot(model.objective, vector)),
    )
