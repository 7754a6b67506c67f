"""LP / MILP backends for the synchronized prefetching/caching model.

Two entry points:

* :func:`solve_relaxation` — the continuous relaxation via ``scipy``'s HiGHS
  LP solver.  Its optimal value lower-bounds the best synchronized schedule
  over the model's ``k + D - 1`` locations and (by Lemma 3) the optimal
  unrestricted stall time ``s_OPT(sigma, k)``.

* :func:`solve_integral` — the exact 0/1 optimum via ``scipy.optimize.milp``
  (HiGHS branch and bound).  The paper instead rounds an optimal
  *fractional* solution by time slicing into integral solutions of no larger
  stall (Lemma 4); this repository does not implement that rounding.  The
  MILP is the substitution documented in DESIGN.md, used whenever the
  relaxation is fractional, and is cross-checked against the LP bound and
  against brute force in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from ..errors import InfeasibleError, SolverError
from .model import LPSolution, SynchronizedLPModel

__all__ = ["solve_relaxation", "solve_integral"]


def _linear_constraints(model: SynchronizedLPModel):
    constraints = []
    A_eq, b_eq = model.equality_system()
    if A_eq is not None:
        constraints.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
    A_ub, b_ub = model.inequality_system()
    if A_ub is not None:
        constraints.append(
            optimize.LinearConstraint(A_ub, np.full_like(b_ub, -np.inf), b_ub)
        )
    return constraints


def solve_relaxation(model: SynchronizedLPModel) -> LPSolution:
    """Solve the continuous relaxation (all variables in ``[0, 1]``)."""
    A_eq, b_eq = model.equality_system()
    A_ub, b_ub = model.inequality_system()
    result = optimize.linprog(
        c=model.objective,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleError(
            "the synchronized LP relaxation is infeasible; this indicates a modelling "
            "bug because demand-fetching every block is always a feasible schedule"
        )
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return model.solution_from_vector(np.asarray(result.x))


def solve_integral(model: SynchronizedLPModel) -> LPSolution:
    """Solve the 0/1 program exactly with HiGHS branch and bound."""
    result = optimize.milp(
        c=model.objective,
        constraints=_linear_constraints(model),
        integrality=np.ones(model.num_variables),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if result.status == 2:
        raise InfeasibleError(
            "the synchronized MILP is infeasible; this indicates a modelling bug because "
            "demand-fetching every block is always a feasible schedule"
        )
    if not result.success:
        raise SolverError(f"MILP solve failed: {result.message}")
    vector = np.round(np.asarray(result.x))
    solution = model.solution_from_vector(vector)
    if not solution.is_integral:
        raise SolverError("MILP returned a non-integral vector after rounding")
    return solution
