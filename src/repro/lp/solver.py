"""LP / MILP backends for the synchronized prefetching/caching model.

Two entry points:

* :func:`solve_relaxation` — the continuous relaxation via ``scipy``'s HiGHS
  LP solver.  Its optimal value lower-bounds the best synchronized schedule
  over the model's ``k + D - 1`` locations and (by Lemma 3) the optimal
  unrestricted stall time ``s_OPT(sigma, k)``.  The solution carries the
  variables' reduced costs.

* :func:`solve_integral` — the exact 0/1 optimum via ``scipy.optimize.milp``
  (HiGHS branch and bound).  The paper instead rounds an optimal
  *fractional* solution by time slicing into integral solutions of no larger
  stall (Lemma 4); this repository does not implement that rounding.  The
  MILP is the substitution documented in DESIGN.md, used whenever the
  relaxation is fractional, and is cross-checked against the LP bound and
  against brute force in the tests.

On one disk :func:`solve_integral` first fixes variables by reduced cost.
Every objective coefficient ``F - |I|`` is an integer, so the optimum is an
integer of at least the relaxation's objective ``LB``, hence at least
``U = ceil(LB)``.  A 0/1 point of cost at most ``U`` keeps every variable
whose reduced cost exceeds ``U - LB`` in magnitude at its LP bound, so those
variables are fixed and the much smaller MILP that is left is solved.  Its
answer is feasible for the full program, so when it costs at most ``U`` it
is optimal; otherwise (a fixing that was wrong only makes the restricted
program infeasible or costlier) the plain MILP is solved.  Exactness rests on
``LB`` being a lower bound to within ``1e-7``, never on the fixing.  On one
disk the relaxation's bound has equalled the optimum on every instance
measured, so the restricted solve is the one that answers.  On ``D >= 2``
the bound is loose and fixing does not pay, so the plain MILP is solved.

``scipy`` is imported by the functions that solve, so importing this module
(and every ``repro`` command that solves no LP) does not load it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import InfeasibleError, SolverError
from .model import LPSolution, SynchronizedLPModel

__all__ = ["solve_relaxation", "solve_integral"]

#: Tolerance on the relaxation's objective as a lower bound.
_BOUND_TOL = 1e-7


def _linear_constraints(model: SynchronizedLPModel):
    from scipy import optimize

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
    from scipy import optimize

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
    return dataclasses.replace(
        model.solution_from_vector(np.asarray(result.x)),
        reduced_costs=result.lower.marginals + result.upper.marginals,
    )


def _milp(model: SynchronizedLPModel, lower, upper):
    from scipy import optimize

    return optimize.milp(
        c=model.objective,
        constraints=_linear_constraints(model),
        integrality=np.ones(model.num_variables),
        bounds=optimize.Bounds(lower, upper),
    )


def solve_integral(model: SynchronizedLPModel, relaxation: LPSolution) -> LPSolution:
    """Solve the 0/1 program exactly with HiGHS branch and bound.

    ``relaxation`` is :func:`solve_relaxation`'s solution of ``model``.  On
    one disk its reduced costs fix variables first, and the restricted
    answer is kept when it costs at most ``ceil(LB)`` (see the module
    docstring); otherwise, and on ``D >= 2``, the plain MILP is solved.
    """
    result = None
    if model.num_disks == 1:
        cutoff = math.ceil(relaxation.objective - _BOUND_TOL)
        slack = cutoff - relaxation.objective + _BOUND_TOL
        reduced = relaxation.reduced_costs
        lower = (reduced < -slack).astype(float)
        upper = (reduced <= slack).astype(float)
        restricted = _milp(model, lower, upper)
        if restricted.success and round(restricted.fun) <= cutoff:
            result = restricted
    if result is None:
        result = _milp(model, 0.0, 1.0)
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
