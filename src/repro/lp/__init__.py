"""Linear-programming machinery for optimal prefetching/caching schedules.

The Section 3 synchronized LP (:mod:`repro.lp.model` — variables
``x(I)``/``f(I,a)``/``e(I,a)`` over fetch intervals, objective
``sum_I x(I)(F - |I|)``, and the per-disk schedule extraction), its LP/MILP
solvers (:mod:`repro.lp.solver`; the exact MILP stands in for the paper's
Lemma 4 rounding, and on one disk fixes the variables the relaxation's
reduced costs rule out before it branches), the two user-facing entry
points —
:func:`optimal_single_disk` (exact single-disk optimum, the denominator of
every Section 2 approximation ratio) and :func:`optimal_parallel_schedule`
(the Theorem 4 algorithm) — and the optimum service
(:mod:`repro.lp.service`): one solver configuration (``SOLVER_KEY``), canonical instance fingerprinting
(:mod:`repro.lp.canonical`) plus a disk-backed, parallel-safe cache that
makes optimum computation a batched pipeline stage instead of a per-call
expense.
"""

from .canonical import canonical_payload, instance_fingerprint, normalize_instance
from .intervals import Interval, IntervalStructure, enumerate_intervals, interval_structure
from .model import AGGREGATE_BLOCK, DUMMY_PREFIX, LPSolution, SynchronizedLPModel
from .parallel import ParallelOptimum, optimal_parallel_schedule
from .service import SOLVER_KEY, OptimumRecord, OptimumService, compute_optimum_record
from .single_disk import SingleDiskOptimum, optimal_single_disk
from .solver import solve_integral, solve_relaxation
from .validation import ValidationReport, solution_vector, validate_solution

__all__ = [
    "canonical_payload",
    "instance_fingerprint",
    "normalize_instance",
    "Interval",
    "IntervalStructure",
    "interval_structure",
    "enumerate_intervals",
    "AGGREGATE_BLOCK",
    "DUMMY_PREFIX",
    "LPSolution",
    "SynchronizedLPModel",
    "SOLVER_KEY",
    "OptimumRecord",
    "OptimumService",
    "compute_optimum_record",
    "ParallelOptimum",
    "optimal_parallel_schedule",
    "SingleDiskOptimum",
    "optimal_single_disk",
    "solve_integral",
    "solve_relaxation",
    "ValidationReport",
    "solution_vector",
    "validate_solution",
]
