"""The optimum service: cached, batched, parallel-safe LP/optimum computation.

The paper's headline numbers (Theorems 1–4) are competitive ratios against
the optimum certified by the Section 3 LP — exact on a single disk
(:mod:`repro.lp.single_disk`), the Theorem 4 schedule on parallel disks
(:mod:`repro.lp.parallel`) — which makes the optimum solve the most
expensive stage of every ratio experiment.  This module turns it into an
infrastructure service instead of an ad-hoc call:

* **Canonical identity** — every instance is normalized and fingerprinted
  through :mod:`repro.lp.canonical` (SHA-256 over the normalized instance
  plus :data:`SOLVER_KEY`), so equivalent instances produced by any code
  path share one optimum.
* **Layered cache** — an in-memory map per service plus an optional
  durable *store* (any object with ``get_optimum(fingerprint)``/
  ``put_optimum(record)`` — in practice the SQLite
  :class:`~repro.analysis.store.RunStore`, which is concurrent-writer safe
  by construction).  It is safe between serial runs and pool workers:
  concurrent writers of the same fingerprint write identical bytes, and an
  unreadable record is treated as a miss and re-solved.
* **One solver configuration** — every optimum is solved the same way:
  the reduced single-disk model on one disk, and on ``D`` disks the
  Theorem 4 driver with ``D - 1`` extra LP locations, which uses the LP
  relaxation when it is integral and the exact MILP otherwise (never a
  time-limited incumbent).  :data:`SOLVER_KEY` names that configuration in
  every fingerprint and on every record.
* **Accounted cost** — every :class:`OptimumRecord` carries the solve
  wall-clock seconds (as measured by the LP drivers and recorded on
  ``SimMetrics.solve_seconds``), making solver cost a first-class metric of
  the experiment pipeline.

The experiment runner (:mod:`repro.analysis.runner`) fans
:func:`compute_optimum_record` out alongside algorithm simulations and
attaches the results to its :class:`~repro.analysis.results.RunRecord` s
(``ExperimentSpec(compute_optimum=True)``, which ``repro ratios`` runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..disksim.instance import ProblemInstance
from .canonical import instance_fingerprint, normalize_instance
from .parallel import optimal_parallel_schedule
from .single_disk import optimal_single_disk

__all__ = ["SOLVER_KEY", "OptimumRecord", "OptimumService", "compute_optimum_record"]

#: The solver configuration every optimum is solved under, hashed into every
#: optimum fingerprint and stamped on every record.  The string is the
#: historical key of the default configuration, so stored optima, sweep
#: manifests and ``optimum_solver_key`` values written under it stay valid.
SOLVER_KEY = "method=auto;extra_cache=default;time_limit=none;reduced=1"


@dataclass(frozen=True)
class OptimumRecord:
    """One certified optimum: the values, their provenance and their cost."""

    fingerprint: str
    stall_time: int
    elapsed_time: int
    lp_lower_bound: float
    method_used: str
    solve_seconds: float
    extra_cache_used: int = 0
    num_requests: int = 0
    solver_key: str = ""

    def as_json_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (see :meth:`from_json_dict`)."""
        return {
            "fingerprint": self.fingerprint,
            "stall_time": self.stall_time,
            "elapsed_time": self.elapsed_time,
            "lp_lower_bound": self.lp_lower_bound,
            "method_used": self.method_used,
            "solve_seconds": self.solve_seconds,
            "extra_cache_used": self.extra_cache_used,
            "num_requests": self.num_requests,
            "solver_key": self.solver_key,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "OptimumRecord":
        """Rebuild a record from :meth:`as_json_dict` output."""
        return cls(
            fingerprint=str(payload["fingerprint"]),
            stall_time=int(payload["stall_time"]),
            elapsed_time=int(payload["elapsed_time"]),
            lp_lower_bound=float(payload["lp_lower_bound"]),
            method_used=str(payload["method_used"]),
            solve_seconds=float(payload["solve_seconds"]),
            extra_cache_used=int(payload.get("extra_cache_used", 0)),
            num_requests=int(payload.get("num_requests", 0)),
            solver_key=str(payload.get("solver_key", "")),
        )


def compute_optimum_record(instance: ProblemInstance, fingerprint: str) -> OptimumRecord:
    """Solve ``instance``'s optimum (no caching).

    ``fingerprint`` is the instance's :func:`instance_fingerprint` under
    :data:`SOLVER_KEY`, which the caller computed for its cache lookup; the
    record carries it.

    Module-level on purpose: it is the single chokepoint every LP solve of
    the service goes through, so tests can monkeypatch it to count solves —
    or to fail loudly when a code path that must be a pure cache hit would
    re-solve.  Single-disk instances get the exact optimum
    (:func:`optimal_single_disk` on the reduced model); multi-disk
    instances get the Theorem 4 schedule
    (:func:`optimal_parallel_schedule`), whose stall is at most
    ``s_OPT(sigma, k)``.
    """
    normalized = normalize_instance(instance)
    if normalized.num_disks == 1:
        optimum = optimal_single_disk(normalized, reduced=True)
        method_used = "single-disk-exact"
        extra_cache_used = 0
    else:
        optimum = optimal_parallel_schedule(normalized)
        method_used = optimum.method_used
        extra_cache_used = optimum.extra_cache_used
    return OptimumRecord(
        fingerprint=fingerprint,
        stall_time=optimum.stall_time,
        elapsed_time=optimum.elapsed_time,
        lp_lower_bound=optimum.lp_lower_bound,
        method_used=method_used,
        solve_seconds=optimum.execution.metrics.solve_seconds,
        extra_cache_used=extra_cache_used,
        num_requests=instance.num_requests,
        solver_key=SOLVER_KEY,
    )


class OptimumService:
    """Facade over optimum computation: fingerprint, look up, solve, store.

    ``store`` plugs in a durable record store — any object exposing
    ``get_optimum(fingerprint)`` and ``put_optimum(record)``, in practice
    the runner's SQLite :class:`~repro.analysis.store.RunStore`.  Without
    one the service still deduplicates in memory, so repeated algorithms
    over the same instance within a process solve one LP.  ``solves`` counts the LP
    computations actually performed by *this* service object — the
    "re-running is a 100% cache hit" acceptance tests assert it stays 0 on
    warmed caches.
    """

    def __init__(self, store=None):
        self.record_store = store
        self._memory: Dict[str, OptimumRecord] = {}
        self.solves = 0

    def optimum(self, instance: ProblemInstance) -> OptimumRecord:
        """The optimum of ``instance``: memory, then the store, else solve and store.

        The record store serializes concurrent writers itself (SQLite
        transactions), and writers of the same fingerprint are idempotent.
        """
        fingerprint = instance_fingerprint(instance, SOLVER_KEY)
        record = self._memory.get(fingerprint)
        if record is None and self.record_store is not None:
            record = self.record_store.get_optimum(fingerprint)
        if record is None:
            record = compute_optimum_record(instance, fingerprint)
            self.solves += 1
            if self.record_store is not None:
                self.record_store.put_optimum(record)
        self._memory[fingerprint] = record
        return record
