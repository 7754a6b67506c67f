"""The unified run-record result model.

Every experiment in this repository reduces to the same shape of fact: *one
algorithm spec ran over one problem instance under one engine and produced
these metrics (and, when an optimum was computed, these ratios)*.  The
batched runner (:mod:`repro.analysis.runner`) produces it for every sweep
and ratio grid, and the reporting, store and benchmark code consume it:

* :class:`RunRecord` — one typed record: instance identity (workload spec,
  ``k``/``F``/``D``/layout), algorithm identity (resolved name + portable
  spec string), the engine, the full :class:`~repro.disksim.metrics.SimMetrics`,
  and the optional optimum / approximation ratios.
* :class:`ResultSet` — an ordered, named collection of records with uniform
  emission: flat rows for the table formatter (with column selection),
  deterministic sorted-key JSON, CSV, and the query helpers the benchmark
  scripts use (``metric``, ``ratios_for``, ``for_algorithm``).

Records round-trip losslessly through :meth:`RunRecord.to_json_dict` /
:meth:`RunRecord.from_json_dict`; the runner's on-disk point cache and the
tests' equality round-trips both rely on that.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..disksim.metrics import SimMetrics

if TYPE_CHECKING:  # type-only: executor pulls in the whole engine stack
    from ..disksim.executor import SimulationResult

__all__ = ["RunRecord", "ResultSet", "RUN_RECORD_COLUMNS", "safe_ratio"]


def safe_ratio(value: int, reference: int) -> float:
    """``value / reference`` with the measurement convention for 0 optima."""
    if reference == 0:
        return 1.0 if value == 0 else float("inf")
    return value / reference


def _row_ratio(ratio: Optional[float]) -> object:
    """Flat-row rendering of a ratio: rounded, with ``inf`` as a string.

    ``json.dumps`` would otherwise emit the non-standard ``Infinity`` token
    (routine when the optimum has zero stall but the algorithm stalls),
    which strict RFC-8259 parsers reject — breaking the deterministic-JSON
    contract of :meth:`ResultSet.write_json`.
    """
    if ratio is None:
        return None
    if ratio == float("inf"):
        return "inf"
    return round(ratio, 6)


#: Canonical flat-row column order (identity, then metrics, then optimum).
RUN_RECORD_COLUMNS: Tuple[str, ...] = (
    "point",
    "workload",
    "cache_size",
    "fetch_time",
    "disks",
    "layout",
    "algorithm",
    "algorithm_spec",
    "engine",
    "num_requests",
    "stall_time",
    "elapsed_time",
    "num_fetches",
    "num_demand_fetches",
    "cache_hits",
    "cache_misses",
    "hit_rate",
    "peak_cache_used",
    "optimal_stall",
    "optimal_elapsed",
    "stall_ratio",
    "elapsed_ratio",
    "optimum_solve_seconds",
)


@dataclass(frozen=True)
class RunRecord:
    """One algorithm x instance x engine evaluation, fully described."""

    point: str
    algorithm: str
    algorithm_spec: str
    metrics: SimMetrics
    workload: Optional[str] = None
    cache_size: int = 0
    fetch_time: int = 0
    disks: int = 1
    layout: Optional[str] = None
    engine: str = "loop"
    optimal_stall: Optional[int] = None
    optimal_elapsed: Optional[int] = None
    #: Wall-clock seconds the optimum attached to this record cost to solve
    #: (0.0 when it came from a cache hit *within the same solve*; cached
    #: records keep the original solve's cost).  None without an optimum.
    optimum_solve_seconds: Optional[float] = None
    #: :data:`~repro.lp.service.SOLVER_KEY` of the solver that produced the
    #: attached optimum.  The runner only trusts a cached record's optimum
    #: when this matches the current key; otherwise the optimum is
    #: re-attached through the (key-fingerprinted) optimum cache.
    optimum_solver_key: Optional[str] = None

    @classmethod
    def from_simulation(
        cls,
        result: "SimulationResult",
        *,
        point: str,
        algorithm_spec: Optional[str] = None,
        workload: Optional[str] = None,
        layout: Optional[str] = None,
        engine: str = "loop",
        optimal_stall: Optional[int] = None,
        optimal_elapsed: Optional[int] = None,
        optimum_solve_seconds: Optional[float] = None,
    ) -> "RunRecord":
        """Build a record from a :class:`~repro.disksim.executor.SimulationResult`.

        The instance identity (``k``/``F``/``D``) is read off the result's
        instance; the algorithm spec defaults to the policy object's recorded
        registry spec (or its resolved name for directly constructed objects).
        """
        instance = result.instance
        return cls(
            point=point,
            algorithm=result.policy_name,
            algorithm_spec=algorithm_spec or result.policy_name,
            metrics=result.metrics,
            workload=workload,
            cache_size=instance.cache_size,
            fetch_time=instance.fetch_time,
            disks=instance.num_disks,
            layout=layout,
            engine=engine,
            optimal_stall=optimal_stall,
            optimal_elapsed=optimal_elapsed,
            optimum_solve_seconds=optimum_solve_seconds,
        )

    # -- derived quantities ----------------------------------------------------------

    @property
    def elapsed_ratio(self) -> Optional[float]:
        """Measured elapsed time over the optimum (None without an optimum)."""
        if self.optimal_elapsed is None:
            return None
        return safe_ratio(self.metrics.elapsed_time, self.optimal_elapsed)

    @property
    def stall_ratio(self) -> Optional[float]:
        """Measured stall time over the optimum (None without an optimum)."""
        if self.optimal_stall is None:
            return None
        return safe_ratio(self.metrics.stall_time, max(self.optimal_stall, 0))

    def matches_algorithm(self, algorithm: str) -> bool:
        """Whether ``algorithm`` names this record (resolved name or spec)."""
        return algorithm in (self.algorithm, self.algorithm_spec)

    # -- emission ----------------------------------------------------------------------

    def as_row(self) -> Dict[str, object]:
        """Flat row dictionary in :data:`RUN_RECORD_COLUMNS` order."""
        metrics = self.metrics
        return {
            "point": self.point,
            "workload": self.workload,
            "cache_size": self.cache_size,
            "fetch_time": self.fetch_time,
            "disks": self.disks,
            "layout": self.layout,
            "algorithm": self.algorithm,
            "algorithm_spec": self.algorithm_spec,
            "engine": self.engine,
            "num_requests": metrics.num_requests,
            "stall_time": metrics.stall_time,
            "elapsed_time": metrics.elapsed_time,
            "num_fetches": metrics.num_fetches,
            "num_demand_fetches": metrics.num_demand_fetches,
            "cache_hits": metrics.cache_hits,
            "cache_misses": metrics.cache_misses,
            "hit_rate": round(metrics.hit_rate, 6),
            "peak_cache_used": metrics.peak_cache_used,
            "optimal_stall": self.optimal_stall,
            "optimal_elapsed": self.optimal_elapsed,
            "stall_ratio": _row_ratio(self.stall_ratio),
            "elapsed_ratio": _row_ratio(self.elapsed_ratio),
            "optimum_solve_seconds": (
                None
                if self.optimum_solve_seconds is None
                else round(self.optimum_solve_seconds, 6)
            ),
        }

    def to_json_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe encoding (see :meth:`from_json_dict`)."""
        return {
            "point": self.point,
            "workload": self.workload,
            "cache_size": self.cache_size,
            "fetch_time": self.fetch_time,
            "disks": self.disks,
            "layout": self.layout,
            "algorithm": self.algorithm,
            "algorithm_spec": self.algorithm_spec,
            "engine": self.engine,
            "metrics": self.metrics.as_dict(),
            "optimal_stall": self.optimal_stall,
            "optimal_elapsed": self.optimal_elapsed,
            "optimum_solve_seconds": self.optimum_solve_seconds,
            "optimum_solver_key": self.optimum_solver_key,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`to_json_dict` output."""
        return cls(
            point=str(payload["point"]),
            workload=payload.get("workload"),
            cache_size=int(payload["cache_size"]),
            fetch_time=int(payload["fetch_time"]),
            disks=int(payload["disks"]),
            layout=payload.get("layout"),
            algorithm=str(payload["algorithm"]),
            algorithm_spec=str(payload["algorithm_spec"]),
            engine=str(payload.get("engine", "loop")),
            metrics=SimMetrics.from_dict(payload["metrics"]),
            optimal_stall=payload.get("optimal_stall"),
            optimal_elapsed=payload.get("optimal_elapsed"),
            optimum_solve_seconds=payload.get("optimum_solve_seconds"),
            optimum_solver_key=payload.get("optimum_solver_key"),
        )

    def with_optimum(
        self,
        *,
        optimal_stall: int,
        optimal_elapsed: int,
        solve_seconds: Optional[float] = None,
        solver_key: Optional[str] = None,
    ) -> "RunRecord":
        """Copy with the optimum (its solve cost and provenance) attached.

        Used by the runner to upgrade simulation records with the optimum
        service's results — including records that were cached before an
        optimum was ever requested for their instance.
        """
        return replace(
            self,
            optimal_stall=optimal_stall,
            optimal_elapsed=optimal_elapsed,
            optimum_solve_seconds=solve_seconds,
            optimum_solver_key=solver_key,
        )

    def with_identity(
        self,
        *,
        point: str,
        workload: Optional[str],
        algorithm_spec: str,
        layout: Optional[str],
    ) -> "RunRecord":
        """Copy with the identity fields replaced (cache-hit relabeling)."""
        return replace(
            self,
            point=point,
            workload=workload,
            algorithm_spec=algorithm_spec,
            layout=layout,
        )


@dataclass(frozen=True)
class ResultSet:
    """The ordered records of one experiment invocation.

    ``backend`` names the execution backend that ran the uncached points
    and ``optimum_requests`` counts the optimum computations the run
    dispatched (every one a store hit or an LP solve) — a fully warmed
    resume reports 0 for both it and :attr:`simulated_points`, which is the
    property the resume smoke tests assert.
    """

    name: str
    records: Tuple[RunRecord, ...]
    workers: int = 0
    cached_points: int = 0
    backend: str = "serial"
    optimum_requests: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def simulated_points(self) -> int:
        """How many points were actually simulated (i.e. not cache hits).

        Meaningful on a full run result; filtered views (``for_algorithm``)
        keep the run-level ``cached_points``, so the difference is clamped
        at zero rather than going negative there.
        """
        return max(0, len(self.records) - self.cached_points)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    # -- queries ----------------------------------------------------------------------

    def points(self) -> List[str]:
        """Point labels in record order (duplicates preserved)."""
        return [record.point for record in self.records]

    def metric(self, metric: str) -> Dict[str, object]:
        """``{point label: value}`` of one flat-row column across all records."""
        return {record.point: record.as_row()[metric] for record in self.records}

    def for_algorithm(self, algorithm: str) -> "ResultSet":
        """The records whose resolved name or spec equals ``algorithm``."""
        return ResultSet(
            name=self.name,
            records=tuple(r for r in self.records if r.matches_algorithm(algorithm)),
            workers=self.workers,
            cached_points=self.cached_points,
            backend=self.backend,
            optimum_requests=self.optimum_requests,
        )

    def ratios_for(self, algorithm: str) -> Dict[str, float]:
        """Elapsed-time ratio of ``algorithm`` at every point that has one."""
        return {
            record.point: record.elapsed_ratio
            for record in self.for_algorithm(algorithm)
            if record.elapsed_ratio is not None
        }

    # -- emission ----------------------------------------------------------------------

    def as_rows(self, columns: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """Flat row dictionaries in record order, optionally column-selected."""
        rows = [record.as_row() for record in self.records]
        if columns is None:
            return rows
        return [{column: row[column] for column in columns} for row in rows]

    def to_json(self, columns: Optional[Sequence[str]] = None) -> str:
        """Deterministic JSON document (stable record order, sorted keys)."""
        return json.dumps(
            {
                "experiment": self.name,
                "num_points": len(self.records),
                "results": self.as_rows(columns),
            },
            sort_keys=True,
            indent=2,
        )

    def write_json(
        self, path: "str | Path", columns: Optional[Sequence[str]] = None
    ) -> None:
        """Write :meth:`to_json` to ``path``."""
        Path(path).write_text(self.to_json(columns) + "\n")

    def write_csv(
        self, path: "str | Path", columns: Optional[Sequence[str]] = None
    ) -> None:
        """Write the rows as CSV (canonical column order, grid order)."""
        rows = self.as_rows(columns)
        if not rows:
            Path(path).write_text("")
            return
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    # -- round-trip --------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe encoding (see :meth:`from_json_dict`)."""
        return {
            "name": self.name,
            "workers": self.workers,
            "cached_points": self.cached_points,
            "backend": self.backend,
            "optimum_requests": self.optimum_requests,
            "records": [record.to_json_dict() for record in self.records],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ResultSet":
        """Rebuild a result set from :meth:`to_json_dict` output."""
        return cls(
            name=str(payload["name"]),
            records=tuple(
                RunRecord.from_json_dict(item) for item in payload["records"]
            ),
            workers=int(payload.get("workers", 0)),
            cached_points=int(payload.get("cached_points", 0)),
            backend=str(payload.get("backend", "serial")),
            optimum_requests=int(payload.get("optimum_requests", 0)),
        )
