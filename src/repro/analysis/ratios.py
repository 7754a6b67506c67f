"""Measured approximation ratios of prefetching algorithms against the optimum.

The Section 2 experiments all reduce to the same measurement: run one or more
algorithms over an instance, compute the optimal elapsed (or stall) time, and
report the ratios next to the theoretical bounds.  This module provides that
measurement on top of the unified run-record model: each algorithm run yields
a full :class:`~repro.analysis.results.RunRecord` (instance identity,
metrics, optimum, ratios), and the :class:`RatioReport` wraps the records of
one instance together with the compact per-algorithm
:class:`AlgorithmMeasurement` rows and the theoretical bounds the reporting
layer tabulates.

Optimum computation is routed through the optimum service
(:mod:`repro.lp.service`) rather than bespoke LP calls: instances are
canonically normalized and fingerprinted, optima are cached, and every
record carries the solve wall time.  Passing ``store=`` (a
:class:`~repro.analysis.store.RunStore`) persists and reuses those optima
through the same SQLite file the batched runner fills, so a ``repro
compare`` on an instance a sweep already solved is a pure lookup.  For
grid-shaped ratio experiments prefer
``ExperimentSpec(compute_optimum=True)`` on the batched runner — it
deduplicates and fans out the solves; this module remains the per-instance
measurement (``repro compare``, ``run_sweep``) emitting the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..algorithms.base import PrefetchAlgorithm
from ..core.bounds import SingleDiskBounds
from ..disksim.executor import simulate_with_engine
from ..disksim.instance import ProblemInstance
from ..errors import ConfigurationError
from ..lp.service import OptimumService, SolverConfig
from .results import ResultSet, RunRecord

__all__ = ["AlgorithmMeasurement", "RatioReport", "measure_ratios", "measure_parallel_stall"]


@dataclass(frozen=True)
class AlgorithmMeasurement:
    """One algorithm's performance on one instance (the compact ratio row)."""

    algorithm: str
    stall_time: int
    elapsed_time: int
    num_fetches: int
    elapsed_ratio: float
    stall_ratio: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (see :meth:`from_dict`)."""
        return {
            "algorithm": self.algorithm,
            "stall_time": self.stall_time,
            "elapsed_time": self.elapsed_time,
            "num_fetches": self.num_fetches,
            "elapsed_ratio": self.elapsed_ratio,
            "stall_ratio": self.stall_ratio,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "AlgorithmMeasurement":
        """Rebuild a measurement from :meth:`as_dict` output."""
        return cls(
            algorithm=str(payload["algorithm"]),
            stall_time=int(payload["stall_time"]),
            elapsed_time=int(payload["elapsed_time"]),
            num_fetches=int(payload["num_fetches"]),
            elapsed_ratio=float(payload["elapsed_ratio"]),
            stall_ratio=float(payload["stall_ratio"]),
        )

    @classmethod
    def from_record(cls, record: RunRecord) -> "AlgorithmMeasurement":
        """The compact view of a ratio-carrying :class:`RunRecord`."""
        return cls(
            algorithm=record.algorithm,
            stall_time=record.metrics.stall_time,
            elapsed_time=record.metrics.elapsed_time,
            num_fetches=record.metrics.num_fetches,
            elapsed_ratio=record.elapsed_ratio if record.elapsed_ratio is not None else 1.0,
            stall_ratio=record.stall_ratio if record.stall_ratio is not None else 1.0,
        )


@dataclass(frozen=True)
class RatioReport:
    """Measured ratios of several algorithms on one instance, plus the bounds."""

    instance_description: str
    optimal_stall: int
    optimal_elapsed: int
    measurements: Tuple[AlgorithmMeasurement, ...]
    bounds: Optional[SingleDiskBounds] = None
    records: Tuple[RunRecord, ...] = ()

    def measurement(self, algorithm: str) -> AlgorithmMeasurement:
        """The measurement row for ``algorithm`` (exact name match)."""
        for m in self.measurements:
            if m.algorithm == algorithm:
                return m
        raise KeyError(f"no measurement for algorithm {algorithm!r}")

    def worst_elapsed_ratio(self) -> float:
        """Largest elapsed-time ratio across all measured algorithms."""
        return max(m.elapsed_ratio for m in self.measurements)

    def to_result_set(self, name: str = "ratios") -> ResultSet:
        """The full run records of this report as a :class:`ResultSet`."""
        return ResultSet(name=name, records=self.records)

    def as_rows(self) -> List[Dict[str, object]]:
        """Row dictionaries for the reporting table helpers."""
        rows = []
        for m in self.measurements:
            row = {
                "algorithm": m.algorithm,
                "stall": m.stall_time,
                "elapsed": m.elapsed_time,
                "fetches": m.num_fetches,
                "elapsed_ratio": round(m.elapsed_ratio, 4),
                "stall_ratio": round(m.stall_ratio, 4),
            }
            rows.append(row)
        return rows

    def to_json_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe encoding (see :meth:`from_json_dict`).

        The bounds are stored as their defining ``(k, F)`` pair — every
        derived value of :class:`SingleDiskBounds` is a closed form over it.
        """
        return {
            "instance_description": self.instance_description,
            "optimal_stall": self.optimal_stall,
            "optimal_elapsed": self.optimal_elapsed,
            "measurements": [m.as_dict() for m in self.measurements],
            "bounds": None if self.bounds is None else {
                "cache_size": self.bounds.cache_size,
                "fetch_time": self.bounds.fetch_time,
            },
            "records": [record.to_json_dict() for record in self.records],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "RatioReport":
        """Rebuild a report from :meth:`to_json_dict` output."""
        bounds = payload.get("bounds")
        return cls(
            instance_description=str(payload["instance_description"]),
            optimal_stall=int(payload["optimal_stall"]),
            optimal_elapsed=int(payload["optimal_elapsed"]),
            measurements=tuple(
                AlgorithmMeasurement.from_dict(m) for m in payload["measurements"]
            ),
            bounds=None if bounds is None else SingleDiskBounds(
                cache_size=int(bounds["cache_size"]),
                fetch_time=int(bounds["fetch_time"]),
            ),
            records=tuple(
                RunRecord.from_json_dict(r) for r in payload.get("records", ())
            ),
        )


def _run_records(
    instance: ProblemInstance,
    algorithms: Sequence[PrefetchAlgorithm],
    *,
    optimal_elapsed: int,
    optimal_stall: int,
    point: Optional[str] = None,
    solve_seconds: Optional[float] = None,
) -> Tuple[RunRecord, ...]:
    """Simulate every algorithm and record it against the given optimum."""
    label = point if point is not None else instance.describe()
    records = []
    for algorithm in algorithms:
        result, engine = simulate_with_engine(instance, algorithm)
        records.append(
            RunRecord.from_simulation(
                result,
                point=label,
                algorithm_spec=algorithm.spec or result.policy_name,
                engine=engine,
                optimal_stall=optimal_stall,
                optimal_elapsed=optimal_elapsed,
                optimum_solve_seconds=solve_seconds,
            )
        )
    return tuple(records)


def measure_ratios(
    instance: ProblemInstance,
    algorithms: Sequence[PrefetchAlgorithm],
    *,
    optimal_elapsed: Optional[int] = None,
    optimal_stall: Optional[int] = None,
    point: Optional[str] = None,
    service: Optional[OptimumService] = None,
    store=None,
) -> RatioReport:
    """Run ``algorithms`` on a single-disk ``instance`` and compare to the optimum.

    The optimum is computed through the optimum service
    (:class:`~repro.lp.service.OptimumService` — canonical fingerprint,
    cached, normalized instance) unless both reference values are supplied
    (the adversarial experiments pass the analytically known optimum to
    avoid re-solving the LP on large constructions).  Passing a shared
    ``service`` lets callers reuse cached optima across measurements;
    passing ``store`` (a :class:`~repro.analysis.store.RunStore`) backs the
    default service with the durable store the batched runner shares.
    """
    if instance.num_disks != 1:
        raise ConfigurationError("measure_ratios handles single-disk instances; use "
                                 "measure_parallel_stall for D > 1")
    solve_seconds: Optional[float] = None
    if optimal_elapsed is None or optimal_stall is None:
        service = service or OptimumService(store=store)
        record = service.optimum(instance)
        optimal_elapsed = record.elapsed_time
        optimal_stall = record.stall_time
        solve_seconds = record.solve_seconds

    records = _run_records(
        instance, algorithms,
        optimal_elapsed=optimal_elapsed, optimal_stall=optimal_stall, point=point,
        solve_seconds=solve_seconds,
    )
    return RatioReport(
        instance_description=instance.describe(),
        optimal_stall=optimal_stall,
        optimal_elapsed=optimal_elapsed,
        measurements=tuple(AlgorithmMeasurement.from_record(r) for r in records),
        bounds=SingleDiskBounds(instance.cache_size, instance.fetch_time),
        records=records,
    )


def measure_parallel_stall(
    instance: ProblemInstance,
    algorithms: Sequence[PrefetchAlgorithm],
    *,
    method: str = "auto",
    point: Optional[str] = None,
    service: Optional[OptimumService] = None,
    store=None,
) -> RatioReport:
    """Run ``algorithms`` on a parallel-disk instance and compare stall times
    against the Theorem 4 schedule (which is itself at most the optimum).

    The Theorem 4 solve is routed through the optimum service as well, so a
    shared ``service`` — or a ``store`` (the batched runner's SQLite
    :class:`~repro.analysis.store.RunStore`) — deduplicates it with the
    batched runner's optima.
    """
    if service is None:
        service = OptimumService(config=SolverConfig(method=method), store=store)
    elif service.config.method != method:
        raise ConfigurationError(
            f"measure_parallel_stall called with method={method!r} but the "
            f"shared service is configured with {service.config.method!r}"
        )
    record = service.optimum(instance)
    records = _run_records(
        instance, algorithms,
        optimal_elapsed=record.elapsed_time,
        optimal_stall=max(record.stall_time, 0),
        point=point,
        solve_seconds=record.solve_seconds,
    )
    return RatioReport(
        instance_description=instance.describe(),
        optimal_stall=record.stall_time,
        optimal_elapsed=record.elapsed_time,
        measurements=tuple(AlgorithmMeasurement.from_record(r) for r in records),
        bounds=None,
        records=records,
    )
