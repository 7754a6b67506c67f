"""Measurement harness: brute-force optima, ratio measurement, sweeps, reports.

Every producer in this package emits the unified run-record model of
:mod:`repro.analysis.results`: a :class:`RunRecord` per algorithm x instance
evaluation, collected into :class:`ResultSet` s with uniform JSON/CSV
emission — whether the records come from the batched runner, the LP-backed
ratio harness or an in-process sweep.  Execution is pluggable
(:mod:`repro.analysis.backends`: serial/thread/process with adaptive
chunking) and persistence is durable (:mod:`repro.analysis.store`: one
WAL-mode SQLite file holding run records, optimum records and resumable
sweep manifests).
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    adaptive_chunk_size,
    make_backend,
)
from .compare import ScheduleDiff, diff_schedules, summarize_result
from .optimal import BruteForceResult, brute_force_optimal_stall
from .ratios import AlgorithmMeasurement, RatioReport, measure_parallel_stall, measure_ratios
from .reporting import (
    format_comparison,
    format_ratio_table,
    format_report,
    format_result_set,
    format_table,
)
from .results import RUN_RECORD_COLUMNS, ResultSet, RunRecord, safe_ratio
from .runner import (
    ExperimentPoint,
    ExperimentSpec,
    evaluate_instances,
    instance_fingerprint,
    point_cache_key,
    prepare_sweep,
    run_experiments,
    sweep_key_for,
)
from .store import RunStore, SweepProgress, store_path_for
from .sweep import SweepPoint, run_sweep

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "adaptive_chunk_size",
    "make_backend",
    "RunStore",
    "SweepProgress",
    "store_path_for",
    "point_cache_key",
    "prepare_sweep",
    "sweep_key_for",
    "RUN_RECORD_COLUMNS",
    "RunRecord",
    "ResultSet",
    "safe_ratio",
    "ExperimentPoint",
    "ExperimentSpec",
    "evaluate_instances",
    "instance_fingerprint",
    "run_experiments",
    "ScheduleDiff",
    "diff_schedules",
    "summarize_result",
    "BruteForceResult",
    "brute_force_optimal_stall",
    "AlgorithmMeasurement",
    "RatioReport",
    "measure_parallel_stall",
    "measure_ratios",
    "format_comparison",
    "format_ratio_table",
    "format_report",
    "format_result_set",
    "format_table",
    "SweepPoint",
    "run_sweep",
]
