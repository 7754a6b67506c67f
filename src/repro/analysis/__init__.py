"""Experiment harness: the batched runner, its store and backends, reports.

Every grid, sweep and ratio experiment goes through one pipeline, the
batched runner of :mod:`repro.analysis.runner`: it emits a
:class:`RunRecord` per algorithm x instance evaluation, collected into a
:class:`ResultSet` with uniform JSON/CSV emission, and with
``compute_optimum=True`` every record also carries the instance's optimum
and the approximation ratios.  Execution is pluggable
(:mod:`repro.analysis.backends`: serial/thread/process with adaptive
chunking) and persistence is durable (:mod:`repro.analysis.store`: one
WAL-mode SQLite file holding run records, optimum records and resumable
sweep manifests).  :mod:`repro.analysis.optimal` is the brute-force
optimum the LP is tested against.
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
from .optimal import BruteForceResult, brute_force_optimal_stall
from .reporting import (
    format_comparison,
    format_ratio_table,
    format_result_set,
    format_table,
)
from .results import RUN_RECORD_COLUMNS, ResultSet, RunRecord, safe_ratio
from .runner import (
    ExperimentPoint,
    ExperimentSpec,
    evaluate_instances,
    point_cache_key,
    prepare_sweep,
    run_experiments,
    sweep_key_for,
)
from .store import RunStore, SweepProgress, store_path_for

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
    "run_experiments",
    "BruteForceResult",
    "brute_force_optimal_stall",
    "format_comparison",
    "format_ratio_table",
    "format_result_set",
    "format_table",
]
