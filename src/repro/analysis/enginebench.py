"""Engine throughput benchmark: loop vs scan vs vector-batch requests/second.

One measurement core shared by ``benchmarks/bench_engine_speed.py`` (which
writes ``BENCH_engine.json`` at the repository root) and the ``repro bench
engine`` CLI subcommand, so the published numbers are reproducible without
digging in ``benchmarks/``.  Three single-disk workload regimes are timed
for each algorithm:

* ``zipf-hot`` — a hot zipf working set the size of the cache neighbourhood;
  the regime the vector engine's batch mode targets (many seeds of the same
  shape stacked into one kernel pass).
* ``zipf-small-ws`` / ``loop`` — the small-working-set regimes where the
  scan engine's per-decision re-scan turns quadratic; the historical
  ``loop``-vs-``scan`` ≥ 5x expectation lives here.

Per cell the benchmark reports the loop (indexed event loop) and scan
throughput of :func:`~repro.disksim.executor.simulate`, plus the batched
vector throughput of :func:`~repro.disksim.vector.simulate_batch` over
``batch_size`` same-shape instances, and the derived speedups.  The loop
and the batch are timed in ``reps`` alternating pairs, the first included:
the reported seconds are the medians of each side, and
``vector_batch_speedup`` (vector batch vs the indexed loop) is the median
of the per-pair speedups.  From three pairs up, one lucky or unlucky pair
cannot decide a cell; with two (CI's ``--reps 2``) the median is the two
pairs' mean, so an outlier pair still moves the cell by half its effect.
That column is the number the CI perf gate enforces: :func:`gate_failures`
checks every cell against a stored floor file (``BENCH_engine_floor.json``,
beside ``BENCH_engine.json``) and the ≥ :data:`GATE_MIN_SPEEDUP` x-loop
bar, so hot-path regressions fail loudly instead of silently.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from ..algorithms.registry import make_algorithm
from ..disksim.executor import simulate
from ..disksim.instance import ProblemInstance
from ..disksim.vector import simulate_batch
from ..errors import ConfigurationError
from ..workloads import looping_scan, zipf

__all__ = [
    "ALGORITHMS",
    "BATCH_SIZE",
    "GATE_MIN_SPEEDUP",
    "N_REQUESTS",
    "WORKLOADS",
    "build_instances",
    "default_floor",
    "format_engine_report",
    "gate_failures",
    "run_engine_benchmark",
]

#: Default request-sequence length of every benchmark cell.
N_REQUESTS = 5000

#: Default number of same-shape instances stacked into one vector pass.
BATCH_SIZE = 256

#: The perf gate's lower bar on ``vector_batch_speedup`` in every cell.
GATE_MIN_SPEEDUP = 5.0

#: Workload regimes timed per algorithm (see the module docstring).
WORKLOADS = ("zipf-hot", "zipf-small-ws", "loop")

#: Algorithm specs timed per workload (both vector-kernel plan families).
ALGORITHMS = ("aggressive", "delay:d=3")

#: Every cell runs with this cache size / fetch time (the BENCH_engine
#: configuration the seed benchmark established).
_CACHE_SIZE = 64
_FETCH_TIME = 10


def build_instances(label: str, num_requests: int, count: int) -> List[ProblemInstance]:
    """``count`` same-shape instances of the ``label`` workload regime.

    Seeded regimes (the zipf families) vary the seed per instance — the
    realistic batch-mode shape, "the same grid point at many seeds" — while
    the deterministic ``loop`` regime repeats one instance; the kernel does
    identical per-row work either way.
    """
    if label == "zipf-hot":
        make = lambda i: zipf(num_requests, 120, skew=1.0, seed=7 + i)  # noqa: E731
    elif label == "zipf-small-ws":
        make = lambda i: zipf(num_requests, 70, skew=1.1, seed=3 + i)  # noqa: E731
    elif label == "loop":
        loops = num_requests // 60 + 1
        make = lambda i: looping_scan(60, loops)[:num_requests]  # noqa: E731
    else:
        raise ValueError(f"unknown benchmark workload {label!r}")
    return [
        ProblemInstance.single_disk(
            make(i), cache_size=_CACHE_SIZE, fetch_time=_FETCH_TIME
        )
        for i in range(count)
    ]


def _time_single(instance: ProblemInstance, algorithm_spec: str, engine: str) -> float:
    """Wall time of one ``simulate()`` call."""
    algorithm = make_algorithm(algorithm_spec)
    start = time.perf_counter()
    simulate(instance, algorithm, engine=engine)
    return time.perf_counter() - start


def _time_pairs(
    instances: List[ProblemInstance], algorithm_spec: str, reps: int
) -> List[Tuple[float, float]]:
    """``reps`` alternating ``(loop, batch)`` wall times: one loop-engine
    ``simulate()`` of the first instance, then one ``simulate_batch()`` pass
    over all of them."""
    pairs: List[Tuple[float, float]] = []
    for _ in range(reps):
        loop_seconds = _time_single(instances[0], algorithm_spec, "loop")
        start = time.perf_counter()
        simulate_batch(instances, algorithm_spec)
        pairs.append((loop_seconds, time.perf_counter() - start))
    return pairs


def run_engine_benchmark(
    *,
    num_requests: int = N_REQUESTS,
    batch_size: int = BATCH_SIZE,
    include_scan: bool = True,
    reps: int = 3,
) -> Dict[str, object]:
    """Measure every workload x algorithm cell and return the report dict.

    Each cell times ``reps`` alternating loop/batch pairs (see the module
    docstring) and one scan run.  ``include_scan=False`` skips the (slow,
    quadratic) scan reference rows — the configuration the CI perf gate
    runs, which only needs the loop-vs-vector comparison.  The report is JSON-ready (rounded floats,
    sorted-key stable) and carries the grid configuration alongside the
    cells so a stored report is self-describing.
    """
    results: Dict[str, Dict[str, object]] = {}
    worst_small_ws = float("inf")
    worst_vector = float("inf")
    for label in WORKLOADS:
        instances = build_instances(label, num_requests, batch_size)
        for algorithm in ALGORITHMS:
            pairs = _time_pairs(instances, algorithm, reps)
            loop_seconds = median(loop for loop, _ in pairs)
            batch_seconds = median(batch for _, batch in pairs)
            loop_rps = num_requests / loop_seconds
            vector_rps = batch_size * num_requests / batch_seconds
            vector_speedup = median(batch_size * loop / batch for loop, batch in pairs)
            cell: Dict[str, object] = {
                "num_requests": num_requests,
                "cache_size": _CACHE_SIZE,
                "fetch_time": _FETCH_TIME,
                "loop_seconds": round(loop_seconds, 6),
                "loop_requests_per_second": round(loop_rps, 1),
                "vector_batch_size": batch_size,
                "vector_batch_seconds": round(batch_seconds, 6),
                "vector_batch_requests_per_second": round(vector_rps, 1),
                "vector_batch_speedup": round(vector_speedup, 2),
            }
            worst_vector = min(worst_vector, vector_speedup)
            if include_scan:
                scan_seconds = _time_single(instances[0], algorithm, "scan")
                loop_vs_scan = scan_seconds / loop_seconds
                cell["scan_seconds"] = round(scan_seconds, 6)
                cell["scan_requests_per_second"] = round(num_requests / scan_seconds, 1)
                cell["speedup"] = round(loop_vs_scan, 2)
                # Only the small-working-set regimes carry the >= 5x
                # loop-vs-scan expectation (see the module docstring).
                if label != "zipf-hot":
                    worst_small_ws = min(worst_small_ws, loop_vs_scan)
            results[f"{label}/{algorithm}"] = cell
    report: Dict[str, object] = {
        "benchmark": "engine-throughput",
        "num_requests": num_requests,
        "batch_size": batch_size,
        "worst_vector_batch_speedup": round(worst_vector, 2),
        "results": results,
    }
    if include_scan:
        report["worst_small_ws_speedup"] = round(worst_small_ws, 2)
    return report


def format_engine_report(report: Dict[str, object]) -> str:
    """Human-readable cell table of a :func:`run_engine_benchmark` report."""
    lines = []
    for label, cell in report["results"].items():
        parts = [f"{label:28s} loop {cell['loop_requests_per_second']:>12,.0f} req/s"]
        if "scan_requests_per_second" in cell:
            parts.append(f"scan {cell['scan_requests_per_second']:>10,.0f} req/s")
        parts.append(
            f"vector[B={cell['vector_batch_size']}] "
            f"{cell['vector_batch_requests_per_second']:>12,.0f} req/s"
            f" ({cell['vector_batch_speedup']:>5.1f}x loop)"
        )
        lines.append("   ".join(parts))
    lines.append(
        f"worst vector-batch speedup over loop: {report['worst_vector_batch_speedup']}x"
    )
    if "worst_small_ws_speedup" in report:
        lines.append(
            f"worst small-working-set loop-vs-scan speedup: {report['worst_small_ws_speedup']}x"
        )
    return "\n".join(lines)


def default_floor() -> Dict[str, object]:
    """The built-in gate floor used when no floor file is given.

    Deliberately loose on absolute throughput (CI machines vary widely);
    the relative ≥ :data:`GATE_MIN_SPEEDUP` x-loop bar is the real teeth.
    """
    return {
        "gate": "engine-vector-perf",
        "min_vector_batch_requests_per_second": 200000.0,
        "min_vector_batch_speedup": GATE_MIN_SPEEDUP,
    }


def gate_failures(
    report: Dict[str, object], floor: Optional[Dict[str, object]] = None
) -> List[str]:
    """The perf-gate violations of ``report`` against ``floor`` (empty = pass).

    Every cell must reach the floor's absolute vector-batch throughput and
    its vector-batch speedup over the loop engine; the floor file may also
    pin ``num_requests`` / ``batch_size`` so the gate always measures the
    grid its numbers were calibrated on (checked here, not re-run).
    """
    floor = floor or default_floor()
    failures = []
    for axis in ("num_requests", "batch_size"):
        want = floor.get(axis)
        if want is not None and report.get(axis) != want:
            failures.append(
                f"gate grid mismatch: {axis}={report.get(axis)} but the floor "
                f"was calibrated at {axis}={want}"
            )
    min_rps = float(floor.get("min_vector_batch_requests_per_second", 0.0))
    min_speedup = float(floor.get("min_vector_batch_speedup", GATE_MIN_SPEEDUP))
    for label, cell in report["results"].items():
        rps = float(cell["vector_batch_requests_per_second"])
        speedup = float(cell["vector_batch_speedup"])
        if rps < min_rps:
            failures.append(
                f"{label}: vector batch {rps:,.0f} req/s is below the floor "
                f"of {min_rps:,.0f} req/s"
            )
        if speedup < min_speedup:
            failures.append(
                f"{label}: vector batch speedup {speedup:.2f}x loop is below "
                f"the {min_speedup:.1f}x gate"
            )
    return failures


def load_floor(path) -> Dict[str, object]:
    """Read a gate floor file (see :func:`gate_failures` for its schema).

    A missing or unreadable file, malformed JSON or a document that is not
    a JSON object is a :class:`ConfigurationError` naming the path.
    """
    try:
        floor = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read the gate floor {path}: {exc}") from exc
    if not isinstance(floor, dict):
        raise ConfigurationError(
            f"gate floor {path} must hold a JSON object, got {type(floor).__name__}"
        )
    return floor
