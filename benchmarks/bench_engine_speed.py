#!/usr/bin/env python3
"""Engine throughput benchmark and perf gate: loop vs scan vs vector batch.

Three single-disk workload regimes are timed for each algorithm:

* ``zipf-hot`` — a hot zipf working set the size of the cache neighbourhood;
  the regime the vector engine's batch mode targets (many seeds of the same
  shape stacked into one kernel pass).
* ``zipf-small-ws`` / ``loop`` — the small-working-set regimes where the
  scan engine's per-decision re-scan turns quadratic; the loop engine is
  expected to be at least 5x faster than scan there.

Per cell the benchmark reports the loop (indexed event loop) and scan
throughput of :func:`~repro.disksim.executor.simulate`, plus the batched
vector throughput of :func:`~repro.disksim.vector.simulate_batch` over
``batch_size`` same-shape instances, and the derived speedups.  The loop
and the batch are timed in alternating pairs, the first included: the
reported seconds are the medians of each side, and ``vector_batch_speedup``
(vector batch vs the indexed loop) is the median of the per-pair speedups.
From three pairs up, one lucky or unlucky pair cannot decide a cell; with
two (the gate) the median is the two pairs' mean, so an outlier pair still
moves the cell by half its effect.

``BENCH_engine_floor.json`` at the repository root is the one source of
the grid (requests per instance, instances per batch) and of the gate's
bars (vector-batch requests/second and speedup over the loop engine).

Run with:  python benchmarks/bench_engine_speed.py [--gate] [OUT]

Without ``--gate`` it times 3 pairs per cell plus the scan rows, writes the
report to OUT (default ``BENCH_engine.json`` at the repository root) and
exits 1 when the small-working-set loop-vs-scan speedup is below 5x.  With
``--gate`` it times 2 pairs per cell without the scan rows, writes the
report to OUT only when given, prints one ``PERF GATE:`` line on stderr per
cell below the floor's bars and exits 1, or prints ``perf gate passed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

from repro.algorithms.registry import make_algorithm
from repro.disksim.executor import simulate
from repro.disksim.instance import ProblemInstance
from repro.disksim.vector import simulate_batch
from repro.workloads import looping_scan, zipf

ROOT = Path(__file__).resolve().parent.parent
FLOOR_PATH = ROOT / "BENCH_engine_floor.json"
REPORT_PATH = ROOT / "BENCH_engine.json"

#: Workload regimes timed per algorithm (see the module docstring).
WORKLOADS = ("zipf-hot", "zipf-small-ws", "loop")

#: Algorithm specs timed per workload (both vector-kernel plan families).
ALGORITHMS = ("aggressive", "delay:d=3")

#: Every cell runs with this cache size / fetch time.
CACHE_SIZE = 64
FETCH_TIME = 10

#: The loop engine's bar over scan on the small-working-set regimes.
MIN_SCAN_SPEEDUP = 5.0


def build_instances(label: str, num_requests: int, count: int) -> list:
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
    else:
        loops = num_requests // 60 + 1
        make = lambda i: looping_scan(60, loops)[:num_requests]  # noqa: E731
    return [
        ProblemInstance.single_disk(make(i), cache_size=CACHE_SIZE, fetch_time=FETCH_TIME)
        for i in range(count)
    ]


def _time_single(instance: ProblemInstance, algorithm_spec: str, engine: str) -> float:
    """Wall time of one ``simulate()`` call."""
    algorithm = make_algorithm(algorithm_spec)
    start = time.perf_counter()
    simulate(instance, algorithm, engine=engine)
    return time.perf_counter() - start


def _time_pairs(instances: list, algorithm_spec: str, reps: int) -> list:
    """``reps`` alternating ``(loop, batch)`` wall times: one loop-engine
    ``simulate()`` of the first instance, then one ``simulate_batch()`` pass
    over all of them."""
    pairs = []
    for _ in range(reps):
        loop_seconds = _time_single(instances[0], algorithm_spec, "loop")
        start = time.perf_counter()
        simulate_batch(instances, algorithm_spec)
        pairs.append((loop_seconds, time.perf_counter() - start))
    return pairs


def run_engine_benchmark(
    num_requests: int, batch_size: int, *, include_scan: bool, reps: int
) -> dict:
    """Measure every workload x algorithm cell and return the JSON-ready report."""
    results = {}
    worst_small_ws = float("inf")
    for label in WORKLOADS:
        instances = build_instances(label, num_requests, batch_size)
        for algorithm in ALGORITHMS:
            pairs = _time_pairs(instances, algorithm, reps)
            loop_seconds = median(loop for loop, _ in pairs)
            batch_seconds = median(batch for _, batch in pairs)
            cell = {
                "num_requests": num_requests,
                "cache_size": CACHE_SIZE,
                "fetch_time": FETCH_TIME,
                "loop_seconds": round(loop_seconds, 6),
                "loop_requests_per_second": round(num_requests / loop_seconds, 1),
                "vector_batch_size": batch_size,
                "vector_batch_seconds": round(batch_seconds, 6),
                "vector_batch_requests_per_second": round(
                    batch_size * num_requests / batch_seconds, 1
                ),
                "vector_batch_speedup": round(
                    median(batch_size * loop / batch for loop, batch in pairs), 2
                ),
            }
            if include_scan:
                scan_seconds = _time_single(instances[0], algorithm, "scan")
                cell["scan_seconds"] = round(scan_seconds, 6)
                cell["scan_requests_per_second"] = round(num_requests / scan_seconds, 1)
                cell["speedup"] = round(scan_seconds / loop_seconds, 2)
                if label != "zipf-hot":
                    worst_small_ws = min(worst_small_ws, scan_seconds / loop_seconds)
            results[f"{label}/{algorithm}"] = cell
    report = {
        "benchmark": "engine-throughput",
        "num_requests": num_requests,
        "batch_size": batch_size,
        "worst_vector_batch_speedup": min(
            cell["vector_batch_speedup"] for cell in results.values()
        ),
        "results": results,
    }
    if include_scan:
        report["worst_small_ws_speedup"] = round(worst_small_ws, 2)
    return report


def format_engine_report(report: dict) -> str:
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


def gate_failures(report: dict, floor: dict) -> list:
    """One message per cell below the floor's vector-batch bars (empty = pass)."""
    min_rps = floor["min_vector_batch_requests_per_second"]
    min_speedup = floor["min_vector_batch_speedup"]
    failures = []
    for label, cell in report["results"].items():
        rps = cell["vector_batch_requests_per_second"]
        speedup = cell["vector_batch_speedup"]
        if rps < min_rps or speedup < min_speedup:
            failures.append(
                f"{label}: vector batch {rps:,.0f} req/s at {speedup:.2f}x loop is "
                f"below the floor of {min_rps:,.0f} req/s and {min_speedup:.1f}x loop"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true",
                        help="enforce the floor's bars: 2 pairs per cell, no scan rows")
    parser.add_argument("out", nargs="?", type=Path, default=None,
                        help="report path (default without --gate: BENCH_engine.json)")
    args = parser.parse_args(argv)
    floor = json.loads(FLOOR_PATH.read_text())
    report = run_engine_benchmark(
        floor["num_requests"], floor["batch_size"],
        include_scan=not args.gate, reps=2 if args.gate else 3,
    )
    print(format_engine_report(report))
    out = args.out or (None if args.gate else REPORT_PATH)
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if args.gate:
        failures = gate_failures(report, floor)
        for failure in failures:
            print(f"PERF GATE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("perf gate passed")
    elif report["worst_small_ws_speedup"] < MIN_SCAN_SPEEDUP:
        print("WARNING: loop-vs-scan speedup below the 5x acceptance threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
