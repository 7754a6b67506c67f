#!/usr/bin/env python3
"""Engine throughput microbenchmark: loop engine vs scan vs vector batch.

Thin wrapper over :mod:`repro.analysis.enginebench` (the same measurement
core the ``repro bench engine`` subcommand runs).  Measures ``simulate()``
throughput (requests/second) of the loop and scan engines plus the batched
vector engine (``simulate_batch`` over same-shape instance stacks) on
5,000-request single-disk workloads, and writes the numbers to
``BENCH_engine.json`` next to this script, so the performance trajectory is
tracked from PR to PR.  The ``loop`` and ``zipf-small-ws`` workloads are the
regimes where the scan engine's per-decision O(n) re-scan turns quadratic;
the loop engine is expected to be >= 5x faster there.  The vector batch is
expected to stay well above 5x the loop engine on every cell, the floor the
CI perf gate (``repro bench engine --gate``) enforces.

Run with:  python benchmarks/bench_engine_speed.py [output.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.enginebench import format_engine_report, run_engine_benchmark


def run_benchmark() -> dict:
    """Measure all workload x algorithm cells and return the report dict."""
    return run_engine_benchmark()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    report = run_benchmark()
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(format_engine_report(report))
    print(f"wrote {out_path}")
    if report["worst_small_ws_speedup"] < 5.0:
        print("WARNING: loop-vs-scan speedup below the 5x acceptance threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
