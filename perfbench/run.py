#!/usr/bin/env python3
"""Benchmark harness: one experiment grid, run through the public runner.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-mixed [--seed N]
                             [--seconds S] [--trace 0|1]

Every workload is a closed loop: one client submits a whole grid to
``repro.analysis.runner.run_experiments`` with a fresh run store (as a
``--cache-dir`` run does), waits for it, and submits the next one.

``--trace 0`` alternates cold passes with warm re-runs against the store each
cold pass filled, for the measuring window, and prints the end-to-end
metrics.  ``--trace 1`` runs the grid untraced, with the layer hooks of
``spans.py`` installed, and untraced again, and prints the per-layer metrics.
Each line is ``name value unit``; the last line is one JSON object.  Every
run checks the output (see ``grids.check_rows``); a failed check counts the
run's points as failed.

``--seed`` shifts every workload's seed axis.  A workload timed at the
default seed base (``ratios-lp``) runs and checks its grid at ``--seed``
once, untimed, after the measured passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import spans as layer_trace  # noqa: E402
from grids import (  # noqa: E402
    WORKLOADS,
    Workload,
    check_rows,
    digest,
    fingerprint_mismatches,
    record_counts,
)

DEFAULT_SEED = 0
#: Fresh-process set-ups timed per run (the median is reported).
SETUP_REPEATS = 5

#: name -> (unit, better); the order is the print order.
END_TO_END = {
    "points_per_s": ("1/s", "higher"),
    "requests_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Printed with the end-to-end metrics but not in the result object.  The
#: first two are zero on some workload (no optima on the sweeps, no failures
#: when correct); store-hit passes swing more between runs than any bound
#: allows (see README.md).
END_TO_END_EXTRA = {
    "optima_per_s": ("1/s", "higher"),
    "failed_frac": ("frac", "lower"),
    "warm_points_per_s": ("1/s", "higher"),
}
PER_LAYER = {
    "workloads.builds": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "algorithms.resets": ("count", "lower"),
    "algorithms.reset_s": ("s", "lower"),
    "paging.min_s": ("s", "lower"),
    "paging.min_faults": ("count", "lower"),
    "disksim.loop.points": ("count", "lower"),
    "disksim.loop.s": ("s", "lower"),
    "disksim.loop.req_per_s": ("1/s", "higher"),
    "disksim.vector.batches": ("count", "lower"),
    "disksim.vector.rows": ("count", "higher"),
    "disksim.vector.fallbacks": ("count", "lower"),
    "disksim.vector.s": ("s", "lower"),
    "disksim.vector.req_per_s": ("1/s", "higher"),
    "disksim.vector.share": ("frac", "higher"),
    "lp.solves": ("count", "lower"),
    "lp.milp_solves": ("count", "lower"),
    "lp.intervals": ("count", "lower"),
    "lp.normalize_s": ("s", "lower"),
    "lp.model_s": ("s", "lower"),
    "lp.relax_s": ("s", "lower"),
    "lp.milp_s": ("s", "lower"),
    "lp.extract_s": ("s", "lower"),
    "lp.replay_s": ("s", "lower"),
    "lp.solve_s": ("s", "lower"),
    "store.puts": ("count", "lower"),
    "store.put_s": ("s", "lower"),
    "store.gets": ("count", "lower"),
    "store.get_s": ("s", "lower"),
    "store.hit_frac": ("frac", "higher"),
    "store.manifest_s": ("s", "lower"),
    "store.open_s": ("s", "lower"),
    "backends.tasks": ("count", "lower"),
    "backends.map_s": ("s", "lower"),
    "backends.task_bytes": ("bytes", "lower"),
    "backends.result_bytes": ("bytes", "lower"),
    "backends.pickle_s": ("s", "lower"),
    "runner.keys_s": ("s", "lower"),
    "runner.plan_s": ("s", "lower"),
    "runner.task_s": ("s", "lower"),
    "runner.emit_s": ("s", "lower"),
    "trace.covered_frac": ("frac", "higher"),
    "trace.overhead": ("frac", "lower"),
    "failed_frac": ("frac", "lower"),
}
#: Per-layer values derived in the parent rather than observed at the layer.
COMPUTED = ("backends.task_bytes", "backends.result_bytes", "backends.pickle_s")
#: Layers that run inside a task; on a process backend they are measured on
#: the same grid under the serial backend.
WORKER_LAYERS = ("workloads.", "algorithms.", "paging.", "disksim.", "lp.", "runner.task_s")

SETUP_CODE = (
    "import json, sys\n"
    "from repro.analysis.runner import ExperimentSpec\n"
    "ExperimentSpec(**json.loads(sys.argv[1]))\n"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_program() -> None:
    """Import the program from ``src/`` of this checkout (never an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, not {SRC}")


@dataclass
class Pass:
    """One submitted grid: its emitted JSON and how long it took."""

    document: str
    points: int
    cached_points: int
    optimum_requests: int
    seconds: float

    @property
    def rows(self) -> List[Dict[str, object]]:
        return json.loads(self.document)["results"]


@dataclass
class Ledger:
    """Points attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, points: int, problems: List[str]) -> None:
        self.attempted += points
        if problems:
            self.failed += points
            self.problems.extend(problems)


def submit(workload: Workload, base: int, cache_dir: str, **override) -> Pass:
    """Run the grid once against the store in ``cache_dir`` and emit its JSON."""
    from repro.analysis.runner import ExperimentSpec, run_experiments

    kwargs = workload.spec_kwargs(base)
    kwargs.update(override)
    spec = ExperimentSpec(**kwargs)
    workers = 0 if kwargs["backend"] == "serial" else workload.workers
    started = time.perf_counter()
    result = run_experiments(spec, workers=workers, cache_dir=cache_dir)
    document = result.to_json()
    seconds = time.perf_counter() - started
    return Pass(document, len(result), result.cached_points, result.optimum_requests, seconds)


class Verifier:
    """Checks each cold pass against the first one and, at the default seed, the record."""

    def __init__(self, workload: Workload, expected: Optional[Dict[str, object]]):
        self.workload = workload
        self.expected = expected
        self.digest: Optional[str] = None
        self.counts: Dict[str, float] = {}
        self.cold_document: Optional[str] = None
        #: What was wrong with the first pass; every pass that repeats its
        #: output repeats its faults.
        self.first_problems: List[str] = []

    def cold(self, run: Pass) -> List[str]:
        rows = run.rows
        counts = record_counts(rows, run.optimum_requests)
        run_digest = digest(run.document)
        self.cold_document = run.document
        if self.digest is None:
            self.digest, self.counts = run_digest, counts
            problems = check_rows(self.workload, rows)
            if self.expected is not None:
                if run_digest != self.expected["digest"]:
                    problems.append(f"digest {run_digest} != committed {self.expected['digest']}")
                problems += self.count_problems(counts, self.expected["counts"], "committed")
            self.first_problems = problems
            return problems
        problems = self.first_problems + self.count_problems(counts, self.counts, "first pass")
        if run_digest != self.digest:
            problems.append("output differs from the first pass")
        return problems

    def warm(self, run: Pass) -> List[str]:
        problems = list(self.first_problems)
        if run.document != self.cold_document:
            problems.append("warm output is not byte-identical to the cold output")
        if run.cached_points != run.points:
            problems.append(f"warm pass hit the store for {run.cached_points}/{run.points} points")
        return problems

    def traced_counts(self, counts: Dict[str, float]) -> List[str]:
        problems = self.count_problems(counts, self.counts, "untraced pass")
        if self.expected is not None:
            problems += self.count_problems(counts, self.expected["counts"], "committed")
        return problems

    @staticmethod
    def count_problems(counts, reference, against: str) -> List[str]:
        return [
            f"{name} = {counts[name]} differs from {against} ({reference[name]})"
            for name in fingerprint_mismatches(counts, reference)
        ]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def time_setup(workload: Workload, base: int) -> List[float]:
    """Wall seconds of a fresh interpreter importing repro and validating the spec."""
    argument = json.dumps(workload.spec_kwargs(base))
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    walls = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, argument],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - started)
    return walls


def measure(workload: Workload, base: int, seconds: float, work: str,
            verifier: Verifier, ledger: Ledger) -> Dict[str, float]:
    """The untraced run: cold passes on fresh stores, each followed by warm passes.

    Spreading the warm samples over the window keeps one slow stretch of the
    machine from deciding their median.
    """
    cold: List[Pass] = []
    warm: List[Pass] = []
    rss = None
    started = time.perf_counter()
    while True:
        store = tempfile.mkdtemp(dir=work)
        run = submit(workload, base, store)
        cold.append(run)
        ledger.record(run.points, verifier.cold(run))
        # A fixed number of passes, not a time slice: each warm pass grows the
        # store's write-ahead log, so a slice would make the pass cost depend
        # on the machine's speed.
        for _ in range(workload.warm_passes):
            run = submit(workload, base, store)
            warm.append(run)
            ledger.record(run.points, verifier.warm(run))
        shutil.rmtree(store)
        if rss is None:
            # A user's process runs the grid once; later passes only add
            # allocator growth that depends on how many passes fit the window.
            rss = peak_rss_mb()
        spent = time.perf_counter() - started
        if spent + spent / len(cold) > seconds:
            break
    requests = verifier.counts["requests"]
    return {
        "points_per_s": statistics.median(r.points / r.seconds for r in cold),
        "requests_per_s": statistics.median(requests / r.seconds for r in cold),
        "warm_points_per_s": statistics.median(r.points / r.seconds for r in warm),
        "setup_s": statistics.median(time_setup(workload, base)),
        "peak_rss_mb": rss,
        "optima_per_s": statistics.median(r.optimum_requests / r.seconds for r in cold),
    }


def measure_traced(workload: Workload, base: int, work: str, verifier: Verifier,
                   ledger: Ledger) -> Dict[str, float]:
    """The traced run: an untraced and a traced cold+warm pass, then per-layer metrics."""

    def cold_and_warm(**override) -> float:
        store = tempfile.mkdtemp(dir=work)
        cold = submit(workload, base, store, **override)
        ledger.record(cold.points, verifier.cold(cold))
        warm = submit(workload, base, store, **override)
        ledger.record(warm.points, verifier.warm(warm))
        shutil.rmtree(store)
        return cold.seconds + warm.seconds

    in_process = workload.backend == "serial"
    # Untraced passes bracket the traced one, so the first pass's warm-up and
    # any drift do not land on one side of the overhead ratio.
    before = cold_and_warm()
    tracer = layer_trace.Tracer()
    with layer_trace.installed(tracer, workers_in_process=in_process):
        traced_wall = cold_and_warm()
    untraced_wall = (before + cold_and_warm()) / 2
    worker_tracer = tracer
    if not in_process:
        # Worker-side layers ran in pool processes; measure them on the same
        # grid with the serial backend.
        worker_tracer = layer_trace.Tracer()
        with layer_trace.installed(worker_tracer, workers_in_process=True):
            cold_and_warm(backend="serial")

    points = verifier.counts["points"]
    vector_points = verifier.counts["disksim.vector.rows"]
    metrics = layer_trace.layer_metrics(tracer, vector_points=vector_points, points=points)
    worker = layer_trace.layer_metrics(worker_tracer, vector_points=vector_points, points=points)
    for name, value in worker.items():
        if name.startswith(WORKER_LAYERS):
            metrics[name] = value
    task_bytes, result_bytes, pickle_s = layer_trace.pickle_cost(
        tracer.task_items, tracer.task_results
    )
    metrics["backends.task_bytes"] = task_bytes
    metrics["backends.result_bytes"] = result_bytes
    metrics["backends.pickle_s"] = pickle_s
    containers = ("runner.task",) + (("backends.map",) if in_process else ())
    metrics["trace.covered_frac"] = (
        layer_trace.covered_seconds(tracer, containers) / traced_wall
    )
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0

    traced = {
        "lp.solves": worker_tracer.counts["lp.solves"],
        "lp.milp_solves": worker_tracer.counts["lp.milp_solves"],
        "paging.min_faults": worker_tracer.counts["paging.min_faults"],
        "disksim.vector.rows": worker_tracer.counts["disksim.vector.rows"],
    }
    problems = verifier.traced_counts(traced)
    if problems:
        ledger.failed += points
        ledger.problems.extend(problems)
    verifier.counts.update(traced)
    SPANS_DIR.mkdir(exist_ok=True)
    (SPANS_DIR / f"spans-{workload.name}.json").write_text(json.dumps({
        "traced_wall_s": traced_wall,
        "parent": layer_trace.dump_spans(tracer),
        "worker": layer_trace.dump_spans(worker_tracer) if worker_tracer is not tracer else [],
    }))
    return metrics


def check_seed_grid(workload: Workload, base: int, work: str, ledger: Ledger) -> None:
    """Run and check the grid at ``base`` once (cold, then warm), untimed."""
    verifier = Verifier(workload, None)
    store = tempfile.mkdtemp(dir=work)
    cold = submit(workload, base, store)
    ledger.record(cold.points, verifier.cold(cold))
    warm = submit(workload, base, store)
    ledger.record(warm.points, verifier.warm(warm))
    shutil.rmtree(store)
    print(f"seed base {base}: {cold.points} points checked in {cold.seconds:.2f} s (untimed)")


def seed_base(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed base must be >= 0, got {value}")
    return value


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_base, default=DEFAULT_SEED,
                        help="seed base of every workload's seed axis (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring window of an untraced run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="traced run at the default seed: record the digest and counts")
    return parser.parse_args(argv)


def emit(metrics: Dict[str, float], printed: Dict[str, tuple], reported: Dict[str, tuple],
         ledger: Ledger, notes: Dict[str, str]) -> None:
    """Print ``name value unit`` lines, then the result object as the last line."""
    for name, (unit, _) in printed.items():
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} {metrics[name]!r} {unit}{note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _) in reported.items()
        },
    }
    print(json.dumps(result))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the work directory and pool workers are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.update_expected and not (args.trace and args.seed == DEFAULT_SEED):
        print("error: --update-expected needs --trace 1 at the default seed", file=sys.stderr)
        return 2
    base = DEFAULT_SEED if workload.timed_at_default else args.seed
    expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = None
    if base == DEFAULT_SEED and not args.update_expected:
        expected = expected_all.get(workload.name)
    verifier = Verifier(workload, expected)
    ledger = Ledger()
    notes: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        try:
            if args.trace:
                metrics = measure_traced(workload, base, work, verifier, ledger)
                printed = reported = PER_LAYER
                notes = {name: "computed: pickled in the parent" for name in COMPUTED}
                if workload.backend != "serial":
                    for name in metrics:
                        if name.startswith(WORKER_LAYERS):
                            notes[name] = "measured on the same grid, serial backend"
            else:
                metrics = measure(workload, base, args.seconds, work, verifier, ledger)
                printed, reported = {**END_TO_END, **END_TO_END_EXTRA}, END_TO_END
            # After the measured passes: the process's peak RSS is a high-water
            # mark, and this grid's instances are not the timed ones.
            if args.seed != base:
                check_seed_grid(workload, args.seed, work, ledger)
        except Exception:  # the program failed: report it, never a result
            traceback.print_exc()
            print(f"error: {args.workload} failed", file=sys.stderr)
            return 1
    metrics["failed_frac"] = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    for problem in list(dict.fromkeys(ledger.problems))[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.update_expected:
        if ledger.failed:
            print("error: not recording a failed run", file=sys.stderr)
            return 1
        expected_all[workload.name] = {
            "digest": verifier.digest,
            "counts": {name: verifier.counts[name] for name in sorted(verifier.counts)},
        }
        EXPECTED.write_text(json.dumps(expected_all, indent=2, sort_keys=True) + "\n")
    emit(metrics, printed, reported, ledger, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
