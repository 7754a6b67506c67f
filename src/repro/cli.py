"""Command-line interface: ``repro <command>`` / ``python -m repro <command>``.

Commands
--------
``simulate``  — run one algorithm on a workload and print metrics (optionally
                a Gantt chart / timeline).
``sweep``     — run an algorithm x parameter grid through the batched
                experiment runner (multi-process, cached, JSON/CSV output);
                ``--watch`` instead polls a running sweep's manifest in the
                run store and exits when every point is complete.
``ratios``    — run a workload x algorithm grid with optimum computation:
                every record carries the certified optimum, the
                approximation ratios and the solve wall time; optima are
                solved once per instance, dispatched interleaved with the
                simulations and persisted in the run store
                (``<cache-dir>/runs.sqlite``).  This is the one way to
                measure algorithms against the optimum; a one-point grid
                (``-w W -k K -F F [-D D] -a A``) compares several
                algorithms on one instance.
``store``     — operate the SQLite run store: ``stats`` (what it holds) and
                ``gc`` (drop finished sweep manifests, compact the file).
``workloads`` — print the typed workload catalog: every registered spec name,
                its parameter schema and an example spec, plus the layouts.
``algorithms``— print the typed algorithm catalog: every registered algorithm,
                its parameter schema and an example spec.
``lowerbound``— build the Theorem 2 adversarial instance and report
                Aggressive's measured ratio next to the theoretical bound.
``bounds``    — print the Section 2 bound formulas for a (k, F) grid.
``check``     — run the determinism lint over the package source (or the
                given paths): seeded RNGs only, no wall clocks in kernel
                code, ordered fingerprints.  Exit 0 when clean, 1 on any
                finding, 2 on a missing or unparseable target.

Workload and algorithm specs share the grammar ``name[:key=value,...]``
(``zipf:n=200,blocks=50,skew=0.8``, ``delay:d=3``) and
the :class:`~repro.specs.Registry` type, so common experiments can be run
without writing Python (``repro workloads`` / ``repro algorithms`` print the
two registries' catalogs); anything more elaborate should use the library
API directly (see the examples/ directory).  Parsing is strict: unknown or
duplicate parameters and uncoercible values exit with a one-line
configuration error instead of silently running a different experiment.
So do out-of-range numeric options, unwritable output paths, a cache
directory that is not a directory and a single-disk algorithm on a
multi-disk instance.

List-valued options (``--algorithms``, ``--workloads``) are split on ``;``
when one is present and on ``,`` otherwise — parametrised specs carry
``key=value`` pairs separated by commas, so use ``;`` (or a trailing ``;``)
whenever a listed spec takes more than one parameter.
"""

from __future__ import annotations

import argparse
import json as json_module
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from .algorithms import ALGORITHM_REGISTRY, make_algorithm
from .analysis.backends import BACKEND_NAMES
from .analysis.reporting import format_ratio_table, format_result_set, format_table
from .analysis.runner import ExperimentSpec, prepare_sweep, run_experiments
from .analysis.store import RunStore, store_path_for
from .analysis.results import ResultSet
from .core.bounds import SingleDiskBounds
from .disksim.executor import simulate, simulate_with_engine
from .disksim.instance import ProblemInstance
from .errors import ConfigurationError, ReproError
from .viz.gantt import render_gantt
from .viz.timeline import render_timeline
from .workloads import theorem2_sequence
from .workloads.spec import LAYOUT_BUILDERS, WORKLOAD_REGISTRY, build_workload_instance

__all__ = ["main", "build_parser"]


def _make_instance(args: argparse.Namespace) -> ProblemInstance:
    return build_workload_instance(
        args.workload,
        cache_size=args.cache_size,
        fetch_time=args.fetch_time,
        disks=args.disks,
        layout=args.layout,
    )


def _split_specs(text: str) -> List[str]:
    """Split a list-valued spec option.

    ``;`` is the primary separator (parametrised specs contain commas);
    plain comma-separated lists of parameterless specs — e.g.
    ``aggressive,conservative,demand`` — keep working because the split
    falls back to ``,`` only when no ``;`` is present.
    """
    separator = ";" if ";" in text else ","
    return [item.strip() for item in text.split(separator) if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrated prefetching and caching (Albers & Büttner) — simulator and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _ENGINE_CHOICES = ["auto", "loop", "scan"]

    p_sim = sub.add_parser("simulate", help="run one algorithm and print metrics")
    p_sim.add_argument("--workload", "-w", default="zipf:n=200,blocks=50",
                       help="workload spec, e.g. zipf:n=200,blocks=50,skew=0.8 "
                       "(see 'repro workloads' for the catalog)")
    p_sim.add_argument("--cache-size", "-k", type=int, default=16)
    p_sim.add_argument("--fetch-time", "-F", type=int, default=8)
    p_sim.add_argument("--disks", "-D", type=int, default=1)
    p_sim.add_argument("--layout", default="striped",
                       choices=sorted(LAYOUT_BUILDERS),
                       help="block placement when --disks > 1")
    p_sim.add_argument("--algorithm", "-a", default="aggressive")
    p_sim.add_argument("--engine", default="loop", choices=_ENGINE_CHOICES,
                       help="simulation engine (loop = the indexed event loop; "
                       "auto runs one-disk conservative as a replay of MIN's "
                       "plan, aggressive/delay/combination on the numpy batch "
                       "kernel and everything else on loop)")
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII Gantt chart (records the event log, "
                       "so the run uses the loop engine)")
    p_sim.add_argument("--timeline", action="store_true",
                       help="print the event timeline (records the event log, "
                       "so the run uses the loop engine)")

    def add_grid_options(p: argparse.ArgumentParser, *, name_default: str) -> None:
        p.add_argument(
            "--workloads", "-w", default="zipf:n=200,blocks=50",
            help="comma-free list of workload specs separated by ';', "
            "e.g. 'zipf:n=200,blocks=50;loop:blocks=30,loops=10'",
        )
        p.add_argument("--cache-sizes", "-k", default="16",
                       help="comma-separated cache sizes")
        p.add_argument("--fetch-times", "-F", default="8",
                       help="comma-separated fetch times")
        p.add_argument("--disks", "-D", default="1", help="comma-separated disk counts")
        p.add_argument(
            "--layouts", default="striped",
            help="comma-separated block placements swept when a disk count > 1 "
            f"(available: {', '.join(sorted(LAYOUT_BUILDERS))})",
        )
        p.add_argument(
            "--algorithms", "-a", default="aggressive,conservative,combination,demand",
            help="algorithm specs separated by ';' (or ',' when none is parametrised), "
            "e.g. 'aggressive;delay:d=3;demand'",
        )
        p.add_argument("--seeds", default="",
                       help="comma-separated seeds substituted into the workload specs")
        p.add_argument("--workers", type=int, default=0,
                       help="worker-pool size (0/1 = run in-process)")
        p.add_argument("--backend", default="auto", choices=BACKEND_NAMES,
                       help="execution backend for the grid points "
                       "(auto = serial at workers<=1, process fan-out otherwise)")
        p.add_argument("--engine", default="loop", choices=_ENGINE_CHOICES,
                       help="simulation engine; auto lets the planner stack "
                       "same-shape points into batched kernel passes and runs "
                       "one-disk conservative points as a replay of MIN's plan "
                       "(other points fall back to the loop engine)")
        p.add_argument("--cache-dir", default=None,
                       help="directory for the run store (a single SQLite file, "
                       "runs.sqlite, holding records, optima and sweep manifests)")
        p.add_argument("--resume", action="store_true",
                       help="reconcile this grid's sweep manifest against the run "
                       "store, report exactly what remains, and run only that "
                       "(requires --cache-dir)")
        p.add_argument("--json", dest="json_path", default=None,
                       help="write results as deterministic JSON to this path")
        p.add_argument("--csv", dest="csv_path", default=None,
                       help="write results as CSV to this path")
        p.add_argument("--name", default=name_default, help="experiment name")

    p_sweep = sub.add_parser(
        "sweep", help="run an algorithm x parameter grid via the experiment runner"
    )
    add_grid_options(p_sweep, name_default="cli-sweep")
    p_sweep.add_argument("--watch", action="store_true",
                         help="poll this grid's sweep manifest in the run store "
                         "instead of executing it; print progress until every "
                         "point is complete (requires --cache-dir)")
    p_sweep.add_argument("--watch-interval", type=float, default=2.0,
                         help="seconds between --watch polls")

    p_ratios = sub.add_parser(
        "ratios",
        help="run a workload x algorithm grid with cached optimum computation "
        "and print the approximation-ratio table",
    )
    add_grid_options(p_ratios, name_default="cli-ratios")

    p_store = sub.add_parser(
        "store", help="operate the SQLite run store (stats, gc)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def add_store_location(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", default=None,
                       help="path of the run-store database file")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory holding the store (same option the "
                       "sweep/ratios commands take); the database is "
                       "<cache-dir>/runs.sqlite")

    p_store_stats = store_sub.add_parser(
        "stats", help="print what the store holds (runs, optima, sweep progress)"
    )
    add_store_location(p_store_stats)
    p_store_stats.add_argument("--json", dest="json_path", default=None,
                               help="also write the stats as JSON to this path")

    p_store_gc = store_sub.add_parser(
        "gc", help="drop finished sweep manifests and compact the database"
    )
    add_store_location(p_store_gc)

    p_wl = sub.add_parser(
        "workloads", help="list the workload catalog and parameter schemas"
    )
    p_wl.add_argument("name", nargs="?", default=None,
                      help="show only this workload (with per-parameter help)")

    p_alg = sub.add_parser(
        "algorithms", help="list the algorithm catalog and parameter schemas"
    )
    p_alg.add_argument("name", nargs="?", default=None,
                       help="show only this algorithm (with per-parameter help)")

    p_lb = sub.add_parser("lowerbound", help="run the Theorem 2 adversarial construction")
    p_lb.add_argument("--cache-size", "-k", type=int, default=13)
    p_lb.add_argument("--fetch-time", "-F", type=int, default=4)
    p_lb.add_argument("--phases", type=int, default=6)

    p_bounds = sub.add_parser("bounds", help="print the Section 2 bound formulas")
    p_bounds.add_argument("--cache-sizes", default="8,16,32,64")
    p_bounds.add_argument("--fetch-times", default="2,4,8,16")

    p_check = sub.add_parser(
        "check",
        help="run the determinism lint (seeded RNGs, no wall clocks, ordered "
        "fingerprints); exit 1 on any finding",
    )
    p_check.add_argument("paths", nargs="*", default=None,
                         help="files or directories to check (default: the "
                         "installed repro package source)")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _make_instance(args)
    algorithm = make_algorithm(args.algorithm)
    result, engine = simulate_with_engine(
        instance, algorithm, engine=args.engine, record_events=args.gantt or args.timeline
    )
    print(f"instance: {instance.describe()}")
    print(f"algorithm: {result.policy_name}")
    if engine != args.engine:
        print(f"engine: {engine} (requested {args.engine})")
    rows = [result.metrics.as_dict()]
    print(format_table(rows, columns=[
        "num_requests", "stall_time", "elapsed_time", "num_fetches",
        "num_demand_fetches", "hit_rate", "peak_cache_used",
    ]))
    if args.gantt:
        print()
        print(render_gantt(result))
    if args.timeline:
        print()
        print(render_timeline(result, limit=200))
    return 0


def _parse_int_list(text: str, option: str) -> List[int]:
    """The comma-separated integers of ``option``'s value ``text``."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(
            f"{option} takes comma-separated integers, got {text!r}"
        ) from None


def _grid_spec(args: argparse.Namespace, **extra) -> ExperimentSpec:
    """The :class:`ExperimentSpec` described by the shared grid options.

    This is the single place the ``sweep`` and ``ratios`` subcommands parse
    their axes and specs through, so the two can never drift on grid
    handling.
    """
    seeds = tuple(_parse_int_list(args.seeds, "--seeds")) or (None,)
    return ExperimentSpec(
        name=args.name,
        workloads=tuple(w.strip() for w in args.workloads.split(";") if w.strip()),
        cache_sizes=tuple(_parse_int_list(args.cache_sizes, "--cache-sizes")),
        fetch_times=tuple(_parse_int_list(args.fetch_times, "--fetch-times")),
        disks=tuple(_parse_int_list(args.disks, "--disks")),
        layouts=tuple(l.strip() for l in args.layouts.split(",") if l.strip()),
        algorithms=tuple(_split_specs(args.algorithms)),
        seeds=seeds,
        engine=args.engine,
        backend=args.backend,
        **extra,
    )


def _write_output(path: str, kind: str, write: Callable[[str], object]) -> None:
    """Run ``write(path)``; an unwritable ``path`` is a configuration error naming it."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {kind} to {path}: {exc.strerror or exc}") from exc
    print(f"wrote {kind} to {path}")


def _json_writer(payload: object) -> Callable[[str], object]:
    """A writer of ``payload`` as an indented, key-sorted JSON document."""
    text = json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
    return lambda path: Path(path).write_text(text)


def _write_outputs(run, args: argparse.Namespace) -> None:
    if args.json_path:
        _write_output(args.json_path, "JSON", run.write_json)
    if args.csv_path:
        _write_output(args.csv_path, "CSV", run.write_csv)


def _report_resume(spec: ExperimentSpec, store: RunStore) -> None:
    """Print the manifest state a ``--resume`` run starts from."""
    progress = prepare_sweep(spec, store)
    print(f"resume {progress.describe()}")
    shown = progress.remaining_labels[:10]
    for label in shown:
        print(f"  - {label}")
    if len(progress.remaining_labels) > len(shown):
        print(f"  ... and {len(progress.remaining_labels) - len(shown)} more")


def _run_grid_command(args: argparse.Namespace, **extra) -> ResultSet:
    """Shared ``sweep``/``ratios`` execution: spec, resume report, run, summary.

    One code path builds the spec, honours ``--resume``, executes the grid
    and prints the summary line, so the two grid subcommands cannot drift
    on axis handling, backend selection or store behaviour.  A ``--resume``
    run opens the store once and shares the connection between the report
    and the execution.
    """
    if args.workers < 0:
        raise ConfigurationError(f"--workers must be at least 0, got {args.workers}")
    spec = _grid_spec(args, **extra)
    store = None
    try:
        if args.resume:
            if args.cache_dir is None:
                raise ConfigurationError(
                    "--resume needs --cache-dir (the run store location)"
                )
            store = RunStore(store_path_for(args.cache_dir))
            _report_resume(spec, store)
        run = run_experiments(
            spec,
            workers=args.workers,
            cache_dir=None if store is not None else args.cache_dir,
            store=store,
        )
    finally:
        if store is not None:
            store.close()
    print(
        f"{args.command} {run.name!r}: {len(run.records)} points "
        f"({run.cached_points} cached, {run.simulated_points} simulated, "
        f"{run.optimum_requests} optimum requests, workers={args.workers}, "
        f"backend={run.backend})"
    )
    return run


def _watch_sweep(args: argparse.Namespace) -> int:
    """Poll the grid's sweep manifest until every point is complete.

    The watcher is read-mostly: each poll re-registers the manifest (a
    no-op once it exists) and reconciles it against the records other
    processes have written, so it converges no matter which process — or
    how many — is actually executing the sweep.
    """
    import time as time_module

    if args.cache_dir is None:
        raise ConfigurationError("--watch needs --cache-dir (the run store location)")
    if not (math.isfinite(args.watch_interval) and args.watch_interval > 0):
        raise ConfigurationError(
            f"--watch-interval must be a finite number of seconds above 0, "
            f"got {args.watch_interval}"
        )
    spec = _grid_spec(args)
    with RunStore(store_path_for(args.cache_dir)) as store:
        while True:
            progress = prepare_sweep(spec, store)
            print(f"watch {progress.describe()}", flush=True)
            if progress.complete:
                print("sweep complete")
                return 0
            time_module.sleep(args.watch_interval)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.watch:
        return _watch_sweep(args)
    run = _run_grid_command(args)
    print(format_result_set(run))
    _write_outputs(run, args)
    return 0


def _cmd_ratios(args: argparse.Namespace) -> int:
    run = _run_grid_command(args, compute_optimum=True)
    print(format_ratio_table(run))
    _write_outputs(run, args)
    return 0


def _store_db_path(args: argparse.Namespace) -> Path:
    """The database path the ``repro store`` options select."""
    if args.db is not None:
        return Path(args.db)
    if args.cache_dir is not None:
        return store_path_for(args.cache_dir)
    raise ConfigurationError("repro store needs --db or --cache-dir")


def _cmd_store(args: argparse.Namespace) -> int:
    path = _store_db_path(args)
    if not path.exists():
        raise ConfigurationError(f"no run store at {path}")
    with RunStore(path) as store:
        if args.store_command == "stats":
            stats = store.stats()
            width = max(len(key) for key in stats)
            for key, value in stats.items():
                print(f"{key:<{width}}  {value}")
            if args.json_path:
                _write_output(args.json_path, "JSON", _json_writer(stats))
        else:  # gc
            outcome = store.gc()
            print(
                f"removed {outcome['sweeps_removed']} finished sweep manifest(s) "
                f"({outcome['points_removed']} point rows), reclaimed "
                f"{outcome['reclaimed_bytes']} bytes"
            )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(WORKLOAD_REGISTRY.catalog_text(args.name))
    if args.name is None:
        print(
            "layouts (block placement for --disks > 1): "
            + ", ".join(sorted(LAYOUT_BUILDERS))
        )
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    print(ALGORITHM_REGISTRY.catalog_text(args.name))
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    from .algorithms import Aggressive

    construction = theorem2_sequence(args.cache_size, args.fetch_time, args.phases)
    result = simulate(construction.instance, Aggressive())
    bounds = SingleDiskBounds(args.cache_size, args.fetch_time)
    print(f"instance: {construction.instance.describe()}")
    print(format_table([
        {
            "phases": construction.num_phases,
            "aggressive_elapsed": result.elapsed_time,
            "predicted_aggressive": construction.num_phases
            * construction.aggressive_time_per_phase,
            "predicted_optimal": construction.num_phases * construction.optimal_time_per_phase,
            "predicted_ratio": round(construction.predicted_ratio, 4),
            "thm2_bound": round(bounds.aggressive_lower, 4),
            "thm1_bound": round(bounds.aggressive_refined, 4),
        }
    ]))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_checks

    report = run_checks(args.paths or None)
    print(report.format_text())
    return 0 if report.ok else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    cache_sizes = _parse_int_list(args.cache_sizes, "--cache-sizes")
    fetch_times = _parse_int_list(args.fetch_times, "--fetch-times")
    rows = []
    for k in cache_sizes:
        for fetch_time in fetch_times:
            rows.append(SingleDiskBounds(k, fetch_time).as_dict())
    print(format_table(rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "ratios": _cmd_ratios,
        "store": _cmd_store,
        "workloads": _cmd_workloads,
        "algorithms": _cmd_algorithms,
        "lowerbound": _cmd_lowerbound,
        "bounds": _cmd_bounds,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
