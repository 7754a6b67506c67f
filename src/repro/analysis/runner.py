"""Batched experiment runner: declarative grids, pluggable backends, durable store.

This is the scale harness the benchmark scripts and the ``repro sweep`` /
``repro ratios`` commands drive (see DESIGN.md §6/§8).  It replaces the
serial :func:`repro.analysis.sweep.run_sweep` loop as the way experiments
are executed:

* **Declarative grids** — an :class:`ExperimentSpec` names workload specs
  (the portable strings of :mod:`repro.workloads.spec`), cache sizes, fetch
  times, disk counts, seeds and algorithm specs (the typed strings of
  :mod:`repro.algorithms.registry`); the runner expands the cross product
  into :class:`ExperimentPoint` s.

* **Pluggable execution** — points are independent, so they run on any
  :mod:`~repro.analysis.backends` executor (``serial``/``thread``/
  ``process``, selected by ``ExperimentSpec(backend=...)`` or the CLI
  ``--backend``; ``auto`` fans out over processes when ``workers > 1``).
  Determinism is preserved by construction: a point is regenerated from its
  spec inside the worker (all workload generators take explicit seeds), and
  results are collected in grid order regardless of completion order, so
  every backend emits byte-identical JSON.  A failing point surfaces as a
  :class:`~repro.errors.PointEvaluationError` naming the exact grid point.

* **Durable run store** — with a cache directory (or an explicit
  :class:`~repro.analysis.store.RunStore`), every point's record persists
  in one WAL-mode SQLite file, keyed by a SHA-256 fingerprint of the
  *instance content* (sequence, cache size, fetch time, layout, warm set),
  the canonical algorithm spec and the engine.  Records are written as they
  complete, and each declared grid registers a sweep manifest, so a killed
  sweep keeps its progress and :func:`prepare_sweep` (``repro sweep
  --resume``) reports exactly what remains.

* **Optimum pipeline** — ``ExperimentSpec(compute_optimum=True)`` routes
  every point's instance through the optimum service
  (:mod:`repro.lp.service`): solves are deduplicated per instance (one LP
  for all algorithms sharing it), dispatched *interleaved with* the
  algorithm simulations on the same backend, persisted in the run store,
  and attached to every record (``optimal_stall``/``optimal_elapsed`` plus
  the solve wall time).  Stored simulation records that predate the optimum
  are upgraded in place; re-running a warmed grid performs no LP solve at
  all.

* **Uniform emission** — every point evaluates to one typed
  :class:`~repro.analysis.results.RunRecord`; the run returns them as a
  :class:`~repro.analysis.results.ResultSet` with uniform row/JSON/CSV
  emission and column selection, the same model the ratio harness and the
  legacy sweep produce.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms.registry import canonicalize_algorithm_spec, make_algorithm
from ..disksim.executor import canonical_engine, simulate_with_engine
from ..disksim.instance import ProblemInstance
from ..disksim.vector import VECTOR_FAMILIES, numpy_available, require_numpy, run_batch
from ..errors import ConfigurationError, PointEvaluationError
from ..lp.canonical import instance_fingerprint
from ..lp.service import OptimumRecord, OptimumService, SolverConfig
from ..workloads.spec import (
    build_workload_instance,
    get_layout_builder,
    with_spec_params,
    workload_accepts,
)
from .backends import (
    ExecutionBackend,
    SerialBackend,
    make_backend,
    resolve_backend_name,
)
from .results import ResultSet, RunRecord
from .store import RunStore, SweepProgress, store_path_for

__all__ = [
    "ExperimentSpec",
    "ExperimentPoint",
    "point_cache_key",
    "prepare_sweep",
    "run_experiments",
    "evaluate_instances",
    "sweep_key_for",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------------
# grid declaration
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment grid.

    The cross product ``workloads x seeds x disks x layouts x cache_sizes x
    fetch_times x algorithms`` defines the points.  ``seeds`` is applied by
    rewriting the workload spec's ``seed`` parameter for workloads whose
    schema documents one; deterministic generators collapse the seed axis to
    a single point (the typed registry would reject an injected key they
    don't accept, and re-running them per seed would duplicate identical
    rows).  Leave it at ``(None,)`` to take every spec verbatim.  ``layouts`` names block
    placements from :data:`repro.workloads.spec.LAYOUT_BUILDERS`; at
    ``disks == 1`` placement is irrelevant, so only the first layout is
    emitted there (no duplicate points).

    ``backend`` selects the execution backend (``auto | serial | thread |
    process``; ``auto`` means serial at ``workers <= 1`` and process
    fan-out otherwise).  ``compute_optimum=True`` additionally solves every point's
    instance optimum through the optimum service (one deduplicated solve
    per instance, method ``optimum_method`` for multi-disk instances) and
    attaches ``optimal_stall``/``optimal_elapsed``/solve wall time to every
    record, turning the grid into a ratio experiment.
    """

    name: str
    workloads: Tuple[str, ...]
    cache_sizes: Tuple[int, ...]
    fetch_times: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    disks: Tuple[int, ...] = (1,)
    seeds: Tuple[Optional[int], ...] = (None,)
    layouts: Tuple[str, ...] = ("striped",)
    engine: str = "loop"
    backend: str = "auto"
    compute_optimum: bool = False
    optimum_method: str = "auto"

    def __post_init__(self):
        SolverConfig(method=self.optimum_method)  # validate eagerly
        resolve_backend_name(self.backend, 0)  # reject unknown backends here
        object.__setattr__(self, "engine", canonical_engine(self.engine))
        for axis in (
            "workloads", "cache_sizes", "fetch_times", "algorithms",
            "disks", "seeds", "layouts",
        ):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if not all(
            [self.workloads, self.cache_sizes, self.fetch_times, self.algorithms,
             self.disks, self.seeds, self.layouts]
        ):
            raise ConfigurationError("every grid axis needs at least one entry")
        for layout in self.layouts:
            get_layout_builder(layout)  # fail at construction, not in a worker
        for algorithm in self.algorithms:
            # Construct (and discard) each algorithm: building is cheap and,
            # unlike a schema-only parse, validates nested component specs
            # (combination:delay=.../alt=...) before any worker starts.
            make_algorithm(algorithm)

    def points(self) -> List["ExperimentPoint"]:
        """The grid points in deterministic (nested-loop) order."""
        out: List[ExperimentPoint] = []
        for workload in self.workloads:
            seedable = workload_accepts(workload, "seed")
            # A workload without a seed parameter regenerates identically for
            # every seed; collapse the axis so no duplicate points are emitted.
            for seed in self.seeds if seedable else self.seeds[:1]:
                if seed is None or not seedable:
                    spec = workload
                else:
                    spec = with_spec_params(workload, seed=seed)
                for disks in self.disks:
                    layouts = self.layouts if disks > 1 else self.layouts[:1]
                    for layout in layouts:
                        for cache_size in self.cache_sizes:
                            for fetch_time in self.fetch_times:
                                for algorithm in self.algorithms:
                                    out.append(
                                        ExperimentPoint(
                                            workload=spec,
                                            cache_size=cache_size,
                                            fetch_time=fetch_time,
                                            disks=disks,
                                            layout=layout,
                                            algorithm=algorithm,
                                            engine=self.engine,
                                        )
                                    )
        return out


@dataclass(frozen=True)
class ExperimentPoint:
    """One (instance, algorithm) evaluation, described portably.

    Either ``workload`` (a spec string; the instance is regenerated in the
    worker) or ``instance`` (a prebuilt :class:`ProblemInstance`, pickled to
    the worker — used by benchmark scripts whose instances have no spec
    form) must be set.
    """

    workload: Optional[str] = None
    cache_size: int = 16
    fetch_time: int = 8
    disks: int = 1
    layout: str = "striped"
    algorithm: str = "aggressive"
    engine: str = "loop"
    label: Optional[str] = None
    instance: Optional[ProblemInstance] = field(default=None, compare=False)

    def build_instance(self) -> ProblemInstance:
        """The problem instance of this point (built or passed through)."""
        if self.instance is not None:
            return self.instance
        if self.workload is None:
            raise ConfigurationError("ExperimentPoint needs a workload spec or an instance")
        return build_workload_instance(
            self.workload,
            cache_size=self.cache_size,
            fetch_time=self.fetch_time,
            disks=self.disks,
            layout=self.layout,
        )

    def describe(self) -> str:
        """Stable human-readable label of the point."""
        if self.label is not None:
            return self.label
        placement = f" layout={self.layout}" if self.disks > 1 else ""
        return (
            f"{self.workload} k={self.cache_size} F={self.fetch_time} "
            f"D={self.disks}{placement} alg={self.algorithm}"
        )

    def recorded_layout(self) -> Optional[str]:
        """The layout name a record carries (None where placement is moot)."""
        if self.workload is not None and self.disks > 1:
            return self.layout
        return None


# ---------------------------------------------------------------------------------
# fingerprints and identity
# ---------------------------------------------------------------------------------


def _instance_identity(point: ExperimentPoint) -> str:
    """The *instance* identity of a point (algorithm and engine stripped).

    Spec-described points are keyed by their grid coordinates — the spec
    string regenerates the instance deterministically, and hashing the
    coordinates avoids building every instance serially in the parent just
    to compute keys.  Prebuilt-instance points (already materialised, so
    fingerprinting costs no extra build) are keyed by canonical content,
    letting equal instances share entries across labels.  Shared by the
    store key and the optimum-solve deduplication, so the two can never
    drift apart.
    """
    if point.workload is not None:
        # Layout only shapes the instance when there is more than one disk;
        # leaving it out of the D=1 identity lets those entries be shared.
        placement = f";layout={point.layout}" if point.disks > 1 else ""
        return (
            f"spec={point.workload};k={point.cache_size};F={point.fetch_time};"
            f"D={point.disks}{placement}"
        )
    return "content=" + instance_fingerprint(point.build_instance())


def point_cache_key(point: ExperimentPoint) -> str:
    """Store key of a point: instance identity x canonical algorithm x engine.

    The algorithm identity is the *canonical* spec, so ``delay:3`` and
    ``delay:d=3`` share entries.
    """
    algorithm = canonicalize_algorithm_spec(point.algorithm)
    engine = canonical_engine(point.engine)
    return hashlib.sha256(
        f"{_instance_identity(point)};alg={algorithm};engine={engine}".encode()
    ).hexdigest()


def sweep_key_for(spec: ExperimentSpec, solver_key: Optional[str] = None) -> str:
    """Deterministic manifest key of a declared grid (+ optimum config).

    Hashes every grid-defining field of the spec plus the solver
    configuration key (for optimum sweeps), so the same declaration always
    resumes the same manifest while any change to the grid starts a new one.
    """
    payload = {
        "name": spec.name,
        "workloads": list(spec.workloads),
        "cache_sizes": list(spec.cache_sizes),
        "fetch_times": list(spec.fetch_times),
        "algorithms": list(spec.algorithms),
        "disks": list(spec.disks),
        "seeds": list(spec.seeds),
        "layouts": list(spec.layouts),
        "engine": spec.engine,
        "solver": solver_key,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------------
# worker entry points
# ---------------------------------------------------------------------------------


def _evaluate_point(point: ExperimentPoint) -> RunRecord:
    """Worker entry: simulate one point and return its typed record.

    Module-level (picklable) so it can run inside a pool; everything it
    needs travels inside the :class:`ExperimentPoint`.  Any failure is
    re-raised as a :class:`PointEvaluationError` naming the grid point, so
    a parallel sweep's traceback says exactly which point died.
    """
    try:
        instance = point.build_instance()
        algorithm = make_algorithm(point.algorithm)
        result, engine = simulate_with_engine(instance, algorithm, engine=point.engine)
    except Exception as exc:
        raise PointEvaluationError(
            f"experiment point [{point.describe()}] failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if result.engine_reason is not None:
        logger.debug(
            "point [%s]: vector engine ineligible, ran %s: %s",
            point.describe(),
            engine,
            result.engine_reason,
        )
    return RunRecord.from_simulation(
        result,
        point=point.describe(),
        algorithm_spec=point.algorithm,
        workload=point.workload,
        layout=point.recorded_layout(),
        engine=engine,
    )


def _evaluate_batch(points: Tuple[ExperimentPoint, ...]) -> List[RunRecord]:
    """Worker entry: run one vectorizable batch through the vector kernel.

    The planner (:func:`_plan_execution_units`) only submits batches whose
    points it pre-screened as vector-eligible, but coverage is re-checked
    per pair inside :func:`~repro.disksim.vector.run_batch`, which falls
    back to the loop engine for anything the kernel does not handle — each
    record's ``engine`` field reports what actually ran.  Results come back
    in submission (grid) order.
    """
    try:
        pairs = [(point.build_instance(), make_algorithm(point.algorithm)) for point in points]
        outcomes = run_batch(pairs)
    except Exception as exc:
        raise PointEvaluationError(
            f"vector batch of {len(points)} points (first: "
            f"[{points[0].describe()}]) failed: {type(exc).__name__}: {exc}"
        ) from exc
    records = []
    for point, (instance, _), outcome in zip(points, pairs, outcomes):
        records.append(
            RunRecord(
                point=point.describe(),
                algorithm=outcome.policy_name,
                algorithm_spec=point.algorithm,
                metrics=outcome.metrics,
                workload=point.workload,
                cache_size=instance.cache_size,
                fetch_time=instance.fetch_time,
                disks=instance.num_disks,
                layout=point.recorded_layout(),
                engine=outcome.engine,
            )
        )
    return records


def _compute_point_optimum(
    task: Tuple[ExperimentPoint, SolverConfig, Optional[str]]
) -> OptimumRecord:
    """Worker entry: compute (or fetch from the shared store) one optimum.

    Runs interleaved with :func:`_evaluate_point` on the same backend, so
    optimum solves proceed alongside algorithm simulations.  The
    worker-local :class:`OptimumService` consults the shared run store
    first — a warmed store makes this a fingerprint lookup, never an LP
    solve.  Failures name the representative grid point.
    """
    point, config, store_path = task
    try:
        if store_path is None:
            return OptimumService(config=config).optimum(point.build_instance())
        with RunStore(store_path) as store:
            return OptimumService(config=config, store=store).optimum(point.build_instance())
    except Exception as exc:
        raise PointEvaluationError(
            f"optimum solve for point [{point.describe()}] failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _run_task(task: Tuple[str, object]):
    """Dispatch one tagged task (``sim`` or ``opt``) to its worker entry.

    The runner submits simulations and optimum solves as one mixed task
    list, so a single backend interleaves both kinds across its workers.
    """
    kind, payload = task
    if kind == "sim":
        return _evaluate_point(payload)
    if kind == "simbatch":
        return _evaluate_batch(payload)
    return _compute_point_optimum(payload)


# ---------------------------------------------------------------------------------
# vector batch planning
# ---------------------------------------------------------------------------------

#: A same-shape group smaller than this is not worth a stacked kernel pass
#: (the numpy setup overhead eats the win); its points run as ordinary
#: per-point tasks instead.
MIN_VECTOR_BATCH = 8

#: Ceiling on points per stacked pass: keeps worker task sizes (and the
#: kernel's working set) bounded so process backends still load-balance.
MAX_VECTOR_BATCH = 512


def _vector_eligible(point: ExperimentPoint) -> bool:
    """Cheap pre-screen: could the vector kernel cover this point?

    Positive answers are re-validated pair-by-pair inside
    :func:`~repro.disksim.vector.run_batch` (which degrades to the loop
    engine); a negative answer just routes the point to a per-point task.
    """
    if point.disks != 1:
        return False
    family = canonicalize_algorithm_spec(point.algorithm).split(":", 1)[0]
    return family in VECTOR_FAMILIES


def _vector_bucket_key(point: ExperimentPoint) -> Tuple[object, ...]:
    """Shape-bucket key: points sharing it stack into one kernel pass.

    Spec-described points bucket by their workload spec with the seed
    normalised away (same family and parameters ⇒ same sequence length and
    block universe size), prebuilt instances by their materialised shape —
    plus ``k``, ``F`` and the canonical algorithm, so one batch is "the same
    grid point at many seeds", the common case of a ratio sweep.
    """
    if point.workload is not None:
        spec = point.workload
        if workload_accepts(spec, "seed"):
            spec = with_spec_params(spec, seed=0)
        shape = f"spec={spec}"
    else:
        instance = point.build_instance()  # prebuilt: already materialised
        shape = f"n={instance.num_requests};blocks={len(instance.sequence.distinct_blocks)}"
    return (
        shape,
        point.cache_size,
        point.fetch_time,
        canonicalize_algorithm_spec(point.algorithm),
    )


def _plan_execution_units(pending):
    """Group pending ``(position, point, key)`` triples into execution units.

    Returns ``[(kind, items), ...]`` where ``kind`` is ``"sim"`` (one item,
    one :func:`_evaluate_point` task) or ``"simbatch"`` (one stacked
    :func:`_evaluate_batch` task for a same-shape bucket).  Every pending
    triple lands in exactly one unit; units appear in first-occurrence grid
    order and each bucket keeps its items in grid order, so zipping the
    streamed results against the units reproduces the serial order exactly.
    Buckets smaller than :data:`MIN_VECTOR_BATCH` are demoted to per-point
    tasks, buckets larger than :data:`MAX_VECTOR_BATCH` are chunked.  With
    numpy unavailable, ``engine="vector"`` points raise
    :class:`~repro.errors.ConfigurationError` here — before any worker
    starts — while ``engine="auto"`` points degrade to loop tasks silently.
    """
    have_numpy = numpy_available()
    units = []
    buckets: Dict[Tuple[object, ...], List] = {}
    for item in pending:
        _position, point, _key = item
        engine = canonical_engine(point.engine)
        if engine == "vector" and not have_numpy:
            require_numpy()
        if engine in ("vector", "auto") and have_numpy and _vector_eligible(point):
            bucket = _vector_bucket_key(point)
            group = buckets.get(bucket)
            if group is None:
                group = buckets[bucket] = [item]
                units.append(("simbatch", group))
            else:
                group.append(item)
        else:
            units.append(("sim", [item]))
    planned = []
    for kind, items in units:
        if kind == "sim" or len(items) < MIN_VECTOR_BATCH:
            planned.extend(("sim", [item]) for item in items)
        else:
            planned.extend(
                ("simbatch", items[start:start + MAX_VECTOR_BATCH])
                for start in range(0, len(items), MAX_VECTOR_BATCH)
            )
    return planned


# ---------------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------------

def _execute_points(
    points: Sequence[ExperimentPoint],
    *,
    backend: ExecutionBackend,
    store: Optional[RunStore] = None,
    optimum: Optional[OptimumService] = None,
    sweep_key: Optional[str] = None,
    keys: Optional[Sequence[str]] = None,
) -> Tuple[List[RunRecord], int, int]:
    """Evaluate ``points`` (store hits, then backend fan-out) in grid order.

    Fresh simulation records are persisted to the store *as they stream
    back* from the backend, so a killed run keeps every completed point.
    With an :class:`OptimumService`, optimum solves are deduplicated per
    instance identity and dispatched interleaved with the pending
    simulations; their results are attached to every record of that
    instance — including stored records that predate the optimum, which are
    upgraded in the store.  A stored record's optimum is trusted only when
    its recorded solver key matches this run's configuration; records
    solved under a different configuration are re-attached through the
    (config-keyed) optimum store.

    Returns ``(records, cached_points, optimum_requests)``.
    """
    records: List[Optional[RunRecord]] = [None] * len(points)
    if keys is None:
        keys = [
            point_cache_key(point) if store is not None else None
            for point in points
        ]
    pending: List[Tuple[int, ExperimentPoint, Optional[str]]] = []
    needs_optimum: Dict[str, List[int]] = {}
    representative: Dict[str, ExperimentPoint] = {}
    cached_points = 0

    def request_optimum(position: int, point: ExperimentPoint) -> None:
        identity = _instance_identity(point)
        needs_optimum.setdefault(identity, []).append(position)
        representative.setdefault(identity, point)

    for position, point in enumerate(points):
        key = keys[position]
        if store is not None:
            hit = store.get_run(key)
            if hit is not None:
                # The stored metrics are content-determined, but the identity
                # fields belong to whichever run wrote the entry; restore the
                # current point's identity so labels stay correct when an
                # entry is shared across labels.
                records[position] = hit.with_identity(
                    point=point.describe(),
                    workload=point.workload,
                    algorithm_spec=point.algorithm,
                    layout=point.recorded_layout(),
                )
                cached_points += 1
                if optimum is not None and (
                    hit.optimal_elapsed is None
                    or hit.optimum_solver_key != optimum.config.key()
                ):
                    request_optimum(position, point)
                continue
        pending.append((position, point, key))
        if optimum is not None:
            request_optimum(position, point)

    identities = list(needs_optimum)
    store_path = None if store is None else str(store.path)
    # On the serial backend the parent's own service (open store connection,
    # in-memory cache, `solves` accounting) is right there — route the
    # solves through it directly instead of opening a store per task.
    direct_optimum = optimum is not None and isinstance(backend, SerialBackend)
    units = _plan_execution_units(pending)
    tasks: List[Tuple[str, object]] = [
        ("sim", items[0][1]) if kind == "sim"
        else ("simbatch", tuple(item[1] for item in items))
        for kind, items in units
    ]
    if not direct_optimum:
        tasks.extend(
            ("opt", (representative[identity], optimum.config, store_path))
            for identity in identities
        )

    solved: List[OptimumRecord] = []
    if tasks:
        results = backend.map(_run_task, tasks)
        # Simulation results stream back first (submission order); persist
        # each one immediately so an interrupted run loses no progress.  A
        # "sim" unit yields one record, a "simbatch" unit one record per
        # point (in the unit's grid order).
        for (kind, items), result in zip(units, results):
            unit_records = [result] if kind == "sim" else result
            for (position, _point, key), record in zip(items, unit_records):
                records[position] = record
                if store is not None:
                    store.put_run(key, record)
        solved = list(results)
    if direct_optimum:
        solved = [
            optimum.optimum(representative[identity].build_instance())
            for identity in identities
        ]

    if optimum is not None:
        for identity, optimum_record in zip(identities, solved):
            optimum.store(optimum_record)
            for position in needs_optimum[identity]:
                records[position] = records[position].with_optimum(
                    optimal_stall=max(optimum_record.stall_time, 0),
                    optimal_elapsed=optimum_record.elapsed_time,
                    solve_seconds=optimum_record.solve_seconds,
                    solver_key=optimum.config.key(),
                )
        if store is not None:
            # Persist the optimum-carrying versions: fresh simulations are
            # re-written with their optimum attached, and previously stored
            # records that just gained (or re-keyed) an optimum are upgraded.
            store.put_runs(
                (keys[position], records[position])
                for positions in needs_optimum.values()
                for position in positions
                if keys[position] is not None
            )

    if store is not None and sweep_key is not None:
        store.mark_points_done(sweep_key, range(len(points)))

    return (
        [record for record in records if record is not None],
        cached_points,
        len(identities),
    )


def _make_optimum_service(
    enabled: bool,
    store: Optional[RunStore],
    method: str,
    config: Optional[SolverConfig],
) -> Optional[OptimumService]:
    """The optimum service of a run (persisted through the run store)."""
    if not enabled:
        return None
    return OptimumService(config=config or SolverConfig(method=method), store=store)


def _solver_key_for(
    spec: ExperimentSpec, optimum_config: Optional[SolverConfig]
) -> Optional[str]:
    """The solver-configuration key an optimum sweep of ``spec`` runs under."""
    if not spec.compute_optimum:
        return None
    return (optimum_config or SolverConfig(method=spec.optimum_method)).key()


def _register_sweep(
    spec: ExperimentSpec,
    store: RunStore,
    points: Sequence[ExperimentPoint],
    keys: Sequence[str],
    solver_key: Optional[str],
) -> str:
    """Register ``spec``'s manifest (reusing precomputed point keys).

    Reconciles the manifest against the stored records (a record counts as
    completion even if the writing run was killed before it could update
    the manifest) and returns the sweep key.
    """
    sweep_key = sweep_key_for(spec, solver_key)
    store.begin_sweep(
        sweep_key, spec.name,
        [(key, point.describe()) for key, point in zip(keys, points)],
    )
    store.reconcile_sweep(sweep_key, require_solver_key=solver_key)
    return sweep_key


def prepare_sweep(
    spec: ExperimentSpec,
    store: RunStore,
    *,
    optimum_config: Optional[SolverConfig] = None,
) -> SweepProgress:
    """Register ``spec``'s manifest in ``store`` and report its progress.

    The returned :class:`SweepProgress` names exactly the points a
    ``--resume`` run will still execute (see :func:`_register_sweep` for
    the reconcile semantics).
    """
    points = spec.points()
    keys = [point_cache_key(point) for point in points]
    sweep_key = _register_sweep(
        spec, store, points, keys, _solver_key_for(spec, optimum_config)
    )
    return store.sweep_progress(sweep_key)


def run_experiments(
    spec: ExperimentSpec,
    *,
    workers: int = 0,
    backend: Optional[str] = None,
    cache_dir=None,
    store: Optional[RunStore] = None,
    optimum_config: Optional[SolverConfig] = None,
) -> ResultSet:
    """Run the full grid of ``spec`` and return its ordered :class:`ResultSet`.

    ``backend`` (a backend name; default: the spec's) and ``workers``
    select the execution backend; output order (and therefore the JSON/CSV
    documents) is identical across all backends.  ``cache_dir`` opens the
    run store at ``<cache_dir>/runs.sqlite`` (``store`` passes one in
    directly), which persists every record and optimum, registers the sweep
    manifest, and makes warmed re-runs pure lookups.  ``optimum_config``
    overrides the solver configuration derived from ``spec.optimum_method``.
    """
    backend_obj = make_backend(backend or spec.backend, workers)
    owned_store = None
    if store is None and cache_dir is not None:
        store = owned_store = RunStore(store_path_for(cache_dir))
    try:
        optimum = _make_optimum_service(
            spec.compute_optimum, store, spec.optimum_method, optimum_config
        )
        points = spec.points()
        keys = None
        sweep_key = None
        if store is not None:
            keys = [point_cache_key(point) for point in points]
            sweep_key = _register_sweep(
                spec, store, points, keys, _solver_key_for(spec, optimum_config)
            )
        records, cached_points, optimum_requests = _execute_points(
            points,
            backend=backend_obj,
            store=store,
            optimum=optimum,
            sweep_key=sweep_key,
            keys=keys,
        )
        return ResultSet(
            name=spec.name,
            records=tuple(records),
            workers=workers,
            cached_points=cached_points,
            backend=backend_obj.name,
            optimum_requests=optimum_requests,
        )
    finally:
        if owned_store is not None:
            owned_store.close()


def evaluate_instances(
    labeled_instances: Iterable[Tuple[str, ProblemInstance]],
    algorithms: Sequence[str],
    *,
    workers: int = 0,
    backend: str = "auto",
    engine: str = "loop",
    cache_dir=None,
    store: Optional[RunStore] = None,
    compute_optimum: bool = False,
    optimum_method: str = "auto",
    optimum_config: Optional[SolverConfig] = None,
) -> ResultSet:
    """Evaluate algorithm specs over prebuilt instances (benchmark entry point).

    The benchmark scripts construct instances programmatically (adversarial
    families, paper examples) that have no workload-spec form; this runs the
    same batched machinery over ``(label, instance)`` pairs.  Instances are
    pickled to the workers on the process backend.  ``compute_optimum=True``
    attaches every instance's optimum (one deduplicated solve per instance,
    shared by all algorithms) exactly as in :func:`run_experiments`.  Ad-hoc
    instance lists declare no sweep manifest, but their records and optima
    persist in the run store all the same.
    """
    points = [
        ExperimentPoint(
            algorithm=algorithm,
            engine=engine,
            label=f"{label} alg={algorithm}",
            instance=instance,
            cache_size=instance.cache_size,
            fetch_time=instance.fetch_time,
            disks=instance.num_disks,
        )
        for label, instance in labeled_instances
        for algorithm in algorithms
    ]
    backend_obj = make_backend(backend, workers)
    owned_store = None
    if store is None and cache_dir is not None:
        store = owned_store = RunStore(store_path_for(cache_dir))
    try:
        optimum = _make_optimum_service(
            compute_optimum, store, optimum_method, optimum_config
        )
        records, cached_points, optimum_requests = _execute_points(
            points, backend=backend_obj, store=store, optimum=optimum
        )
        return ResultSet(
            name="ad-hoc",
            records=tuple(records),
            workers=workers,
            cached_points=cached_points,
            backend=backend_obj.name,
            optimum_requests=optimum_requests,
        )
    finally:
        if owned_store is not None:
            owned_store.close()
