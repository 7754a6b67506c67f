"""Batched experiment runner: declarative grids, pluggable backends, durable store.

This is the experiment harness the benchmark scripts and the ``repro sweep``
/ ``repro ratios`` commands drive (see DESIGN.md §6/§8); with
``compute_optimum=True`` it is also the one way to measure algorithms
against the optimum:

* **Declarative grids** — an :class:`ExperimentSpec` names workload specs
  (the portable strings of :mod:`repro.workloads.spec`), cache sizes, fetch
  times, disk counts, seeds and algorithm specs (the typed strings of
  :mod:`repro.algorithms.registry`); the runner expands the cross product
  into :class:`ExperimentPoint` s.

* **Pluggable execution** — points are independent, so they run on any
  :mod:`~repro.analysis.backends` executor (``serial``/``thread``/
  ``process``, selected by ``ExperimentSpec(backend=...)`` or the CLI
  ``--backend``; ``auto`` fans out over processes when ``workers > 1``).
  The planner sizes the tasks: stacked vector-kernel batches, and runs of
  consecutive grid points sized by
  :func:`~repro.analysis.backends.adaptive_chunk_size` from the point count
  and the worker count.  A run generates each workload spec's sequence
  once and places it per point.
  Determinism is preserved by construction: a point is regenerated from its
  spec inside the worker (all workload generators take explicit seeds), and
  results are collected in grid order regardless of completion order, so
  every backend emits byte-identical JSON.  A failing point surfaces as a
  :class:`~repro.errors.PointEvaluationError` naming the exact grid point.

* **Durable run store** — with a cache directory (or an explicit
  :class:`~repro.analysis.store.RunStore`), every point's record persists
  in one WAL-mode SQLite file, keyed by a SHA-256 fingerprint of the
  *instance content* (sequence, cache size, fetch time, layout, warm set),
  the algorithm spec and the engine.  Each task's records are written in
  one transaction as it completes, and each declared grid registers a
  sweep manifest, so a killed sweep keeps its progress and
  :func:`prepare_sweep` (``repro sweep --resume``) reports exactly what
  remains.

* **Optimum pipeline** — ``ExperimentSpec(compute_optimum=True)`` routes
  every point's instance through the optimum service
  (:mod:`repro.lp.service`): solves are deduplicated per instance (one LP
  for all algorithms sharing it), dispatched as ``opt`` tasks *interleaved
  with* the algorithm simulations on the run's backend (serial included),
  persisted once in the run store by the task that solved them, and
  attached to every record (``optimal_stall``/``optimal_elapsed`` plus the
  solve wall time).  Stored simulation records that predate the optimum
  are upgraded in place; re-running a warmed grid performs no LP solve at
  all.

* **Uniform emission** — every point evaluates to one typed
  :class:`~repro.analysis.results.RunRecord`; the run returns them as a
  :class:`~repro.analysis.results.ResultSet` with uniform row/JSON/CSV
  emission and column selection.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms.registry import make_algorithm
from ..disksim.executor import canonical_engine, simulate_with_engine
from ..disksim.instance import ProblemInstance
from ..disksim.sequence import RequestSequence
from ..disksim.vector import VECTOR_FAMILIES, run_batch
from ..errors import ConfigurationError, PointEvaluationError
from ..lp.canonical import instance_fingerprint
from ..lp.service import SOLVER_KEY, OptimumRecord, OptimumService
from ..specs import with_params
from ..workloads.spec import (
    WORKLOAD_REGISTRY,
    build_workload_instance,
    generate_sequence,
    get_layout_builder,
    place_sequence,
)
from .backends import ExecutionBackend, adaptive_chunk_size, make_backend, resolve_backend_name
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
    fan-out otherwise).  ``compute_optimum=True`` additionally solves every
    point's instance optimum through the optimum service (one deduplicated
    solve per instance, under :data:`~repro.lp.service.SOLVER_KEY`) and
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

    def __post_init__(self):
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
            # unlike a schema-only parse, runs the factory's own checks
            # (delay:d=-1) before any worker starts.
            make_algorithm(algorithm)

    def points(self) -> List["ExperimentPoint"]:
        """The grid points in deterministic (nested-loop) order."""
        out: List[ExperimentPoint] = []
        for workload in self.workloads:
            seedable = WORKLOAD_REGISTRY.accepts(workload, "seed")
            # A workload without a seed parameter regenerates identically for
            # every seed; collapse the axis so no duplicate points are emitted.
            for seed in self.seeds if seedable else self.seeds[:1]:
                if seed is None or not seedable:
                    spec = workload
                else:
                    spec = with_params(workload, seed=seed)
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

    def build_instance(
        self, sequences: Optional[Dict[str, Optional[RequestSequence]]] = None
    ) -> ProblemInstance:
        """The problem instance of this point (built or passed through).

        ``sequences`` is one task's memo of the last sequence it generated,
        keyed by workload spec: a point of that spec is only placed at its
        ``k``, ``F``, disk count and layout.  Grid order lists a spec's
        points consecutively, so one entry shares every sequence a run
        can share while holding no more than one in memory.
        """
        if self.instance is not None:
            return self.instance
        if self.workload is None:
            raise ConfigurationError("ExperimentPoint needs a workload spec or an instance")
        placement = dict(
            cache_size=self.cache_size,
            fetch_time=self.fetch_time,
            disks=self.disks,
            layout=self.layout,
        )
        if sequences is not None and self.workload not in sequences:
            sequences.clear()
            sequences[self.workload] = generate_sequence(self.workload)
        sequence = None if sequences is None else sequences[self.workload]
        if sequence is None:  # no memo, or an instance-kind construction
            return build_workload_instance(self.workload, **placement)
        return place_sequence(sequence, **placement)

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
    """Store key of a point: instance identity x algorithm spec x engine.

    The algorithm identity is the stripped spec string, the same identity
    :func:`~repro.algorithms.registry.make_algorithm` records.
    """
    algorithm = point.algorithm.strip()
    engine = canonical_engine(point.engine)
    return hashlib.sha256(
        f"{_instance_identity(point)};alg={algorithm};engine={engine}".encode()
    ).hexdigest()


def _sweep_solver_key(spec: ExperimentSpec) -> Optional[str]:
    """The solver key an optimum sweep of ``spec`` runs under (None without optima)."""
    return SOLVER_KEY if spec.compute_optimum else None


def sweep_key_for(spec: ExperimentSpec) -> str:
    """Deterministic manifest key of a declared grid.

    Hashes every grid-defining field of the spec plus, for optimum sweeps,
    the solver key, so the same declaration always resumes the same
    manifest while any change to the grid starts a new one.
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
        "solver": _sweep_solver_key(spec),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------------
# worker entry points
# ---------------------------------------------------------------------------------


def _evaluate_point(
    point: ExperimentPoint, sequences: Dict[str, Optional[RequestSequence]]
) -> RunRecord:
    """Simulate one point of a run and return its typed record.

    Everything the point needs travels inside the :class:`ExperimentPoint`;
    ``sequences`` is its run's memo of generated sequences (see
    :meth:`ExperimentPoint.build_instance`).  Any failure is re-raised as a
    :class:`PointEvaluationError` naming the grid point, so a parallel
    sweep's traceback says exactly which point died.
    """
    try:
        instance = point.build_instance(sequences)
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


def _evaluate_run(points: Tuple[ExperimentPoint, ...]) -> List[RunRecord]:
    """Worker entry: simulate a run of grid points, one by one, in order.

    Points of the run that share a ``sequence``-kind workload spec share its
    generated sequence; each is placed at its own ``k``, ``F``, disk count
    and layout.  The memo is local to the task, so nothing outlives it (a
    ``trace:`` file read by a later task is read afresh).
    """
    sequences: Dict[str, Optional[RequestSequence]] = {}
    return [_evaluate_point(point, sequences) for point in points]


def _evaluate_batch(points: Tuple[ExperimentPoint, ...]) -> List[RunRecord]:
    """Worker entry: run one vectorizable batch through the vector kernel.

    The planner (:func:`_plan_execution_units`) only submits batches whose
    points it pre-screened as vector-eligible, but coverage is re-checked
    per pair inside :func:`~repro.disksim.vector.run_batch`, which runs
    anything the kernel does not handle as an ``engine="auto"`` request
    would (the Conservative replay or the loop engine) — each record's
    ``engine`` field reports what actually ran.  Results come back
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


def _compute_point_optimum(task: Tuple[ExperimentPoint, Optional[str]]) -> OptimumRecord:
    """Worker entry: compute (or fetch from the shared store) one optimum.

    Runs interleaved with :func:`_evaluate_run` on the same backend, so
    optimum solves proceed alongside algorithm simulations.  The
    worker-local :class:`OptimumService` consults the shared run store
    first — a warmed store makes this a fingerprint lookup, never an LP
    solve — and writes what it solves there, once.  Failures name the
    representative grid point.
    """
    point, store_path = task
    try:
        if store_path is None:
            return OptimumService().optimum(point.build_instance())
        with RunStore(store_path) as store:
            return OptimumService(store=store).optimum(point.build_instance())
    except Exception as exc:
        raise PointEvaluationError(
            f"optimum solve for point [{point.describe()}] failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _run_task(task: Tuple[str, object]):
    """Dispatch one tagged task (``sim``, ``simbatch`` or ``opt``) to its worker entry.

    The runner submits simulations and optimum solves as one mixed task
    list, so a single backend interleaves both kinds across its workers.
    """
    kind, payload = task
    if kind == "sim":
        return _evaluate_run(payload)
    if kind == "simbatch":
        return _evaluate_batch(payload)
    return _compute_point_optimum(payload)


# ---------------------------------------------------------------------------------
# vector batch planning
# ---------------------------------------------------------------------------------

#: A same-shape group smaller than this is not worth a stacked kernel pass
#: (the numpy setup overhead eats the win); its points join the runs
#: instead.
MIN_VECTOR_BATCH = 8

#: Ceiling on points per stacked pass: keeps worker task sizes (and the
#: kernel's working set) bounded so process backends still load-balance.
MAX_VECTOR_BATCH = 512


def _vector_eligible(point: ExperimentPoint) -> bool:
    """Cheap pre-screen: could the vector kernel cover this point?

    Positive answers are re-validated pair-by-pair inside
    :func:`~repro.disksim.vector.run_batch` (which degrades to the replay
    or the loop engine); a negative answer just routes the point to a run.
    """
    if point.disks != 1:
        return False
    family = point.algorithm.strip().split(":", 1)[0]
    return family in VECTOR_FAMILIES


def _vector_bucket_key(point: ExperimentPoint) -> Tuple[object, ...]:
    """Shape-bucket key: points sharing it stack into one kernel pass.

    Spec-described points bucket by their workload spec with the seed
    normalised away (same family and parameters ⇒ same sequence length and
    block universe size), prebuilt instances by their materialised shape —
    plus ``k``, ``F`` and the algorithm spec, so one batch is "the same
    grid point at many seeds", the common case of a ratio sweep.
    """
    if point.workload is not None:
        spec = point.workload
        if WORKLOAD_REGISTRY.accepts(spec, "seed"):
            spec = with_params(spec, seed=0)
        shape = f"spec={spec}"
    else:
        instance = point.build_instance()  # prebuilt: already materialised
        shape = f"n={instance.num_requests};blocks={len(instance.sequence.distinct_blocks)}"
    return (
        shape,
        point.cache_size,
        point.fetch_time,
        point.algorithm.strip(),
    )


def _plan_execution_units(pending, workers: int):
    """Group pending ``(position, point, key)`` triples into execution units.

    Returns ``[(kind, items), ...]`` where ``kind`` is ``"simbatch"`` (one
    stacked :func:`_evaluate_batch` task for a same-shape bucket) or
    ``"sim"`` (one :func:`_evaluate_run` task for a run of points).  Buckets
    smaller than :data:`MIN_VECTOR_BATCH` are demoted, buckets larger than
    :data:`MAX_VECTOR_BATCH` are chunked.  Every other point, in grid order,
    is cut into runs of :func:`~repro.analysis.backends.adaptive_chunk_size`
    consecutive points for ``workers``: long enough that a run's points
    share their sequences, short enough that every worker gets several.
    Every pending triple lands in exactly one unit, each unit keeps its
    items in grid order and units appear in first-occurrence grid order.
    """
    buckets: Dict[Tuple[object, ...], List] = {}
    loose = []
    for item in pending:
        point = item[1]
        engine = canonical_engine(point.engine)
        if engine in ("vector", "auto") and _vector_eligible(point):
            buckets.setdefault(_vector_bucket_key(point), []).append(item)
        else:
            loose.append(item)
    units = []
    for items in buckets.values():
        if len(items) < MIN_VECTOR_BATCH:
            loose.extend(items)
        else:
            units.extend(
                ("simbatch", items[start:start + MAX_VECTOR_BATCH])
                for start in range(0, len(items), MAX_VECTOR_BATCH)
            )
    loose.sort(key=lambda item: item[0])
    size = adaptive_chunk_size(len(loose), workers)
    units.extend(("sim", loose[start:start + size]) for start in range(0, len(loose), size))
    units.sort(key=lambda unit: unit[1][0][0])
    return units


# ---------------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------------

def _execute_points(
    points: Sequence[ExperimentPoint],
    keys: Sequence[Optional[str]],
    *,
    backend: ExecutionBackend,
    store: Optional[RunStore],
    compute_optimum: bool,
) -> Tuple[List[RunRecord], int, int]:
    """Evaluate ``points`` (store hits, then backend fan-out) in grid order.

    ``keys`` holds each point's store key (``None`` entries without a store).

    Fresh simulation records are persisted to the store *as they stream
    back* from the backend, one transaction per unit, so a killed run keeps
    every completed unit.
    With ``compute_optimum``, optimum solves are deduplicated per instance
    identity and dispatched as ``opt`` tasks interleaved with the pending
    simulations; their results are attached to every record of that
    instance — including stored records that predate the optimum, which are
    upgraded in the store.  A stored record's optimum is trusted only when
    it carries :data:`~repro.lp.service.SOLVER_KEY`; any other is
    re-attached through the (key-fingerprinted) optimum store.

    Returns ``(records, cached_points, optimum_requests)``.
    """
    records: List[Optional[RunRecord]] = [None] * len(points)
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
                if compute_optimum and (
                    hit.optimal_elapsed is None or hit.optimum_solver_key != SOLVER_KEY
                ):
                    request_optimum(position, point)
                continue
        pending.append((position, point, key))
        if compute_optimum:
            request_optimum(position, point)

    identities = list(needs_optimum)
    store_path = None if store is None else str(store.path)
    units = _plan_execution_units(pending, backend.workers)
    tasks: List[Tuple[str, object]] = [
        (kind, tuple(item[1] for item in items)) for kind, items in units
    ]
    tasks.extend(("opt", (representative[identity], store_path)) for identity in identities)

    solved: List[OptimumRecord] = []
    if tasks:
        results = backend.map(_run_task, tasks)
        # Simulation results stream back first (submission order), one
        # record per point in the unit's grid order; persist each unit
        # immediately so an interrupted run loses no finished unit.
        for (_kind, items), unit_records in zip(units, results):
            for (position, _point, _key), record in zip(items, unit_records):
                records[position] = record
            if store is not None:
                store.put_runs(
                    (key, record) for (_p, _point, key), record in zip(items, unit_records)
                )
        solved = list(results)

    for identity, optimum_record in zip(identities, solved):
        for position in needs_optimum[identity]:
            records[position] = records[position].with_optimum(
                optimal_stall=max(optimum_record.stall_time, 0),
                optimal_elapsed=optimum_record.elapsed_time,
                solve_seconds=optimum_record.solve_seconds,
                solver_key=SOLVER_KEY,
            )
    if compute_optimum and store is not None:
        # Persist the optimum-carrying versions: fresh simulations are
        # re-written with their optimum attached, and previously stored
        # records that just gained (or re-keyed) an optimum are upgraded.
        store.put_runs(
            (keys[position], records[position])
            for positions in needs_optimum.values()
            for position in positions
            if keys[position] is not None
        )

    return (
        [record for record in records if record is not None],
        cached_points,
        len(identities),
    )


def _register_sweep(
    spec: ExperimentSpec,
    store: RunStore,
    points: Sequence[ExperimentPoint],
    keys: Sequence[str],
) -> str:
    """Register ``spec``'s manifest (reusing precomputed point keys).

    Reconciles the manifest against the stored records (a record counts as
    completion even if the writing run was killed before it could update
    the manifest) and returns the sweep key.
    """
    sweep_key = sweep_key_for(spec)
    store.begin_sweep(
        sweep_key, spec.name,
        [(key, point.describe()) for key, point in zip(keys, points)],
    )
    store.reconcile_sweep(sweep_key, require_solver_key=_sweep_solver_key(spec))
    return sweep_key


def prepare_sweep(spec: ExperimentSpec, store: RunStore) -> SweepProgress:
    """Register ``spec``'s manifest in ``store`` and report its progress.

    The returned :class:`SweepProgress` names exactly the points a
    ``--resume`` run will still execute (see :func:`_register_sweep` for
    the reconcile semantics).
    """
    points = spec.points()
    keys = [point_cache_key(point) for point in points]
    return store.sweep_progress(_register_sweep(spec, store, points, keys))


def _run_points(
    name: str,
    points: Sequence[ExperimentPoint],
    *,
    backend: str,
    workers: int,
    cache_dir,
    store: Optional[RunStore],
    compute_optimum: bool,
    spec: Optional[ExperimentSpec] = None,
) -> ResultSet:
    """The body :func:`run_experiments` and :func:`evaluate_instances` share.

    Makes the backend, opens the run store under ``cache_dir`` unless
    ``store`` passes one in, registers ``spec``'s sweep manifest (declared
    grids only), evaluates ``points`` and returns them as the
    :class:`ResultSet` ``name``.
    """
    backend_obj = make_backend(backend, workers)
    owned_store = None
    if store is None and cache_dir is not None:
        store = owned_store = RunStore(store_path_for(cache_dir))
    try:
        keys: List[Optional[str]] = [None] * len(points)
        sweep_key = None
        if store is not None:
            keys = [point_cache_key(point) for point in points]
            if spec is not None:
                sweep_key = _register_sweep(spec, store, points, keys)
        records, cached_points, optimum_requests = _execute_points(
            points, keys, backend=backend_obj, store=store, compute_optimum=compute_optimum
        )
        if sweep_key is not None:
            store.mark_points_done(sweep_key, range(len(points)))
        return ResultSet(
            name=name,
            records=tuple(records),
            workers=workers,
            cached_points=cached_points,
            backend=backend_obj.name,
            optimum_requests=optimum_requests,
        )
    finally:
        if owned_store is not None:
            owned_store.close()


def run_experiments(
    spec: ExperimentSpec,
    *,
    workers: int = 0,
    backend: Optional[str] = None,
    cache_dir=None,
    store: Optional[RunStore] = None,
) -> ResultSet:
    """Run the full grid of ``spec`` and return its ordered :class:`ResultSet`.

    ``backend`` (a backend name; default: the spec's) and ``workers``
    select the execution backend; output order (and therefore the JSON/CSV
    documents) is identical across all backends.  ``cache_dir`` opens the
    run store at ``<cache_dir>/runs.sqlite`` (``store`` passes one in
    directly), which persists every record and optimum, registers the sweep
    manifest, and makes warmed re-runs pure lookups.
    """
    return _run_points(
        spec.name,
        spec.points(),
        backend=backend or spec.backend,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        compute_optimum=spec.compute_optimum,
        spec=spec,
    )


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
    return _run_points(
        "ad-hoc",
        points,
        backend=backend,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        compute_optimum=compute_optimum,
    )
