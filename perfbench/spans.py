"""In-memory span tracer and the layer hooks of the traced benchmark run.

The program is not edited: a traced run wraps the public entry points of each
module from here, for the duration of one pass, and restores them afterwards.
Every wrapped call becomes a span named after its layer (``disksim.loop``,
``lp.milp``, ...).  Spans nest by call stack, stay in memory, and are
reduced to per-layer *self times* when the pass ends: a span's duration minus
the part of it that its child spans cover.  MIN therefore counts only under
``paging.min`` although it runs inside ``algorithms.reset``, which runs
inside ``disksim.loop``.

Hooks come in two groups.  ``PARENT_HOOKS`` run in the process that calls
``run_experiments`` (grid expansion, store, backend transport, emission);
``WORKER_HOOKS`` run wherever a task executes (instance build, policy reset,
kernels, LP).  On a process backend only the parent group is installed, so
forked workers do not pay for spans nobody collects.
"""

from __future__ import annotations

import importlib
import pickle
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Grammar of every metric name the benchmark emits.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass
class Span:
    """One timed call: layer name, perf_counter interval, parent index (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Collects spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.task_items: List[object] = []
        self.task_results: List[object] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def _union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        out[span.name] += duration - _union_length(children[index], span.start, span.end)
    return dict(out)


def span_counts(spans: Sequence[Span]) -> Counter:
    """How many spans each layer recorded."""
    return Counter(span.name for span in spans)


def pickle_cost(items: Sequence[object], results: Sequence[object]) -> Tuple[int, int, float]:
    """Bytes of the pickled tasks and results, and the seconds to dump and load both.

    Computed in the parent after the pass, standing in for the transport a
    process backend performs (its workers' own pickling is not observable).
    """
    started = time.perf_counter()
    task_blobs = [pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL) for item in items]
    result_blobs = [pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL) for item in results]
    for blob in task_blobs + result_blobs:
        pickle.loads(blob)
    elapsed = time.perf_counter() - started
    return sum(map(len, task_blobs)), sum(map(len, result_blobs)), elapsed


# ---------------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------------


class Patcher:
    """Replaces attributes and puts the originals back, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _resolve(path: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _plain(tracer: Tracer, layer: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                return original(*args, **kwargs)

        return wrapper

    return make


def _simulate(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``simulate_with_engine``: a loop span, renamed when the vector kernel ran.

    A single-point vector run is a vector row but not a batch; batches are
    counted by :func:`_run_batch` only.
    """

    def make(original: Callable) -> Callable:
        def wrapper(instance, policy, **kwargs):
            with tracer.span("disksim.loop") as span:
                result, engine = original(instance, policy, **kwargs)
                if engine == "vector":
                    span.name = "disksim.vector"
                    tracer.count("disksim.vector.rows")
                    tracer.count("disksim.vector.requests", instance.num_requests)
                else:
                    tracer.count("disksim.loop.requests", instance.num_requests)
            return result, engine

        return wrapper

    return make


def _run_batch(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(pairs, **kwargs):
            with tracer.span("disksim.vector"):
                outcomes = original(pairs, **kwargs)
            tracer.count("disksim.vector.batches")
            for (instance, _), outcome in zip(pairs, outcomes):
                if outcome.engine == "vector":
                    tracer.count("disksim.vector.rows")
                    tracer.count("disksim.vector.requests", instance.num_requests)
                else:
                    tracer.count("disksim.vector.fallbacks")
            return outcomes

        return wrapper

    return make


def _run_paging(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span("paging.min"):
                result = original(*args, **kwargs)
            tracer.count("paging.min_faults", result.faults)
            return result

        return wrapper

    return make


def _lp_model(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span("lp.model"):
                model = original(*args, **kwargs)
            tracer.count("lp.intervals", model.num_intervals)
            return model

        return wrapper

    return make


def _counted(tracer: Tracer, layer: str, counter: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                result = original(*args, **kwargs)
            tracer.count(counter)
            return result

        return wrapper

    return make


def _store_get(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(self, key):
            with tracer.span("store.get"):
                record = original(self, key)
            tracer.count("store.gets")
            tracer.count("store.hits", record is not None)
            return record

        return wrapper

    return make


def _store_put_many(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(self, items):
            with tracer.span("store.put"):
                items = list(items)
                original(self, items)
            tracer.count("store.puts", len(items))

        return wrapper

    return make


def _backend_map(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Backend ``map``: one span per result waited for, tasks and results kept."""

    def make(original: Callable) -> Callable:
        def wrapper(self, fn, items):
            items = list(items)
            tracer.count("backends.tasks", len(items))
            tracer.task_items.extend(items)
            inner = original(self, fn, items)
            try:
                while True:
                    with tracer.span("backends.map"):
                        try:
                            result = next(inner)
                        except StopIteration:
                            return
                    tracer.task_results.append(result)
                    yield result
            finally:
                inner.close()

        return wrapper

    return make


def _hooks(tracer: Tracer, table: Sequence[Tuple[str, object]]) -> List[Tuple[str, Callable]]:
    out = []
    for path, kind in table:
        make = _plain(tracer, kind) if isinstance(kind, str) else kind(tracer)
        out.append((path, make))
    return out


_RUNNER = "repro.analysis.runner"
_STORE = "repro.analysis.store:RunStore"

PARENT_HOOKS: Tuple[Tuple[str, object], ...] = (
    (f"{_RUNNER}:ExperimentSpec.points", "runner.keys"),
    (f"{_RUNNER}:point_cache_key", "runner.keys"),
    (f"{_RUNNER}:_instance_identity", "runner.keys"),
    (f"{_RUNNER}:_plan_execution_units", "runner.plan"),
    ("repro.analysis.results:ResultSet.to_json", "runner.emit"),
    (f"{_STORE}.__init__", "store.open"),
    (f"{_STORE}.close", "store.open"),
    (f"{_STORE}.get_run", _store_get),
    (f"{_STORE}.get_optimum", _store_get),
    (f"{_STORE}.put_runs", _store_put_many),
    (f"{_STORE}.put_optimum", lambda t: _counted(t, "store.put", "store.puts")),
    (f"{_STORE}.begin_sweep", "store.manifest"),
    (f"{_STORE}.reconcile_sweep", "store.manifest"),
    (f"{_STORE}.mark_points_done", "store.manifest"),
    ("repro.analysis.backends:SerialBackend.map", _backend_map),
    ("repro.analysis.backends:_PoolBackend.map", _backend_map),
)

WORKER_HOOKS: Tuple[Tuple[str, object], ...] = (
    (f"{_RUNNER}:_run_task", "runner.task"),
    (f"{_RUNNER}:ExperimentPoint.build_instance", "workloads.build"),
    ("repro.algorithms.base:PrefetchAlgorithm.reset", "algorithms.reset"),
    ("repro.algorithms.conservative:run_paging", _run_paging),
    ("repro.algorithms.parallel_aggressive:run_paging", _run_paging),
    ("repro.disksim.executor:simulate_with_engine", _simulate),
    (f"{_RUNNER}:simulate_with_engine", _simulate),
    (f"{_RUNNER}:run_batch", _run_batch),
    ("repro.lp.service:compute_optimum_record", lambda t: _counted(t, "lp.solve", "lp.solves")),
    ("repro.lp.service:normalize_instance", "lp.normalize"),
    ("repro.lp.service:instance_fingerprint", "lp.normalize"),
    ("repro.lp.single_disk:SynchronizedLPModel", _lp_model),
    ("repro.lp.parallel:SynchronizedLPModel", _lp_model),
    ("repro.lp.single_disk:solve_relaxation", "lp.relax"),
    ("repro.lp.parallel:solve_relaxation", "lp.relax"),
    ("repro.lp.single_disk:solve_integral", lambda t: _counted(t, "lp.milp", "lp.milp_solves")),
    ("repro.lp.parallel:solve_integral", lambda t: _counted(t, "lp.milp", "lp.milp_solves")),
    ("repro.lp.model:SynchronizedLPModel.extract_schedule", "lp.extract"),
    ("repro.lp.single_disk:execute_interval_schedule", "lp.replay"),
    ("repro.lp.parallel:execute_interval_schedule", "lp.replay"),
)


@contextmanager
def installed(tracer: Tracer, *, workers_in_process: bool) -> Iterator[Tracer]:
    """Install the hooks for one pass; ``workers_in_process`` adds the worker group."""
    table = PARENT_HOOKS + (WORKER_HOOKS if workers_in_process else ())
    patcher = Patcher()
    try:
        for path, make in _hooks(tracer, table):
            owner, attr = _resolve(path)
            patcher.replace(owner, attr, make)
        yield tracer
    finally:
        patcher.restore()


def layer_metrics(tracer: Tracer, *, vector_points: int, points: int) -> Dict[str, float]:
    """Per-layer counts, self times and rates of one traced pass."""
    selfs = self_times(tracer.spans)
    spans = span_counts(tracer.spans)
    counts = tracer.counts

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    loop_s = selfs.get("disksim.loop", 0.0)
    vector_s = selfs.get("disksim.vector", 0.0)
    gets = counts["store.gets"]
    return {
        "workloads.builds": spans["workloads.build"],
        "workloads.build_s": selfs.get("workloads.build", 0.0),
        "algorithms.resets": spans["algorithms.reset"],
        "algorithms.reset_s": selfs.get("algorithms.reset", 0.0),
        "paging.min_s": selfs.get("paging.min", 0.0),
        "paging.min_faults": counts["paging.min_faults"],
        "disksim.loop.points": spans["disksim.loop"],
        "disksim.loop.s": loop_s,
        "disksim.loop.req_per_s": rate(counts["disksim.loop.requests"], loop_s),
        "disksim.vector.batches": counts["disksim.vector.batches"],
        "disksim.vector.rows": counts["disksim.vector.rows"],
        "disksim.vector.fallbacks": counts["disksim.vector.fallbacks"],
        "disksim.vector.s": vector_s,
        "disksim.vector.req_per_s": rate(counts["disksim.vector.requests"], vector_s),
        "disksim.vector.share": vector_points / points if points else 0.0,
        "lp.solves": counts["lp.solves"],
        "lp.milp_solves": counts["lp.milp_solves"],
        "lp.intervals": counts["lp.intervals"],
        "lp.normalize_s": selfs.get("lp.normalize", 0.0),
        "lp.model_s": selfs.get("lp.model", 0.0),
        "lp.relax_s": selfs.get("lp.relax", 0.0),
        "lp.milp_s": selfs.get("lp.milp", 0.0),
        "lp.extract_s": selfs.get("lp.extract", 0.0),
        "lp.replay_s": selfs.get("lp.replay", 0.0),
        "lp.solve_s": selfs.get("lp.solve", 0.0),
        "store.puts": counts["store.puts"],
        "store.put_s": selfs.get("store.put", 0.0),
        "store.gets": gets,
        "store.get_s": selfs.get("store.get", 0.0),
        "store.hit_frac": counts["store.hits"] / gets if gets else 0.0,
        "store.manifest_s": selfs.get("store.manifest", 0.0),
        "store.open_s": selfs.get("store.open", 0.0),
        "backends.tasks": counts["backends.tasks"],
        "backends.map_s": selfs.get("backends.map", 0.0),
        "runner.keys_s": selfs.get("runner.keys", 0.0),
        "runner.plan_s": selfs.get("runner.plan", 0.0),
        "runner.task_s": selfs.get("runner.task", 0.0),
        "runner.emit_s": selfs.get("runner.emit", 0.0),
    }


def covered_seconds(tracer: Tracer, containers: Iterable[str]) -> float:
    """Sum of the self times of every layer but ``containers``.

    A container span wraps whole tasks (``runner.task``) or, on the serial
    backend, the loop that runs them (``backends.map``).  Its self time is
    work inside the task that no named layer claims, so it is not covered.
    """
    skip = set(containers)
    return sum(s for name, s in self_times(tracer.spans).items() if name not in skip)


def dump_spans(tracer: Tracer) -> List[Dict[str, object]]:
    """JSON-safe span list (written out once the run ends)."""
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
        for s in tracer.spans
    ]


def check_names(names: Iterable[str]) -> Optional[str]:
    """The first name that breaks :data:`METRIC_NAME`, or None."""
    for name in names:
        if not METRIC_NAME.fullmatch(name):
            return name
    return None
