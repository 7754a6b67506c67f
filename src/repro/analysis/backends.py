"""Pluggable execution backends for the batched experiment runner.

The runner (:mod:`repro.analysis.runner`) evaluates a grid of independent
tasks — algorithm simulations and LP optimum solves — through one small
contract:

* :class:`ExecutionBackend` — ``map(fn, items)`` applies a picklable
  module-level callable to every item and yields the results **in
  submission order** as they become available.  Order-preservation is what
  lets the runner guarantee byte-identical JSON across all backends.
* :class:`SerialBackend` — in-process, zero-overhead reference executor.
* :class:`ThreadPoolBackend` — a ``ThreadPoolExecutor``; useful when the
  task releases the GIL (HiGHS solves) or on small grids where process
  start-up would dominate.
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` for CPU-bound
  fan-out (the default for ``workers > 1``).
* **Task sizing** — the pools dispatch every item as its own task; the
  runner's planner sizes the items instead.  It cuts a grid's points into
  runs of :func:`adaptive_chunk_size` points (derived from the point count
  and the worker count), which amortises per-task IPC overhead on large
  grids, keeps every worker busy on small ones, and lets the points of one
  run share their generated sequences.

The pool backends scope their executors to each ``map`` call, so a backend
holds no resources between calls.  Backends are addressed by name
(``auto | serial | thread | process``) through :func:`make_backend`, which
is what ``ExperimentSpec(backend=...)`` and the CLI ``--backend`` option
resolve through.  ``auto`` preserves the historical runner semantics:
serial at ``workers <= 1``, process fan-out otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

from ..errors import ConfigurationError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "adaptive_chunk_size",
    "make_backend",
    "resolve_backend_name",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Target number of chunks per worker: enough slack that a slow chunk (an LP
#: solve amid fast simulations) cannot leave the other workers idle, small
#: enough that per-chunk dispatch overhead stays amortised.
_CHUNKS_PER_WORKER = 4

#: Never put more than this many items into one chunk: an upper bound on
#: the work lost when a worker dies and on scheduling granularity.
_MAX_CHUNK = 64


def adaptive_chunk_size(num_tasks: int, workers: int) -> int:
    """How many of ``num_tasks`` items one task should carry over ``workers``.

    The runner's planner cuts runs of grid points to this size.  Aims for
    :data:`_CHUNKS_PER_WORKER` chunks per worker (so stragglers rebalance),
    clamped to ``[1, _MAX_CHUNK]``.  Small grids therefore run one point
    per task; a 10,000-point grid on 8 workers runs 64-point tasks instead
    of 10,000 round-trips.
    """
    if num_tasks <= 0:
        return 1
    workers = max(1, workers)
    target = -(-num_tasks // (workers * _CHUNKS_PER_WORKER))  # ceil division
    return max(1, min(target, _MAX_CHUNK))


class ExecutionBackend(ABC):
    """How the runner executes a batch of independent tasks.

    Implementations must yield results in submission order (the runner
    demultiplexes them positionally) and propagate worker exceptions to the
    consumer.  ``fn`` must be a module-level callable and the items
    picklable when the backend crosses a process boundary.
    """

    #: Registry name of the backend (``serial``/``thread``/``process``).
    name: str = "abstract"

    def __init__(self, workers: int = 0):
        self.workers = max(1, int(workers))

    @abstractmethod
    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
        """Apply ``fn`` to every item, yielding results in submission order."""


class SerialBackend(ExecutionBackend):
    """In-process execution in submission order — the reference backend."""

    name = "serial"

    def __init__(self, workers: int = 1):
        super().__init__(1)

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
        """Apply ``fn`` item by item; exceptions surface immediately."""
        for item in items:
            yield fn(item)


class _PoolBackend(ExecutionBackend):
    """Shared pool machinery of the thread and process backends."""

    _executor_type: Callable[..., Executor] = Executor

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
        """Fan ``items`` out over the pool, yielding results in order.

        The whole task list is submitted up front (one shared queue), one
        item per task, so heterogeneous tasks — simulation runs, vector
        batches and LP solves — interleave across the pool instead of
        running in phases.  Results stream back in submission order as they
        complete; the pool is shut down when the iterator is exhausted or
        closed.
        """
        items = list(items)
        if not items:
            return
        with self._executor_type(max_workers=self.workers) as pool:
            yield from pool.map(fn, items)


class ThreadPoolBackend(_PoolBackend):
    """A ``ThreadPoolExecutor`` backend (GIL-sharing, zero pickling cost)."""

    name = "thread"
    _executor_type = ThreadPoolExecutor


class ProcessPoolBackend(_PoolBackend):
    """A ``ProcessPoolExecutor`` backend for CPU-bound fan-out."""

    name = "process"
    _executor_type = ProcessPoolExecutor


#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` option).
BACKEND_NAMES = ("auto", "serial", "thread", "process")

_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def resolve_backend_name(name: str, workers: int) -> str:
    """The concrete backend name ``name`` selects at ``workers`` workers.

    ``auto`` keeps the historical runner behaviour: ``serial`` when
    ``workers <= 1``, ``process`` otherwise.  Unknown names raise a
    :class:`~repro.errors.ConfigurationError` naming the alternatives, so a
    typo fails before any worker starts.
    """
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
        )
    if name == "auto":
        return "process" if workers and workers > 1 else "serial"
    return name


def make_backend(name: str, workers: int = 0) -> ExecutionBackend:
    """Build the :class:`ExecutionBackend` named ``name`` with ``workers``."""
    return _BACKENDS[resolve_backend_name(name, workers)](workers)
