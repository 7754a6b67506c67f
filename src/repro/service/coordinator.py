"""Chunk-lease coordinator of the distributed sweep fabric.

The remote execution backend (:mod:`repro.analysis.remote`) fans a grid's
tasks out to pull-based worker processes.  This module is the server half:
a :class:`SweepCoordinator` ledger that hands out *leases* on task chunks
and collects their results, plus a stdlib ``ThreadingHTTPServer`` front end
(JSON in, JSON out, all state serialised behind the ledger's own lock so
handler threads stay naive).

Lease lifecycle
---------------
A chunk is ``pending`` until a worker leases it, ``leased`` while a worker
holds a live lease on it, and ``done`` once a result arrives::

    pending --lease()--> leased --complete()--> done
        ^                   |
        '---- deadline ------'      (expiry: the chunk is re-issued and the
              expires               attempt counter makes a fresh lease id)

Each lease carries an id (``<chunk>.<attempt>``), a deadline extended by
worker heartbeats, and the run token of the submission that created it.
Expired leases are detected lazily — every ``lease()`` call sweeps for
overdue deadlines first — so a killed worker's chunk is re-issued as soon
as any live worker asks for work.  No progress is ever lost to a worker
death; at least one live worker must keep polling for the sweep to finish.

Idempotency invariant
---------------------
Completions are accepted at most once per chunk: a duplicate delivery
(retried POST, a worker that beat its own expired lease) is acknowledged
but discarded (``accepted: false``), and a completion carrying a stale run
token — a worker that outlived a coordinator restart — is discarded the
same way.  Discarding is always safe because task results are
deterministic functions of their inputs and the run store keys records by
point cache key, so re-executing a discarded chunk reproduces the same
bytes.

The payloads the coordinator ferries are opaque bytes (the backend pickles
``(fn, items)`` chunks; workers pickle result lists back).  This is a
trusted-cluster protocol: run coordinators and workers only on hosts you
control.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, CoordinatorShutdown

__all__ = [
    "SweepCoordinator",
    "CoordinatorHTTPServer",
    "make_coordinator_server",
]

#: Distinguishes submissions across coordinator (re)starts without any RNG:
#: pid separates processes, the counter separates submissions in one process.
_RUN_COUNTER = itertools.count(1)


def _next_run_token() -> str:
    """A token unique per submission (pid + in-process counter, no RNG)."""
    return f"{os.getpid()}.{next(_RUN_COUNTER)}"


@dataclass
class _Chunk:
    """One leased unit of work: an opaque payload plus its lease state."""

    index: int
    payload: bytes
    task_count: int
    status: str = "pending"  # pending | leased | done
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    attempts: int = 0
    result: Optional[bytes] = None


@dataclass
class _WorkerStats:
    """Per-worker accounting surfaced by ``/status`` (and ``--watch``)."""

    active_chunk: Optional[int] = None
    completed_chunks: int = 0
    completed_tasks: int = 0
    leases: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view of the stats."""
        return {
            "active_chunk": self.active_chunk,
            "completed_chunks": self.completed_chunks,
            "completed_tasks": self.completed_tasks,
            "leases": self.leases,
        }


class SweepCoordinator:
    """The lease ledger: chunks out, results in, everything under one lock.

    ``clock`` is injectable (default ``time.monotonic`` — deadlines are
    durations, never wall-clock timestamps) so lease-expiry behaviour is
    testable without sleeping.
    """

    def __init__(
        self,
        *,
        lease_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease timeout must be positive, got {lease_timeout!r}"
            )
        self.lease_timeout = float(lease_timeout)
        self._clock = clock
        self._cond = threading.Condition()
        self._chunks: List[_Chunk] = []
        self._submitted = False
        self._run_token: Optional[str] = None
        self._shutdown = False
        self._reissued = 0
        self._duplicates = 0
        self._workers: Dict[str, _WorkerStats] = {}

    # -- submission and consumption (backend side) --------------------------------

    def submit(self, payloads: Sequence[Tuple[bytes, int]]) -> str:
        """Load a batch of ``(payload, task_count)`` chunks; returns the run token.

        Replaces any previous batch (the backend submits once per ``map``
        call); completions carrying an older run token are discarded.
        """
        with self._cond:
            token = _next_run_token()
            self._chunks = [
                _Chunk(index=i, payload=payload, task_count=count)
                for i, (payload, count) in enumerate(payloads)
            ]
            self._run_token = token
            self._submitted = True
            self._cond.notify_all()
            return token

    def results(self) -> Iterator[bytes]:
        """Yield each chunk's result payload in submission order (blocking).

        Raises :class:`~repro.errors.CoordinatorShutdown` if a shutdown is
        requested while results are still outstanding; everything yielded
        before that has been delivered to the consumer (and, in the runner,
        persisted).
        """
        total = len(self._chunks)
        for index in range(total):
            with self._cond:
                while True:
                    if self._shutdown:
                        raise CoordinatorShutdown(
                            f"coordinator shut down with chunk {index}/{total} "
                            "still outstanding"
                        )
                    chunk = self._chunks[index]
                    if chunk.result is not None:
                        break
                    # Timed wait so an externally set shutdown flag (signal
                    # handlers cannot notify a Condition they don't hold) is
                    # observed promptly even without a notification.
                    self._cond.wait(timeout=0.5)
            yield chunk.result

    def request_shutdown(self) -> None:
        """Ask the ledger to stop: ``results()`` raises, workers are told to exit."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    @property
    def complete(self) -> bool:
        """Whether a batch was submitted and every chunk is done."""
        with self._cond:
            return self._submitted and all(c.status == "done" for c in self._chunks)

    # -- worker protocol (HTTP handler side) --------------------------------------

    def _note_worker(self, worker: str) -> _WorkerStats:
        """The stats row of ``worker`` (created on first contact)."""
        stats = self._workers.get(worker)
        if stats is None:
            stats = self._workers[worker] = _WorkerStats()
        return stats

    def _expire_overdue_leases(self) -> None:
        """Re-queue every leased chunk whose deadline has passed (lock held)."""
        now = self._clock()
        for chunk in self._chunks:
            if chunk.status == "leased" and chunk.deadline < now:
                holder = self._workers.get(chunk.worker or "")
                if holder is not None and holder.active_chunk == chunk.index:
                    holder.active_chunk = None
                chunk.status = "pending"
                chunk.worker = None
                self._reissued += 1

    def lease(self, worker: str) -> Dict[str, object]:
        """Grant ``worker`` a chunk lease, or report ``idle``/``done``/``shutdown``.

        Every call first sweeps for expired leases, so a dead worker's chunk
        is re-issued to the next live worker that asks.
        """
        with self._cond:
            stats = self._note_worker(worker)
            if self._shutdown:
                return {"state": "shutdown"}
            if not self._submitted:
                return {"state": "idle"}
            self._expire_overdue_leases()
            for chunk in self._chunks:
                if chunk.status == "pending":
                    chunk.attempts += 1
                    chunk.status = "leased"
                    chunk.worker = worker
                    chunk.lease_id = f"{chunk.index}.{chunk.attempts}"
                    chunk.deadline = self._clock() + self.lease_timeout
                    stats.active_chunk = chunk.index
                    stats.leases += 1
                    return {
                        "state": "lease",
                        "chunk": chunk.index,
                        "lease": chunk.lease_id,
                        "run": self._run_token,
                        "timeout": self.lease_timeout,
                        "payload": base64.b64encode(chunk.payload).decode("ascii"),
                        "tasks": chunk.task_count,
                    }
            if all(c.status == "done" for c in self._chunks):
                return {"state": "done"}
            return {"state": "idle"}

    def heartbeat(self, worker: str, chunk_index: int, lease_id: str, run: str) -> Dict[str, object]:
        """Extend a live lease's deadline; reports whether the lease still holds."""
        with self._cond:
            self._note_worker(worker)
            valid = (
                run == self._run_token
                and 0 <= chunk_index < len(self._chunks)
                and self._chunks[chunk_index].status == "leased"
                and self._chunks[chunk_index].lease_id == lease_id
            )
            if valid:
                self._chunks[chunk_index].deadline = self._clock() + self.lease_timeout
            return {"state": "ok", "valid": valid}

    def complete_chunk(
        self, worker: str, chunk_index: int, lease_id: str, run: str, payload: bytes
    ) -> Dict[str, object]:
        """Accept one chunk result (idempotent; see the module invariant).

        The first completion of a not-yet-done chunk is accepted even when
        its lease has expired and been re-issued (the work is deterministic,
        so whoever finishes first wins); later deliveries and completions
        from a different run token are acknowledged but discarded.
        """
        with self._cond:
            stats = self._note_worker(worker)
            if stats.active_chunk == chunk_index:
                stats.active_chunk = None
            if run != self._run_token or not self._submitted:
                return {"state": "ok", "accepted": False, "reason": "unknown-run"}
            if not 0 <= chunk_index < len(self._chunks):
                return {"state": "ok", "accepted": False, "reason": "unknown-chunk"}
            chunk = self._chunks[chunk_index]
            if chunk.status == "done":
                self._duplicates += 1
                return {"state": "ok", "accepted": False, "reason": "duplicate"}
            stale = lease_id != chunk.lease_id
            chunk.result = payload
            chunk.status = "done"
            chunk.worker = None
            stats.completed_chunks += 1
            stats.completed_tasks += chunk.task_count
            self._cond.notify_all()
            return {
                "state": "ok",
                "accepted": True,
                "stale_lease": stale,
                "run_state": (
                    "done" if all(c.status == "done" for c in self._chunks) else "active"
                ),
            }

    # -- observability ------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """JSON-safe progress snapshot (the ``/status`` payload)."""
        with self._cond:
            by_status = {"pending": 0, "leased": 0, "done": 0}
            tasks_done = 0
            for chunk in self._chunks:
                by_status[chunk.status] += 1
                if chunk.status == "done":
                    tasks_done += chunk.task_count
            if self._shutdown:
                state = "shutdown"
            elif not self._submitted:
                state = "waiting"
            elif by_status["done"] == len(self._chunks):
                state = "done"
            else:
                state = "running"
            return {
                "state": state,
                "chunks": {"total": len(self._chunks), **by_status},
                "tasks": {
                    "total": sum(c.task_count for c in self._chunks),
                    "done": tasks_done,
                },
                "reissued_leases": self._reissued,
                "duplicate_completions": self._duplicates,
                "workers": {
                    name: stats.as_dict()
                    for name, stats in sorted(self._workers.items())
                },
            }


class CoordinatorHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`SweepCoordinator`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], coordinator: SweepCoordinator) -> None:
        super().__init__(address, _Handler)
        self.coordinator = coordinator
        self.started_unix = time.time()  # repro: allow(determinism-clock) -- /health uptime metadata, not result state


def _chunk_field(body: Dict[str, Any]) -> int:
    """The ``chunk`` index of a worker POST (``-1``, an unknown chunk, if absent)."""
    value = body.get("chunk", -1)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"field 'chunk' must be an integer chunk index, got {value!r}"
        ) from None


class _Handler(BaseHTTPRequestHandler):
    """Request handler translating the worker protocol onto the ledger."""

    server_version = "repro-coordinator/1"
    protocol_version = "HTTP/1.1"
    server: CoordinatorHTTPServer

    # The default handler logs every request with a wall-clock timestamp to
    # stderr; the coordinator's /status endpoint is the observability surface.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if code == 400:
            # The request body may be unread (bad Content-Length), so the
            # connection cannot carry another request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise ConfigurationError(
                f"Content-Length header {header!r} is not a non-negative integer"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("request body must be a JSON object")
        return payload

    def _handle(self, method: str) -> None:
        try:
            payload = self._route(method, self.path)
        except ConfigurationError as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            if payload is None:
                self._send_json(404, {"error": f"no route for {method} {self.path}"})
            else:
                self._send_json(200, payload)

    def _route(self, method: str, path: str) -> Optional[Dict[str, Any]]:
        coordinator = self.server.coordinator
        if method == "GET":
            if path == "/health":
                uptime = time.time() - self.server.started_unix  # repro: allow(determinism-clock) -- /health uptime metadata, not result state
                return {
                    "ok": True,
                    "state": coordinator.status()["state"],
                    "uptime_seconds": round(uptime, 3),
                }
            if path == "/status":
                return coordinator.status()
            return None
        if method == "POST":
            body = self._read_body()
            worker = str(body.get("worker", "anonymous"))
            if path == "/lease":
                return coordinator.lease(worker)
            if path == "/heartbeat":
                return coordinator.heartbeat(
                    worker,
                    _chunk_field(body),
                    str(body.get("lease", "")),
                    str(body.get("run", "")),
                )
            if path == "/complete":
                try:
                    payload = base64.b64decode(str(body.get("payload", "")))
                except (ValueError, TypeError) as exc:
                    raise ConfigurationError(
                        f"completion payload is not valid base64: {exc}"
                    ) from exc
                return coordinator.complete_chunk(
                    worker,
                    _chunk_field(body),
                    str(body.get("lease", "")),
                    str(body.get("run", "")),
                    payload,
                )
            return None
        return None

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")


def make_coordinator_server(
    coordinator: SweepCoordinator, host: str = "127.0.0.1", port: int = 0
) -> CoordinatorHTTPServer:
    """Bind the coordinator's HTTP front end (``port=0`` picks a free port)."""
    return CoordinatorHTTPServer((host, port), coordinator)
