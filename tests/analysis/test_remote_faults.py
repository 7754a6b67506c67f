"""Fault-injection suite for the distributed sweep fabric.

The fabric's claims — killed workers lose no progress, duplicate deliveries
are idempotent, a coordinator restart resumes cleanly — are proved here the
same way the engine oracle proves simulation parity: by property.  Every
adversarial scenario runs a real 60-point grid through ``RemoteBackend`` +
in-process ``run_worker`` loops with a :class:`FaultPlan` threaded through
the transport, then asserts the run store's ``runs`` rows are byte-identical
to a ``backend="serial"`` run of the same grid.
"""

from __future__ import annotations

import base64
import contextlib
import http.client
import json
import sqlite3
import threading
import time

import pytest

from repro.analysis.remote import (
    FaultPlan,
    RemoteBackend,
    backoff_delays,
    run_worker,
)
from repro.analysis.runner import ExperimentSpec, run_experiments
from repro.analysis.store import RunStore, store_path_for
from repro.errors import (
    ConfigurationError,
    CoordinatorShutdown,
    WorkerTransportError,
)
from repro.service.coordinator import SweepCoordinator, make_coordinator_server

# ---------------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------------

#: Worker parameters fast enough for tests: tight polling, millisecond backoff.
FAST_WORKER = dict(poll_interval=0.01, backoff_base=0.01, backoff_cap=0.05, max_retries=3)


def _square(value: int) -> int:
    """Module-level (picklable) work function."""
    return value * value


def _boom_on_7(value: int) -> int:
    """Module-level work function that fails on a sentinel input."""
    if value == 7:
        raise ValueError("task 7 explodes")
    return value


def _grid_spec() -> ExperimentSpec:
    """The 60-point grid every equivalence property runs: 2 x 3 x 2 x 5."""
    return ExperimentSpec(
        name="fault-grid",
        workloads=("zipf:n=30,blocks=10", "zipf:n=24,blocks=8,skew=0.9"),
        seeds=(0, 1, 2),
        cache_sizes=(3, 4),
        fetch_times=(3,),
        algorithms=("aggressive", "demand", "conservative", "combination", "delay:d=2"),
    )


def _run_rows(db_path) -> list:
    """The store's ``runs`` rows, sorted — the byte-level equivalence witness."""
    with sqlite3.connect(db_path) as conn:
        return sorted(conn.execute("SELECT key, record FROM runs").fetchall())


def _serial_rows(tmp_path) -> list:
    """Rows of a fresh serial run of the grid (the reference bytes)."""
    serial_dir = tmp_path / "serial"
    run_experiments(_grid_spec(), backend="serial", cache_dir=serial_dir)
    return _run_rows(store_path_for(serial_dir))


def _start_workers(url: str, plans) -> list:
    """One worker thread per fault plan (None = healthy); returns the threads."""
    threads = []
    for plan in plans:
        thread = threading.Thread(
            target=run_worker,
            args=(url,),
            kwargs=dict(fault_plan=plan, **FAST_WORKER),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def _run_remote_grid(tmp_path, plans, *, lease_timeout=0.5, chunk_size=4):
    """Run the 60-point grid remotely under ``plans``; returns (rows, status)."""
    cache_dir = tmp_path / "remote"
    backend = RemoteBackend(2, chunk_size=chunk_size, lease_timeout=lease_timeout)
    url = backend.start()
    threads = _start_workers(url, plans)
    try:
        run_experiments(_grid_spec(), backend=backend, cache_dir=cache_dir)
        for thread in threads:
            thread.join(timeout=60)
        status = backend.coordinator.status()
    finally:
        backend.close()
    return _run_rows(store_path_for(cache_dir)), status


# ---------------------------------------------------------------------------------
# coordinator ledger unit tests (injected clock: no sleeping)
# ---------------------------------------------------------------------------------


class FakeClock:
    """A hand-advanced monotonic clock for deterministic lease-expiry tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSweepCoordinator:
    def _loaded(self, clock, payloads=(b"p0", b"p1")):
        coordinator = SweepCoordinator(lease_timeout=10.0, clock=clock)
        coordinator.submit([(payload, 1) for payload in payloads])
        return coordinator

    def test_lease_before_submit_is_idle_not_done(self):
        coordinator = SweepCoordinator(lease_timeout=10.0, clock=FakeClock())
        assert coordinator.lease("w1")["state"] == "idle"
        assert not coordinator.complete

    def test_expired_lease_is_reissued_with_fresh_lease_id(self):
        clock = FakeClock()
        coordinator = self._loaded(clock, payloads=(b"p0",))
        first = coordinator.lease("w1")
        assert first["state"] == "lease"
        # Within the deadline the chunk is not up for grabs.
        assert coordinator.lease("w2")["state"] == "idle"
        clock.advance(10.5)
        second = coordinator.lease("w2")
        assert second["state"] == "lease"
        assert second["chunk"] == first["chunk"]
        assert second["lease"] != first["lease"]
        assert coordinator.status()["reissued_leases"] == 1

    def test_heartbeat_extends_the_deadline(self):
        clock = FakeClock()
        coordinator = self._loaded(clock, payloads=(b"p0",))
        grant = coordinator.lease("w1")
        clock.advance(8.0)
        ack = coordinator.heartbeat("w1", grant["chunk"], grant["lease"], grant["run"])
        assert ack["valid"]
        # 8s + 8s would have expired the original deadline; the heartbeat
        # reset it, so the chunk is still w1's.
        clock.advance(8.0)
        assert coordinator.lease("w2")["state"] == "idle"

    def test_heartbeat_on_stale_lease_reports_invalid(self):
        clock = FakeClock()
        coordinator = self._loaded(clock, payloads=(b"p0",))
        grant = coordinator.lease("w1")
        clock.advance(10.5)
        coordinator.lease("w2")  # re-issues the chunk
        ack = coordinator.heartbeat("w1", grant["chunk"], grant["lease"], grant["run"])
        assert not ack["valid"]

    def test_first_completion_wins_even_from_an_expired_lease(self):
        clock = FakeClock()
        coordinator = self._loaded(clock, payloads=(b"p0",))
        stale = coordinator.lease("w1")
        clock.advance(10.5)
        fresh = coordinator.lease("w2")
        # The presumed-dead worker delivers first: deterministic work, so the
        # result is accepted (flagged stale) and the re-run's delivery is the
        # duplicate.
        first = coordinator.complete_chunk(
            "w1", stale["chunk"], stale["lease"], stale["run"], b"r"
        )
        assert first["accepted"] and first["stale_lease"]
        second = coordinator.complete_chunk(
            "w2", fresh["chunk"], fresh["lease"], fresh["run"], b"r"
        )
        assert not second["accepted"]
        assert second["reason"] == "duplicate"
        assert coordinator.status()["duplicate_completions"] == 1

    def test_duplicate_completion_is_discarded(self):
        coordinator = self._loaded(FakeClock(), payloads=(b"p0",))
        grant = coordinator.lease("w1")
        args = ("w1", grant["chunk"], grant["lease"], grant["run"], b"r")
        assert coordinator.complete_chunk(*args)["accepted"]
        again = coordinator.complete_chunk(*args)
        assert not again["accepted"]
        assert again["reason"] == "duplicate"

    def test_completion_for_unknown_chunk_or_run_is_discarded(self):
        coordinator = self._loaded(FakeClock())
        grant = coordinator.lease("w1")
        bad_chunk = coordinator.complete_chunk(
            "w1", 99, grant["lease"], grant["run"], b"r"
        )
        assert not bad_chunk["accepted"] and bad_chunk["reason"] == "unknown-chunk"
        # A worker that outlived a coordinator restart carries the old run
        # token; its delivery must not land in the re-chunked batch.
        bad_run = coordinator.complete_chunk(
            "w1", grant["chunk"], grant["lease"], "999.1", b"r"
        )
        assert not bad_run["accepted"] and bad_run["reason"] == "unknown-run"

    def test_done_and_shutdown_states(self):
        coordinator = self._loaded(FakeClock(), payloads=(b"p0",))
        grant = coordinator.lease("w1")
        coordinator.complete_chunk(
            "w1", grant["chunk"], grant["lease"], grant["run"], b"r"
        )
        assert coordinator.lease("w1")["state"] == "done"
        assert coordinator.complete
        coordinator.request_shutdown()
        assert coordinator.lease("w1")["state"] == "shutdown"

    def test_results_raise_on_shutdown_with_outstanding_chunks(self):
        coordinator = self._loaded(FakeClock())
        coordinator.request_shutdown()
        with pytest.raises(CoordinatorShutdown):
            list(coordinator.results())

    def test_rejects_nonpositive_lease_timeout(self):
        with pytest.raises(ConfigurationError, match="lease timeout"):
            SweepCoordinator(lease_timeout=0)


# ---------------------------------------------------------------------------------
# coordinator HTTP routes (real sockets)
# ---------------------------------------------------------------------------------


@contextlib.contextmanager
def _serving(coordinator):
    """Serve ``coordinator`` on a free port; yields the port, then shuts down."""
    server = make_coordinator_server(coordinator, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def coordinator_port():
    """A served coordinator holding one chunk that no test leases."""
    coordinator = SweepCoordinator(lease_timeout=10.0)
    coordinator.submit([(b"p0", 1)])
    with _serving(coordinator) as port:
        yield port


def _raw_request(port, method, path, body=b"", headers=None):
    """Send one request with exactly these bytes and headers.

    Returns ``(status, decoded JSON body, response headers)``.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.putrequest(method, path)
        for name, value in (headers or {"Content-Length": str(len(body))}).items():
            connection.putheader(name, value)
        connection.endheaders(body or None)
        response = connection.getresponse()
        return response.status, json.loads(response.read()), response.headers
    finally:
        connection.close()


class TestCoordinatorHTTP:
    @pytest.mark.parametrize(
        "path, body, named",
        [
            ("/heartbeat", b'{"chunk": "abc"}', "chunk"),
            ("/complete", b'{"chunk": [1]}', "chunk"),
            ("/lease", b"{not json", "JSON"),
            ("/lease", b"[1, 2]", "JSON object"),
            ("/complete", b'{"chunk": 0, "payload": "a"}', "base64"),
        ],
        ids=["chunk-not-int", "chunk-is-list", "not-json", "not-object", "payload-not-base64"],
    )
    def test_malformed_body_is_a_400(self, coordinator_port, path, body, named):
        status, payload, _headers = _raw_request(coordinator_port, "POST", path, body)
        assert status == 400
        assert named in payload["error"]

    def test_malformed_content_length_is_a_400(self, coordinator_port):
        status, payload, headers = _raw_request(
            coordinator_port, "POST", "/lease", headers={"Content-Length": "zz"}
        )
        assert status == 400
        assert "Content-Length" in payload["error"]
        # The body was never read, so the connection cannot be reused.
        assert headers["Connection"] == "close"

    def test_negative_content_length_is_a_400(self, coordinator_port):
        """Reading a negative length would block until the client hangs up."""
        status, payload, _headers = _raw_request(
            coordinator_port, "POST", "/lease", headers={"Content-Length": "-5"}
        )
        assert status == 400
        assert "'-5'" in payload["error"]

    def test_absent_chunk_is_an_unknown_chunk_not_a_400(self, coordinator_port):
        status, payload, _headers = _raw_request(
            coordinator_port, "POST", "/heartbeat", b'{"worker": "w"}'
        )
        assert (status, payload) == (200, {"state": "ok", "valid": False})

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_route_is_a_404(self, coordinator_port, method):
        status, payload, _headers = _raw_request(coordinator_port, method, "/nowhere", b"{}")
        assert status == 404
        assert "/nowhere" in payload["error"]

    def test_worker_transport_sees_rejection_not_outage(self, coordinator_port):
        from repro.analysis.remote import _Transport

        transport = _Transport(
            f"http://127.0.0.1:{coordinator_port}", backoff_base=0.01,
            backoff_cap=0.02, max_retries=2, sleep=lambda _s: None,
        )
        with pytest.raises(ConfigurationError, match="rejected /heartbeat: HTTP 400"):
            transport.post("/heartbeat", {"worker": "w", "chunk": "abc"})

    def test_health_and_status_read_the_ledger(self, coordinator_port):
        status, health, _headers = _raw_request(coordinator_port, "GET", "/health")
        assert status == 200
        assert health["ok"] is True and health["uptime_seconds"] >= 0
        status, ledger, _headers = _raw_request(coordinator_port, "GET", "/status")
        assert status == 200
        assert health["state"] == ledger["state"] == "running"
        assert ledger["chunks"] == {"total": 1, "pending": 1, "leased": 0, "done": 0}
        assert ledger["tasks"] == {"total": 1, "done": 0}

    def test_lease_heartbeat_complete_round_trip(self):
        """One chunk through the worker protocol, every step over the socket."""
        coordinator = SweepCoordinator(lease_timeout=10.0)
        run = coordinator.submit([(b"chunk-0", 3)])
        with _serving(coordinator) as port:

            def post(path, fields):
                status, payload, _headers = _raw_request(
                    port, "POST", path, json.dumps(fields).encode()
                )
                assert status == 200, payload
                return payload

            lease = post("/lease", {"worker": "w1"})
            assert lease["state"] == "lease"
            assert (lease["chunk"], lease["run"], lease["tasks"]) == (0, run, 3)
            assert base64.b64decode(lease["payload"]) == b"chunk-0"
            ticket = {"worker": "w1", "chunk": 0, "lease": lease["lease"], "run": run}
            assert post("/heartbeat", ticket) == {"state": "ok", "valid": True}
            assert post("/lease", {"worker": "w2"}) == {"state": "idle"}

            result = dict(ticket, payload=base64.b64encode(b"result-0").decode("ascii"))
            receipt = post("/complete", result)
            assert receipt["accepted"] and not receipt["stale_lease"]
            assert receipt["run_state"] == "done"
            # A retried delivery is acknowledged but discarded.
            assert post("/complete", result) == {
                "state": "ok", "accepted": False, "reason": "duplicate",
            }
            assert post("/heartbeat", ticket) == {"state": "ok", "valid": False}
            assert post("/lease", {"worker": "w1"}) == {"state": "done"}

            _status, ledger, _headers = _raw_request(port, "GET", "/status")
            assert ledger["state"] == "done"
            assert ledger["duplicate_completions"] == 1
            assert ledger["workers"]["w1"]["completed_tasks"] == 3
        assert list(coordinator.results()) == [b"result-0"]


# ---------------------------------------------------------------------------------
# RemoteBackend map contract
# ---------------------------------------------------------------------------------


class TestRemoteMapContract:
    def _with_workers(self, backend, count=2):
        url = backend.start()
        return _start_workers(url, [None] * count)

    def test_results_come_back_in_submission_order(self):
        backend = RemoteBackend(2, chunk_size=3, lease_timeout=10.0)
        threads = self._with_workers(backend)
        try:
            values = list(range(40))
            assert list(backend.map(_square, values)) == [v * v for v in values]
            for thread in threads:
                thread.join(timeout=30)
        finally:
            backend.close()

    def test_empty_input_yields_nothing_without_workers(self):
        backend = RemoteBackend(2)
        assert list(backend.map(_square, [])) == []
        backend.close()

    def test_worker_exceptions_propagate_to_the_consumer(self):
        backend = RemoteBackend(2, chunk_size=4, lease_timeout=10.0)
        threads = self._with_workers(backend, count=1)
        try:
            with pytest.raises(ValueError, match="task 7 explodes"):
                list(backend.map(_boom_on_7, list(range(20))))
            for thread in threads:
                thread.join(timeout=30)
        finally:
            backend.close()

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk size"):
            RemoteBackend(2, chunk_size=0)


# ---------------------------------------------------------------------------------
# worker transport
# ---------------------------------------------------------------------------------


class TestTransportRetry:
    def test_backoff_schedule_is_capped_exponential(self):
        assert backoff_delays(4, 0.5, 3.0) == [0.5, 1.0, 2.0, 3.0]
        assert backoff_delays(0, 1.0, 1.0) == []

    def test_backoff_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError, match="retry count"):
            backoff_delays(-1, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            backoff_delays(3, 0.0, 1.0)

    def test_worker_gives_up_after_exhausting_retries(self):
        naps = []
        report = run_worker(
            "http://127.0.0.1:9",  # port 9 (discard): connection refused
            worker_id="orphan",
            poll_interval=0.01,
            backoff_base=0.25,
            backoff_cap=1.0,
            max_retries=3,
            sleep=naps.append,
        )
        assert report.state == "coordinator-gone"
        assert report.chunks_completed == 0
        # The injected sleeper saw exactly the capped-exponential schedule.
        assert naps == [0.25, 0.5, 1.0]

    def test_transport_error_type_is_raised_internally(self):
        from repro.analysis.remote import _Transport

        transport = _Transport(
            "http://127.0.0.1:9", backoff_base=0.01, backoff_cap=0.02,
            max_retries=2, sleep=lambda _s: None,
        )
        with pytest.raises(WorkerTransportError, match="unreachable after 3 attempts"):
            transport.post("/lease", {"worker": "w"})


# ---------------------------------------------------------------------------------
# the fault-injection properties (60-point grid vs serial, byte-identical)
# ---------------------------------------------------------------------------------


class TestFaultInjectionProperties:
    def test_workers_killed_mid_chunk_lose_no_progress(self, tmp_path):
        """Two workers die holding leases; the survivor finishes the grid."""
        rows, status = _run_remote_grid(
            tmp_path,
            [
                FaultPlan(kill_after_chunks=1),
                FaultPlan(kill_after_chunks=2),
                None,  # the healthy worker that inherits the expired leases
            ],
        )
        assert status["state"] == "done"
        assert status["reissued_leases"] >= 2
        assert rows == _serial_rows(tmp_path)

    def test_duplicate_deliveries_are_idempotent(self, tmp_path):
        """Dedicated duplicate-delivery drill: double POSTs change nothing."""
        rows, status = _run_remote_grid(
            tmp_path,
            [FaultPlan(duplicate_completions=3), None],
        )
        assert status["state"] == "done"
        assert status["duplicate_completions"] >= 3
        assert rows == _serial_rows(tmp_path)

    def test_dropped_completions_expire_and_reissue(self, tmp_path):
        """Dedicated lease re-issue drill: swallowed results re-run elsewhere."""
        rows, status = _run_remote_grid(
            tmp_path,
            [FaultPlan(drop_completions=2), None],
        )
        assert status["state"] == "done"
        assert status["reissued_leases"] >= 2
        assert rows == _serial_rows(tmp_path)

    def test_late_completion_after_expiry_stays_consistent(self, tmp_path):
        """A slow worker's late result lands as a stale/duplicate, never corrupts."""
        rows, status = _run_remote_grid(
            tmp_path,
            [FaultPlan(delay_seconds=0.7), None],  # delay > lease_timeout=0.5
        )
        assert status["state"] == "done"
        assert rows == _serial_rows(tmp_path)

    def test_coordinator_restart_resumes_to_serial_bytes(self, tmp_path):
        """SIGTERM-equivalent mid-sweep + fresh coordinator = complete + identical."""
        cache_dir = tmp_path / "remote"
        spec = _grid_spec()

        # Phase 1: serve the grid, then shut the coordinator down once the
        # store shows real progress (the repro coordinator SIGTERM path).
        # A small per-completion delay keeps the sweep in flight long enough
        # for the watcher to observe progress and pull the plug mid-run.
        backend = RemoteBackend(2, chunk_size=4, lease_timeout=5.0)
        url = backend.start()
        threads = _start_workers(
            url, [FaultPlan(delay_seconds=0.05), FaultPlan(delay_seconds=0.05)]
        )

        def _shutdown_when_warm() -> None:
            deadline = time.monotonic() + 60
            with RunStore(store_path_for(cache_dir)) as watcher_store:
                while time.monotonic() < deadline:
                    if watcher_store.count_runs() >= 8:
                        backend.request_shutdown()
                        return
                    time.sleep(0.01)

        # The store file must exist before the watcher opens it.
        RunStore(store_path_for(cache_dir)).close()
        watcher = threading.Thread(target=_shutdown_when_warm, daemon=True)
        watcher.start()
        with pytest.raises(CoordinatorShutdown):
            run_experiments(spec, backend=backend, cache_dir=cache_dir)
        watcher.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        backend.close()

        first_rows = _run_rows(store_path_for(cache_dir))
        assert 0 < len(first_rows) < 60

        # Phase 2: a fresh coordinator process-equivalent resumes the grid.
        backend = RemoteBackend(2, chunk_size=4, lease_timeout=5.0)
        url = backend.start()
        threads = _start_workers(url, [None, None])
        try:
            resumed = run_experiments(spec, backend=backend, cache_dir=cache_dir)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            backend.close()

        # The resume executed only the remainder, and the final bytes match
        # the serial reference exactly.
        assert resumed.cached_points == len(first_rows)
        assert resumed.simulated_points == 60 - len(first_rows)
        assert _run_rows(store_path_for(cache_dir)) == _serial_rows(tmp_path)
