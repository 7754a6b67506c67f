"""Replay driver: stream a registered workload through the service.

The closing of the loop back to the batch world: build an instance from a
workload spec (``multiclient:clients=32,n=2000,...`` is the intended diet —
interleaved per-client streams are exactly the traffic a resident daemon
sees), feed its requests chunk by chunk through an in-process
:class:`~repro.service.daemon.PrefetchService` session, then finish the
session and compare schedule, metrics and event log against an offline
batch run of the same instance.  A mismatch would falsify the stepped
kernel's prefix-of-batch invariant, so ``repro serve --replay`` doubles as
an end-to-end self-check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..algorithms import make_algorithm
from ..disksim.executor import simulate
from ..workloads.spec import build_workload_instance
from .daemon import PrefetchService

__all__ = ["ReplayReport", "replay_workload"]


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run (service result vs offline batch)."""

    workload: str
    algorithm: str
    num_requests: int
    chunk: int
    chunks_fed: int
    streaming: bool
    statuses: Dict[str, int] = field(default_factory=dict)
    match: bool = False
    stall_time: int = 0
    elapsed_time: int = 0
    offline_stall_time: int = 0
    offline_elapsed_time: int = 0

    def describe(self) -> str:
        """One-line summary for CLI reporting."""
        mode = "streaming" if self.streaming else "deferred"
        verdict = "matches offline batch run" if self.match else "MISMATCH vs offline batch run"
        return (
            f"replayed {self.num_requests} requests of {self.workload!r} through "
            f"{self.algorithm!r} ({mode}, {self.chunks_fed} chunk(s) of {self.chunk}): "
            f"stall={self.stall_time} elapsed={self.elapsed_time} — {verdict}"
        )


def replay_workload(
    workload: str,
    *,
    algorithm: str = "aggressive",
    cache_size: int = 16,
    fetch_time: int = 8,
    chunk: int = 64,
    state_dir: Optional[Path] = None,
) -> ReplayReport:
    """Stream ``workload`` through a fresh service session and verify it.

    The instance is built once from the spec; its request sequence is fed in
    ``chunk``-sized batches (the service advances after each), the session is
    finished, and the result is compared field by field against
    :func:`~repro.disksim.executor.simulate` over the identical instance.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    instance = build_workload_instance(
        workload, cache_size=cache_size, fetch_time=fetch_time, disks=1, layout="striped"
    )
    requests: Tuple = tuple(instance.sequence.requests)

    service = PrefetchService(state_dir=state_dir)
    session = service.create_session(
        algorithm,
        cache_size=cache_size,
        fetch_time=fetch_time,
        initial_cache=instance.initial_cache,
    )
    statuses: Counter = Counter()
    chunks_fed = 0
    for start in range(0, len(requests), chunk):
        summary = session.feed(requests[start : start + chunk])
        statuses[str(summary["status"])] += 1
        chunks_fed += 1
    result = session.finish()
    offline = simulate(instance, make_algorithm(algorithm), record_events=True)
    match = (
        result.schedule == offline.schedule
        and result.metrics == offline.metrics
        and list(result.events) == list(offline.events)
    )
    report = ReplayReport(
        workload=workload,
        algorithm=algorithm,
        num_requests=len(requests),
        chunk=chunk,
        chunks_fed=chunks_fed,
        streaming=session.sim.streaming,
        statuses=dict(sorted(statuses.items())),
        match=match,
        stall_time=result.metrics.stall_time,
        elapsed_time=result.metrics.elapsed_time,
        offline_stall_time=offline.metrics.stall_time,
        offline_elapsed_time=offline.metrics.elapsed_time,
    )
    service.close()
    return report
