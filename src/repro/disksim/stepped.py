"""Resumable stepped simulation kernel (feed / advance / snapshot / restore).

:class:`SteppedSimulation` re-packages the event loop of
:mod:`repro.disksim.executor` so a simulation can pause with requests still
unserved, accept more requests, continue, and round-trip its entire state
through a JSON-serialisable snapshot.  It is the substrate of the online
prefetch service (:mod:`repro.service`) and, in its closed-from-birth form,
*is* the batch engine: :func:`repro.disksim.executor.simulate` constructs one
over the full sequence and advances it to completion, so there is exactly one
event-loop implementation.

Prefix-of-batch invariant
-------------------------
The committed trajectory of an open stream is always a prefix of what a batch
run over the eventually-complete sequence would do.  Policies see a
:class:`SteppedPolicyView` whose lookahead ends at the *horizon* (the number
of requests fed so far):

* a query answered strictly within the horizon is exact — the batch run
  would get the same answer;
* ``next_use`` of a block with no known future use reports the horizon
  itself as a stand-in.  Every comparison the shipped algorithms make is
  against a position strictly below the horizon, so the comparison outcome
  equals the batch outcome (the true value is ``>= horizon``);
* a query whose outcome could differ once more requests arrive —
  "no missing block found (yet)", "two candidate victims both lack a known
  next use" — raises :class:`~repro.disksim.executor.HorizonExhausted`.  The
  kernel catches it, commits nothing for that decision, and reports
  ``"paused"``; re-consulting after ``feed`` re-derives the batch decision
  from identical state.

Algorithms whose decisions are *not* exact under bounded lookahead
(Conservative's MIN replay, Belady-backed demand fetching) report
``supports_streaming(...) == False``; their sessions run in *deferred* mode:
requests accumulate, and the whole batch executes when the stream closes.

Snapshots
---------
:meth:`SteppedSimulation.snapshot` returns a plain dict that is JSON-safe
whenever block identifiers are (strings or integers): instance parameters,
the fed requests, every engine counter, the event log (``None`` for a batch
run that records none), and the policy object pickled (base64) so mid-run
policy state — Conservative's plan cursor, LRU's recency map — survives a
daemon restart byte-exactly.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .._typing import INFINITY, BlockId, DiskId
from ..errors import ConfigurationError
from .cache import CacheState
from .disk import DiskLayout
from .events import Event, EventKind, EventLog
from .executor import (
    HorizonExhausted,
    PolicyView,
    PrefetchPolicy,
    SimulationResult,
    _advance_loop,
    _EngineState,
    _PolicyDriver,
)
from .instance import ProblemInstance
from .metrics import SimMetrics
from .schedule import TimedFetch
from .stream import StreamSequence

__all__ = ["SteppedPolicyView", "SteppedSimulation", "SNAPSHOT_VERSION"]

#: Version stamp of the snapshot envelope produced by ``snapshot()``.
SNAPSHOT_VERSION = 1


class SteppedPolicyView(PolicyView):
    """Bounded-lookahead policy view over an open request stream.

    Identical to :class:`~repro.disksim.executor.PolicyView` except that,
    while the stream is open, the three future-looking queries enforce the
    prefix-of-batch invariant documented in the module docstring.  Once the
    stream closes (``stream_open=False``) every guard is a no-op and the
    view behaves exactly like the scan-engine view.
    """

    __slots__ = ("stream_open",)

    def __init__(
        self,
        instance: ProblemInstance,
        time: int,
        cursor: int,
        cache: CacheState,
        busy_disks: FrozenSet[DiskId],
        *,
        stream_open: bool,
    ) -> None:
        super().__init__(instance, time, cursor, cache, busy_disks, None, None)
        self.stream_open = stream_open

    @property
    def horizon(self) -> int:
        """Number of requests fed so far; policy knowledge ends here."""
        return len(self.instance.sequence)

    def next_missing_position(
        self,
        on_disk: Optional[DiskId] = None,
        *,
        exclude: FrozenSet[BlockId] = frozenset(),
    ) -> Optional[int]:
        """Exact within the horizon; raises while open when nothing is found.

        A position found in the fed prefix is what the batch run would find.
        "No missing request" is only final once the stream is closed — while
        open, the very next request fed could be the answer.
        """
        found = super().next_missing_position(on_disk, exclude=exclude)
        if found is None and self.stream_open:
            raise HorizonExhausted(
                "next missing block lies beyond the fed horizon"
            )
        return found

    def next_use(self, block: BlockId, from_position: Optional[int] = None) -> int:
        """Next use of ``block``, with the horizon as stand-in while open.

        A block without a known future use has true next use ``>= horizon``;
        reporting the horizon keeps every comparison against a known position
        (which is ``< horizon``) identical to the batch comparison.
        """
        value = super().next_use(block, from_position)
        if value == INFINITY and self.stream_open:
            return self.horizon
        return value

    def furthest_resident(
        self,
        from_position: Optional[int] = None,
        candidates: Optional[FrozenSet[BlockId]] = None,
        *,
        exclude: FrozenSet[BlockId] = frozenset(),
    ) -> Optional[BlockId]:
        """Furthest-next-use victim, pausing when the choice is not yet final.

        A single candidate without a known next use beats every known one
        (its true next use is ``>= horizon``), matching the batch choice.
        Two or more such candidates are indistinguishable until more
        requests arrive, so the query raises and the kernel pauses.
        """
        if not self.stream_open:
            return super().furthest_resident(from_position, candidates, exclude=exclude)
        start = self.cursor if from_position is None else from_position
        seq = self.instance.sequence
        pool = self.resident if candidates is None else (self.resident & candidates)
        if exclude:
            pool = pool - exclude
        if not pool:
            return None
        unknown = [b for b in pool if seq.next_use_from(start, b) == INFINITY]
        if len(unknown) > 1:
            raise HorizonExhausted(
                "victim choice depends on requests beyond the fed horizon"
            )
        if len(unknown) == 1:
            return unknown[0]
        return max(pool, key=lambda b: (seq.next_use_from(start, b), str(b)))


class _SteppedEngineState(_EngineState):
    """Engine state whose policy views are horizon-guarded.

    Always runs scan-mode queries: the loop engine's precomputed indices
    describe a *fixed* sequence, whereas a stream grows after construction.
    The scan and loop engines are byte-equivalent (the engine-equivalence
    suite proves it), so streamed runs still match batch loop runs exactly.
    """

    def __init__(self, instance: ProblemInstance, capacity: int) -> None:
        # Streams always record: a session's snapshot carries its event log.
        super().__init__(instance, capacity, engine="scan", record_events=True)

    def view(self) -> PolicyView:
        return SteppedPolicyView(
            instance=self.instance,
            time=self.time,
            cursor=self.cursor,
            cache=self.cache,
            busy_disks=frozenset(self.in_flight),
            stream_open=self.stream_open,
        )


class SteppedSimulation:
    """A simulation that can pause, accept more requests, and resume.

    Constructed either over a complete instance (:meth:`from_instance` —
    the batch path used by :func:`~repro.disksim.executor.simulate`) or as an
    open stream (:meth:`open_stream`) that is grown with :meth:`feed`,
    stepped with :meth:`advance`, persisted with :meth:`snapshot` and
    revived with :meth:`restore`.
    """

    #: ``advance`` statuses.
    COMPLETE = "complete"
    PAUSED = "paused"
    DEFERRED = "deferred"
    BUDGET = "budget"

    def __init__(
        self,
        instance: ProblemInstance,
        policy: PrefetchPolicy,
        state: _EngineState,
        *,
        stream: Optional[StreamSequence],
        policy_ready: bool,
    ) -> None:
        self._instance = instance
        self._policy = policy
        self._state = state
        self._stream = stream
        self._policy_ready = policy_ready
        self._driver = _PolicyDriver(policy)
        self._finished = False
        self._streaming = self._is_streaming(policy, instance)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        policy: PrefetchPolicy,
        *,
        engine: str = "loop",
        record_events: bool = False,
    ) -> "SteppedSimulation":
        """Batch form: the whole sequence is known, nothing can be fed."""
        state = _EngineState(
            instance, instance.cache_size, engine=engine, record_events=record_events
        )
        return cls(instance, policy, state, stream=None, policy_ready=False)

    @classmethod
    def open_stream(
        cls,
        policy: PrefetchPolicy,
        *,
        cache_size: int,
        fetch_time: int,
        layout: Optional[DiskLayout] = None,
        initial_cache: Iterable[BlockId] = (),
        requests: Iterable[BlockId] = (),
    ) -> "SteppedSimulation":
        """Open-stream form: requests arrive via :meth:`feed` over time."""
        stream = StreamSequence(tuple(requests))
        instance = ProblemInstance(
            sequence=stream,
            cache_size=cache_size,
            fetch_time=fetch_time,
            layout=layout if layout is not None else DiskLayout.single(),
            initial_cache=frozenset(initial_cache),
        )
        state = _SteppedEngineState(instance, cache_size)
        state.stream_open = True
        sim = cls(instance, policy, state, stream=stream, policy_ready=False)
        if sim._streaming:
            # Streaming policies carry no sequence-derived precomputation, so
            # resetting against the (possibly empty) stream is safe and lets
            # decisions start with the first feed.  Non-streaming policies
            # reset when the stream closes (deferred mode).
            policy.reset(instance)
            sim._policy_ready = True
        return sim

    @staticmethod
    def _is_streaming(policy: PrefetchPolicy, instance: ProblemInstance) -> bool:
        """Whether ``policy`` declares exact decisions under bounded lookahead."""
        probe = getattr(policy, "supports_streaming", None)
        if probe is None:
            return False
        return bool(probe(instance))

    # -- introspection -----------------------------------------------------------

    @property
    def instance(self) -> ProblemInstance:
        """The (possibly still growing) problem instance."""
        return self._instance

    @property
    def policy(self) -> PrefetchPolicy:
        """The policy driving this simulation."""
        return self._policy

    @property
    def horizon(self) -> int:
        """Number of requests fed so far."""
        return self._instance.num_requests

    @property
    def cursor(self) -> int:
        """Index of the next request to serve (requests before it are done)."""
        return self._state.cursor

    @property
    def time(self) -> int:
        """The simulation clock."""
        return self._state.time

    @property
    def closed(self) -> bool:
        """Whether the request stream is sealed (batch form is always closed)."""
        return self._stream is None or self._stream.closed

    @property
    def finished(self) -> bool:
        """Whether the run completed (closed, all requests served, drained)."""
        return self._finished

    @property
    def streaming(self) -> bool:
        """Whether the policy advances while the stream is open."""
        return self._streaming

    # -- lifecycle ---------------------------------------------------------------

    def feed(self, blocks: Iterable[BlockId]) -> int:
        """Append requests to the open stream; returns how many were added."""
        if self._stream is None:
            raise ConfigurationError(
                "this SteppedSimulation wraps a fixed batch instance; it cannot be fed"
            )
        return self._stream.extend(blocks)

    def close(self) -> None:
        """Seal the stream: no more requests will arrive; answers are final."""
        if self._stream is not None and not self._stream.closed:
            self._stream.close()
        self._state.stream_open = False

    def advance(self, max_events: Optional[int] = None) -> str:
        """Serve as many requests as currently possible; returns a status.

        ``"complete"`` — the stream is closed and every request was served
        (the run is finalised and drained); ``"paused"`` — an open stream ran
        out of fed requests, or a decision needs requests beyond the horizon;
        ``"deferred"`` — the policy cannot stream and the stream is still
        open (nothing ran); ``"budget"`` — ``max_events`` decision points
        were executed first.
        """
        if self._finished:
            return self.COMPLETE
        if self._stream is not None and not self._stream.closed and not self._streaming:
            return self.DEFERRED
        if not self._policy_ready:
            self._policy.reset(self._instance)
            self._policy_ready = True
        try:
            done = _advance_loop(self._state, self._driver, max_events)
        except HorizonExhausted:
            return self.PAUSED
        if not done:
            return self.BUDGET
        if not self.closed:
            return self.PAUSED
        self._driver.finish(self._state)
        self._state.drain_in_flight()
        self._finished = True
        return self.COMPLETE

    def run_to_completion(self) -> SimulationResult:
        """Close the stream (if any), run everything, return the final result."""
        self.close()
        status = self.advance()
        if status != self.COMPLETE:  # pragma: no cover - defensive
            raise AssertionError(f"closed simulation did not complete: {status}")
        return self.result()

    # -- results -----------------------------------------------------------------

    def result(self) -> SimulationResult:
        """The run's result (final when ``finished``, else the state so far)."""
        return self._state.result(
            getattr(self._policy, "name", type(self._policy).__name__)
        )

    def metrics_so_far(self) -> SimMetrics:
        """Stall/hit/fetch metrics over the prefix served so far."""
        return self._state.metrics()

    def fetches_so_far(self) -> Tuple[TimedFetch, ...]:
        """The fetch operations committed so far, in issue order."""
        return tuple(self._state.fetch_ops)

    def project(self) -> SimulationResult:
        """The batch result if the stream ended at the current horizon.

        Runs on an independent clone restored from a snapshot, so the live
        simulation is untouched.  By the prefix-of-batch invariant this
        equals ``simulate()`` over the fed prefix exactly — it is how the
        service answers ``GET /session/<id>/plan``.
        """
        clone = SteppedSimulation.restore(self.snapshot())
        clone.close()
        status = clone.advance()
        if status != SteppedSimulation.COMPLETE:  # pragma: no cover - defensive
            raise AssertionError(f"projection did not complete: {status}")
        return clone.result()

    # -- persistence -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Complete, JSON-friendly state of the simulation.

        The dict round-trips through :meth:`restore` with zero recompute of
        served requests.  It is JSON-serialisable whenever the block
        identifiers are (strings or integers); the policy rides along as a
        base64-encoded pickle so mid-run policy state survives restarts.
        """
        state = self._state
        layout = self._instance.layout
        layout_payload: Optional[Dict[str, Any]] = None
        if layout.num_disks > 1 or layout.mapping:
            layout_payload = {
                "num_disks": layout.num_disks,
                "default_disk": layout.default_disk,
                "mapping": sorted(
                    ([block, disk] for block, disk in layout.mapping.items()),
                    key=lambda pair: str(pair[0]),
                ),
            }
        return {
            "version": SNAPSHOT_VERSION,
            "cache_size": self._instance.cache_size,
            "fetch_time": self._instance.fetch_time,
            "layout": layout_payload,
            "initial_cache": sorted(self._instance.initial_cache, key=str),
            "requests": list(self._instance.sequence.requests),
            "closed": self.closed,
            "finished": self._finished,
            "policy": {
                "spec": getattr(self._policy, "spec", None),
                "name": getattr(self._policy, "name", type(self._policy).__name__),
                "ready": self._policy_ready,
                "pickle": base64.b64encode(pickle.dumps(self._policy)).decode("ascii"),
            },
            "engine": {
                "time": state.time,
                "cursor": state.cursor,
                "stall": state.stall,
                "hits": state.hits,
                "misses": state.misses,
                "demand_fetches": state.demand_fetches,
                "peak_used": state.peak_used,
                "fetches_per_disk": {
                    str(disk): count
                    for disk, count in sorted(state.fetches_per_disk.items())
                },
                "first_look": {
                    str(position): flag
                    for position, flag in sorted(state.first_look_resident.items())
                },
                "resident": sorted(state.cache.resident, key=str),
                "in_flight": [
                    [disk, state.in_flight[disk][0], state.in_flight[disk][1]]
                    for disk in sorted(state.in_flight)
                ],
                "fetch_ops": [
                    {
                        "start_time": op.start_time,
                        "disk": op.disk,
                        "block": op.block,
                        "victim": op.victim,
                    }
                    for op in state.fetch_ops
                ],
                "events": None if state.events is None else [
                    {
                        "time": event.time,
                        "kind": event.kind.value,
                        "block": event.block,
                        "disk": event.disk,
                        "request_index": event.request_index,
                        "duration": event.duration,
                    }
                    for event in state.events
                ],
            },
        }

    @classmethod
    def restore(cls, payload: Mapping[str, Any]) -> "SteppedSimulation":
        """Rebuild a simulation from a :meth:`snapshot` payload.

        The restored simulation continues exactly where the snapshot was
        taken: served requests are never recomputed, in-flight fetches keep
        their completion times, and the policy resumes with its pickled
        internal state.
        """
        version = int(payload.get("version", 0))
        if version != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"unsupported stepped-simulation snapshot version {version!r}"
            )
        stream = StreamSequence(list(payload["requests"]))
        closed = bool(payload["closed"])
        if closed:
            stream.close()
        layout_payload = payload.get("layout")
        if layout_payload:
            layout = DiskLayout(
                int(layout_payload["num_disks"]),
                {block: int(disk) for block, disk in layout_payload["mapping"]},
                default_disk=int(layout_payload.get("default_disk", 0)),
            )
        else:
            layout = DiskLayout.single()
        cache_size = int(payload["cache_size"])
        instance = ProblemInstance(
            sequence=stream,
            cache_size=cache_size,
            fetch_time=int(payload["fetch_time"]),
            layout=layout,
            initial_cache=frozenset(payload["initial_cache"]),
        )
        policy_payload = payload["policy"]
        policy = pickle.loads(base64.b64decode(policy_payload["pickle"]))
        # Reattach the live instance: the pickle captured a point-in-time copy.
        for holder in (policy, getattr(policy, "_delegate", None)):
            if holder is not None and hasattr(holder, "_instance"):
                holder._instance = instance

        engine: Mapping[str, Any] = payload["engine"]
        state = _SteppedEngineState(instance, cache_size)
        state.stream_open = not closed
        in_flight_entries: List[List[Any]] = [list(entry) for entry in engine["in_flight"]]
        cache = CacheState(cache_size, list(engine["resident"]))
        for _disk, block, _finish in in_flight_entries:
            cache.start_fetch(block, None)
        state.cache = cache
        state.in_flight = {
            int(disk): (block, int(finish)) for disk, block, finish in in_flight_entries
        }
        state.fetch_ops = [
            TimedFetch(
                start_time=int(op["start_time"]),
                disk=int(op["disk"]),
                block=op["block"],
                victim=op["victim"],
            )
            for op in engine["fetch_ops"]
        ]
        if engine["events"] is None:
            state.events = None
        else:
            state.events = EventLog([
                Event(
                    time=int(entry["time"]),
                    kind=EventKind(entry["kind"]),
                    block=entry["block"],
                    disk=None if entry["disk"] is None else int(entry["disk"]),
                    request_index=(
                        None
                        if entry["request_index"] is None
                        else int(entry["request_index"])
                    ),
                    duration=int(entry["duration"]),
                )
                for entry in engine["events"]
            ])
        state.time = int(engine["time"])
        state.cursor = int(engine["cursor"])
        state.stall = int(engine["stall"])
        state.hits = int(engine["hits"])
        state.misses = int(engine["misses"])
        state.demand_fetches = int(engine["demand_fetches"])
        state.peak_used = int(engine["peak_used"])
        state.fetches_per_disk = {
            int(disk): int(count) for disk, count in engine["fetches_per_disk"].items()
        }
        state.first_look_resident = {
            int(position): bool(flag) for position, flag in engine["first_look"].items()
        }
        sim = cls(
            instance,
            policy,
            state,
            stream=stream,
            policy_ready=bool(policy_payload["ready"]),
        )
        sim._finished = bool(payload.get("finished", False))
        return sim
