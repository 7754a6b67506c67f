"""The simulation engine: drives policies and validates schedules.

This module implements the integer time model of the Cao et al. framework
(see DESIGN.md §3) exactly once, and exposes it in three forms:

* :func:`simulate` — drive a *prefetching policy* (Aggressive, Conservative,
  Delay(d), ...) over a :class:`~repro.disksim.instance.ProblemInstance`,
  producing a :class:`SimulationResult` with the schedule the policy chose,
  its metrics and, when asked for (``record_events=True``), its event log.

* :func:`execute_interval_schedule` — replay a position-anchored
  :class:`~repro.disksim.schedule.IntervalSchedule` (the output format of the
  Section 3 LP algorithms), independently verifying feasibility and measuring
  the *actual* stall time the schedule incurs.

* :func:`execute_schedule` — replay a clock-anchored
  :class:`~repro.disksim.schedule.Schedule` (the output of :func:`simulate`);
  used by tests to confirm that re-executing a policy's own schedule
  reproduces the policy's reported metrics, i.e. no algorithm can mis-account
  its stall time.

All three entry points run the *same* event loop (:func:`_run_event_loop`):
the loop owns time advancement, fetch completion, serving and stall
accounting, while a *driver* object supplies what differs between
policy-driven simulation and schedule replay (which fetches to issue at a
decision point, what to do when the needed block is absent, position
barriers).  The loop consumes the runtime indices of
:mod:`repro.disksim.index` — an incremental
:class:`~repro.disksim.index.MissTracker` per run and an
:class:`~repro.disksim.index.EvictionHeap` built on the first query that
needs it — so the derived queries policies are phrased in terms of (next
missing block, furthest-future resident block) cost amortised O(log k)
instead of a scan of the whole sequence.  Passing
``engine="scan"`` selects the original scan-based query implementations,
kept as the reference for the equivalence tests and the speed benchmark.

Model recap
-----------
Serving a resident request takes one time unit.  A fetch started at time
``t`` completes at ``t + F``; the fetched block can serve requests that start
at time ``>= t + F``; the victim is unavailable from ``t`` on.  Each disk runs
at most one fetch at a time.  If the next request's block is absent, the
processor stalls (all in-flight fetches keep progressing during the stall).

Decision points
---------------
Policies are consulted (a) immediately before each request is served and
(b) at every fetch-completion instant, including completions that occur in
the middle of a stall — stalls are advanced in completion-sized chunks so
that an idle disk can start its next fetch as soon as it becomes free, which
is what the parallel-disk algorithms of Section 3 and of Kimbrel–Karlin
assume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .._typing import BlockId, DiskId
from ..errors import ConfigurationError, InvalidScheduleError, PolicyError
from .cache import CacheState
from .events import Event, EventKind, EventLog
from .index import EvictionHeap, MissTracker
from .instance import ProblemInstance
from .metrics import SimMetrics
from .schedule import IntervalSchedule, Schedule, TimedFetch

__all__ = [
    "FetchDecision",
    "PolicyView",
    "PrefetchPolicy",
    "RECORDED_ENGINES",
    "SimulationResult",
    "canonical_engine",
    "simulate",
    "simulate_with_engine",
    "execute_schedule",
    "execute_interval_schedule",
]


_ENGINES = ("loop", "scan", "vector", "auto")

#: The engines a run can report having run (``simulate_with_engine``'s
#: second value, ``RunRecord.engine``): ``"auto"`` resolves to one of them,
#: and a ``"vector"``/``"auto"`` request may run the Conservative replay.
RECORDED_ENGINES = ("loop", "scan", "vector", "replay")


def canonical_engine(engine: str) -> str:
    """Validate an engine name and return it.

    ``"loop"`` is the indexed event loop, ``"scan"`` the scan-query
    reference implementation, ``"vector"`` the numpy struct-of-arrays batch
    engine and ``"auto"`` picks the fastest applicable engine at run time
    (the replay of MIN's plan for one-disk Conservative, vector when the
    instance/policy is covered, loop otherwise).  ``"replay"`` is a realised
    engine only, never a name to ask for.  Raises
    :class:`~repro.errors.ConfigurationError` for anything else.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}"
        )
    return engine


@dataclass(frozen=True)
class FetchDecision:
    """A policy's decision to start one fetch right now.

    ``victim=None`` means "use a free cache slot"; this is only legal when the
    cache is not full, which ordinary ``k``-slot algorithms never rely on but
    the Section 3 extra-memory schedules do.
    """

    disk: DiskId
    block: BlockId
    victim: Optional[BlockId] = None


class PolicyView:
    """Read-only snapshot of the simulation state handed to policies.

    Policies receive full knowledge of the instance (the problem is offline)
    plus the dynamic state: the clock, the cursor (index of the next request
    to serve), the resident and in-flight block sets, and which disks are
    idle.  The view exposes the handful of derived queries that the classical
    algorithms are phrased in terms of (next missing block, furthest-future
    resident block, ...), answered through the engine's runtime indices when
    available and by the original sequence scans otherwise.  ``evictions``
    is a provider rather than the heap itself, so an engine whose policy
    never asks for a victim never builds one.
    """

    __slots__ = (
        "instance",
        "time",
        "cursor",
        "busy_disks",
        "_cache",
        "_misses",
        "_evictions",
        "_resident",
        "_incoming",
    )

    def __init__(
        self,
        instance: ProblemInstance,
        time: int,
        cursor: int,
        cache: CacheState,
        busy_disks: FrozenSet[DiskId],
        misses: Optional[MissTracker] = None,
        evictions: Optional[Callable[[], EvictionHeap]] = None,
    ) -> None:
        self.instance = instance
        self.time = time
        self.cursor = cursor
        self.busy_disks = busy_disks
        self._cache = cache
        self._misses = misses
        self._evictions = evictions
        self._resident: Optional[FrozenSet[BlockId]] = None
        self._incoming: Optional[FrozenSet[BlockId]] = None

    # -- cache state ----------------------------------------------------------------

    @property
    def resident(self) -> FrozenSet[BlockId]:
        """Blocks that can serve requests right now (snapshot, built lazily)."""
        if self._resident is None:
            self._resident = self._cache.resident
        return self._resident

    @property
    def incoming(self) -> FrozenSet[BlockId]:
        """Blocks whose fetch is in flight (snapshot, built lazily)."""
        if self._incoming is None:
            self._incoming = self._cache.incoming
        return self._incoming

    @property
    def free_slots(self) -> int:
        """Slots that can accept a fetch without evicting anything."""
        return self._cache.free_slots

    # -- disk state -----------------------------------------------------------------

    def idle_disks(self) -> Tuple[DiskId, ...]:
        """Disks currently not executing a fetch."""
        return tuple(
            d for d in range(self.instance.num_disks) if d not in self.busy_disks
        )

    def is_idle(self, disk: DiskId) -> bool:
        """Whether ``disk`` is currently idle."""
        return disk not in self.busy_disks

    # -- block/position queries -------------------------------------------------------

    def is_available(self, block: BlockId) -> bool:
        """Whether ``block`` is resident right now."""
        return self._cache.contains(block)

    def is_in_flight(self, block: BlockId) -> bool:
        """Whether a fetch for ``block`` is currently executing."""
        return self._cache.is_incoming(block)

    def next_missing_position(
        self,
        on_disk: Optional[DiskId] = None,
        *,
        exclude: FrozenSet[BlockId] = frozenset(),
    ) -> Optional[int]:
        """Position of the next request whose block is neither resident nor in flight.

        When ``on_disk`` is given, only blocks residing on that disk are
        considered (the per-disk notion used by the parallel Aggressive
        algorithm).  ``exclude`` treats additional blocks as present — the
        parallel algorithms pass the blocks promised to other disks in the
        same decision round.  Returns ``None`` when no such request exists.
        """
        if self._misses is not None:
            return self._misses.next_missing(self.cursor, on_disk, exclude)
        seq = self.instance.sequence
        present = self.resident | self.incoming | exclude
        skipped = set()
        for pos in range(self.cursor, len(seq)):
            block = seq[pos]
            if block in present or block in skipped:
                continue
            if on_disk is not None and self.instance.disk_of(block) != on_disk:
                skipped.add(block)
                continue
            return pos
        return None

    def next_use(self, block: BlockId, from_position: Optional[int] = None) -> int:
        """Next position ``>= from_position`` (default: cursor) requesting ``block``."""
        start = self.cursor if from_position is None else from_position
        return self.instance.sequence.next_use_from(start, block)

    def furthest_resident(
        self,
        from_position: Optional[int] = None,
        *,
        exclude: FrozenSet[BlockId] = frozenset(),
    ) -> Optional[BlockId]:
        """The resident block whose next use (from ``from_position``) is furthest away.

        Ties are broken deterministically by the string representation of the
        block identifier so that runs are reproducible.  ``exclude`` removes
        blocks from consideration (promised victims of the same decision
        round).  Returns ``None`` when no candidate remains.
        """
        start = self.cursor if from_position is None else from_position
        seq = self.instance.sequence
        if self._evictions is not None and start >= self.cursor:
            heap = self._evictions()
            if start == self.cursor:
                return heap.best(self.cursor, exclude)
            # Judging from a future position: only blocks requested in the
            # window [cursor, start) have a different key there; re-key those
            # explicitly and take the heap's best over the rest (whose keys
            # are unchanged, the window holds their only uses before start).
            window = {
                b
                for b in seq.distinct_in_window(self.cursor, start)
                if b in heap and b not in exclude
            }
            rest = heap.best(self.cursor, frozenset(exclude) | window)
            best_block: Optional[BlockId] = None
            best_key: Optional[Tuple[int, str]] = None
            if rest is not None:
                best_block = rest
                best_key = (seq.next_use_from(start, rest), str(rest))
            for block in window:
                key = (seq.next_use_from(start, block), str(block))
                if best_key is None or key > best_key:
                    best_block, best_key = block, key
            return best_block
        pool = self.resident
        if exclude:
            pool = pool - exclude
        if not pool:
            return None
        return max(pool, key=lambda b: (seq.next_use_from(start, b), str(b)))


@runtime_checkable
class PrefetchPolicy(Protocol):
    """Protocol all prefetching/caching algorithms implement.

    ``reset`` is called once per simulation before any decision; ``decide`` is
    called at every decision point and returns the fetches to start *now* —
    usually zero or one, up to ``D`` for parallel-disk policies.
    """

    name: str

    def reset(self, instance: ProblemInstance) -> None:  # pragma: no cover - protocol
        """Prepare internal state for a fresh run over ``instance``."""
        ...

    def decide(self, view: PolicyView) -> List[FetchDecision]:  # pragma: no cover - protocol
        """Fetches to initiate at this decision point."""
        ...


@dataclass(frozen=True)
class SimulationResult:
    """Everything produced by one simulated run."""

    instance: ProblemInstance
    schedule: Schedule
    metrics: SimMetrics
    #: The run's event log; ``None`` unless the caller asked for it with
    #: ``record_events=True`` (the vector kernel and the replay never record one).
    events: Optional[EventLog]
    policy_name: str = ""
    #: Why the caller's ``engine="auto"`` or ``engine="vector"`` fell back to
    #: the loop engine (e.g. ``"parallel-disk instance"``).  ``None`` when
    #: the request ran on the kernel or the replay, so engine choice is
    #: explainable from the result.
    engine_reason: Optional[str] = None

    @property
    def stall_time(self) -> int:
        """Total processor stall time of the run."""
        return self.metrics.stall_time

    @property
    def elapsed_time(self) -> int:
        """Total elapsed time (requests + stall) of the run."""
        return self.metrics.elapsed_time

    def event_log(self, consumer: str) -> EventLog:
        """The recorded event log, for ``consumer`` (named in the error).

        Raises :class:`~repro.errors.ConfigurationError` when the run did not
        record one, instead of letting the consumer read an empty run.
        """
        if self.events is None:
            raise ConfigurationError(
                f"{consumer} needs the run's event log; simulate with record_events=True"
            )
        return self.events

    def with_solve_seconds(self, seconds: float) -> "SimulationResult":
        """Copy with solver wall time recorded on the metrics.

        Used by the LP drivers to stamp the model-build + solve + extraction
        cost onto the execution that certifies their schedule.
        """
        return replace(self, metrics=replace(self.metrics, solve_seconds=seconds))


# ---------------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------------


class _EngineState:
    """Mutable engine internals shared by the execution entry points.

    With ``engine="loop"`` (the indexed event loop) the state owns a
    :class:`MissTracker` and an :class:`EvictionHeap` mirroring the resident
    set; with ``engine="scan"`` it owns neither.  The heap is built by
    :meth:`eviction_heap` on the first query that needs it and from then on
    maintained incrementally by the fetch lifecycle methods below, so
    policies that never ask for a furthest-next-use victim (Conservative
    follows MIN's plan) never pay for its per-serve upkeep.  ``"vector"``
    and ``"auto"`` degrade to ``"loop"`` here: the event loop is the
    fallback engine the vector kernel and the Conservative replay defer to
    for anything they do not cover.  ``events`` is an
    :class:`EventLog` only when ``record_events`` is set.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        capacity: int,
        engine: str = "loop",
        *,
        record_events: bool = False,
    ) -> None:
        engine = canonical_engine(engine)
        if engine in ("vector", "auto"):
            engine = "loop"
        self.instance = instance
        self.cache = CacheState(capacity, instance.initial_cache)
        self.in_flight: Dict[DiskId, Tuple[BlockId, int]] = {}
        self.fetch_ops: List[TimedFetch] = []
        self.events: Optional[EventLog] = EventLog() if record_events else None
        self.time = 0
        self.cursor = 0
        self.stall = 0
        self.hits = 0
        self.misses = 0
        self.demand_fetches = 0
        self.peak_used = self.cache.used_slots
        self.fetches_per_disk: Dict[DiskId, int] = {}
        self.first_look_resident: Dict[int, bool] = {}
        self.miss_tracker: Optional[MissTracker] = (
            MissTracker(instance.sequence, instance.layout, instance.initial_cache)
            if engine == "loop"
            else None
        )
        self.evictions: Optional[EvictionHeap] = None

    def eviction_heap(self) -> EvictionHeap:
        """The furthest-next-use heap of the loop engine, built on first use.

        Seeding every resident block at the current cursor gives it exactly
        the keys an eager heap maintained since the start would hold; in-flight
        blocks join when their fetch completes, as they would have.
        """
        if self.evictions is None:
            heap = EvictionHeap(self.instance.sequence)
            for block in self.cache.resident:
                heap.add(block, self.cursor)
            self.evictions = heap
        return self.evictions

    # -- fetch lifecycle ------------------------------------------------------------

    def complete_due_fetches(self) -> None:
        """Complete every in-flight fetch whose finish time has been reached."""
        for disk in sorted(self.in_flight):
            block, finish = self.in_flight[disk]
            if finish <= self.time:
                self.cache.complete_fetch(block)
                if self.evictions is not None:
                    self.evictions.add(block, self.cursor)
                if self.events is not None:
                    self.events.record(
                        Event(finish, EventKind.FETCH_COMPLETE, block=block, disk=disk)
                    )
                del self.in_flight[disk]

    def earliest_completion(self) -> Optional[int]:
        """Earliest finish time among in-flight fetches (None if all disks idle)."""
        if not self.in_flight:
            return None
        return min(finish for _, finish in self.in_flight.values())

    def start_fetch(self, decision: FetchDecision, *, forced: bool = False) -> None:
        """Validate and apply one fetch decision at the current time."""
        inst = self.instance
        disk, block, victim = decision.disk, decision.block, decision.victim
        if not 0 <= disk < inst.num_disks:
            raise PolicyError(f"decision uses unknown disk {disk}")
        if disk in self.in_flight:
            raise PolicyError(f"disk {disk} is busy until t={self.in_flight[disk][1]}")
        if inst.disk_of(block) != disk:
            raise PolicyError(
                f"block {block!r} resides on disk {inst.disk_of(block)}, not {disk}"
            )
        if self.cache.contains(block):
            raise PolicyError(f"block {block!r} is already resident")
        if self.cache.is_incoming(block):
            raise PolicyError(f"block {block!r} is already being fetched")
        try:
            self.cache.start_fetch(block, victim)
        except Exception as exc:  # CacheError -> PolicyError with context
            raise PolicyError(str(exc)) from exc
        if self.miss_tracker is not None:
            self.miss_tracker.mark_present(block)
            if victim is not None:
                self.miss_tracker.mark_absent(victim, self.cursor)
        if victim is not None and self.evictions is not None:
            self.evictions.discard(victim)
        finish = self.time + inst.fetch_time
        self.in_flight[disk] = (block, finish)
        self.fetch_ops.append(
            TimedFetch(start_time=self.time, disk=disk, block=block, victim=victim)
        )
        self.fetches_per_disk[disk] = self.fetches_per_disk.get(disk, 0) + 1
        if self.events is not None:
            if victim is not None:
                self.events.record(Event(self.time, EventKind.EVICT, block=victim, disk=disk))
            self.events.record(Event(self.time, EventKind.FETCH_START, block=block, disk=disk))
        self.peak_used = max(self.peak_used, self.cache.used_slots)
        if forced or (
            self.cursor < inst.num_requests and inst.sequence[self.cursor] == block
        ):
            self.demand_fetches += 1

    # -- time advancement -------------------------------------------------------------

    def stall_until(self, target_time: int, *, waiting_for: Optional[BlockId]) -> None:
        """Advance the clock to ``target_time``, accounting the gap as stall."""
        gap = target_time - self.time
        if gap <= 0:
            return
        if self.events is not None:
            self.events.record(
                Event(
                    self.time,
                    EventKind.STALL,
                    block=waiting_for,
                    request_index=self.cursor,
                    duration=gap,
                )
            )
        self.stall += gap
        self.time = target_time

    def serve_current(self) -> None:
        """Serve the request at the cursor (takes one time unit)."""
        if self.events is not None:
            self.events.record(
                Event(
                    self.time,
                    EventKind.SERVE,
                    block=self.instance.sequence[self.cursor],
                    request_index=self.cursor,
                    duration=1,
                )
            )
        if self.evictions is not None:
            self.evictions.on_serve(self.cursor)
        self.time += 1
        self.cursor += 1

    # -- result assembly ---------------------------------------------------------------

    def view(self) -> PolicyView:
        """Snapshot the current state for a policy decision."""
        return PolicyView(
            instance=self.instance,
            time=self.time,
            cursor=self.cursor,
            cache=self.cache,
            busy_disks=frozenset(self.in_flight),
            misses=self.miss_tracker,
            evictions=self.eviction_heap if self.miss_tracker is not None else None,
        )

    def metrics(self) -> SimMetrics:
        """Aggregate metrics of the finished run."""
        return SimMetrics(
            num_requests=self.instance.num_requests,
            stall_time=self.stall,
            num_fetches=len(self.fetch_ops),
            num_demand_fetches=self.demand_fetches,
            cache_hits=self.hits,
            cache_misses=self.misses,
            peak_cache_used=self.peak_used,
            fetches_per_disk=dict(self.fetches_per_disk),
        )

    def schedule(self) -> Schedule:
        """The schedule of fetch decisions taken during the run."""
        return Schedule(
            fetch_time=self.instance.fetch_time,
            num_disks=self.instance.num_disks,
            fetches=tuple(self.fetch_ops),
            initial_cache=self.instance.initial_cache,
        )

    def drain_in_flight(self) -> None:
        """Run the clock out so the event log records trailing fetch completions.

        Completions after the last request affect neither stall nor elapsed
        time; this only closes the event log tidily.
        """
        if self.in_flight:
            self.time = max(finish for _, finish in self.in_flight.values())
            self.complete_due_fetches()

    def result(self, policy_name: str) -> SimulationResult:
        """Assemble the final :class:`SimulationResult` of the run."""
        return SimulationResult(
            instance=self.instance,
            schedule=self.schedule(),
            metrics=self.metrics(),
            events=self.events,
            policy_name=policy_name,
        )


def _default_forced_victim(state: _EngineState) -> Optional[BlockId]:
    """Victim for a forced demand fetch: free slot if any, else furthest next use.

    The victim is the policies' own :meth:`PolicyView.furthest_resident`.
    Returns ``None`` both for "use a free slot" and when no victim exists at
    all (cache fully reserved by in-flight fetches); callers distinguish the
    two via ``state.cache.free_slots``.
    """
    if state.cache.free_slots > 0:
        return None
    return state.view().furthest_resident()


# ---------------------------------------------------------------------------------
# the event loop and its drivers
# ---------------------------------------------------------------------------------


class _Driver(Protocol):
    """What differs between policy-driven simulation and schedule replay."""

    def decision_point(self, state: _EngineState) -> None:
        """Issue fetches at the current decision point."""
        ...  # pragma: no cover - protocol

    def barrier(self, state: _EngineState) -> int:
        """Earliest time the request at the cursor may be served (0 = no barrier)."""
        ...  # pragma: no cover - protocol

    def clip_stall_target(self, state: _EngineState, target: int) -> int:
        """Adjust a stall target so intermediate decision points are not skipped."""
        ...  # pragma: no cover - protocol

    def on_absent(self, state: _EngineState, block: BlockId) -> None:
        """Handle a needed block that is absent, not in flight, disk idle."""
        ...  # pragma: no cover - protocol

    def finish(self, state: _EngineState) -> None:
        """Post-loop feasibility checks."""
        ...  # pragma: no cover - protocol


def _run_event_loop(state: _EngineState, driver: _Driver) -> None:
    """Drive the clock from the first request to the last, then finalise.

    One iteration per decision point: complete due fetches, let the driver
    issue new ones, then either serve the request at the cursor or stall
    until the event (fetch completion or barrier expiry) that unblocks it.
    """
    seq = state.instance.sequence
    n = state.instance.num_requests
    first_look = state.first_look_resident

    while state.cursor < n:
        state.complete_due_fetches()
        driver.decision_point(state)

        block = seq[state.cursor]
        if state.cursor not in first_look:
            first_look[state.cursor] = state.cache.contains(block)

        barrier = driver.barrier(state)
        if barrier > state.time:
            # A position barrier (replay of interval schedules) holds the
            # cursor back: wait, in completion-sized chunks so other disks'
            # fetches can be issued at their completion decision points.
            target = state.earliest_completion()
            target = barrier if target is None else min(target, barrier)
            state.stall_until(target, waiting_for=block)
            continue

        if state.cache.contains(block):
            if first_look[state.cursor]:
                state.hits += 1
            else:
                state.misses += 1
            state.serve_current()
            continue

        if state.cache.is_incoming(block) or state.instance.disk_of(block) in state.in_flight:
            # The block is on its way, or its disk is busy with another fetch.
            # Stall only until the *earliest* completion so that fetch
            # completions during the stall become decision points for the
            # other disks.
            target = state.earliest_completion()
            assert target is not None  # at least one fetch is in flight here
            target = driver.clip_stall_target(state, target)
            state.stall_until(target, waiting_for=block)
            continue

        # The block is absent, not in flight, and its disk is idle.
        driver.on_absent(state, block)

    driver.finish(state)
    state.drain_in_flight()


class _PolicyDriver:
    """Decision source for :func:`simulate`: consult the policy, force demand
    fetches when it leaves the processor unable to make progress."""

    def __init__(self, policy: PrefetchPolicy) -> None:
        self.policy = policy

    def decision_point(self, state: _EngineState) -> None:
        # The loop is bounded because every applied decision occupies one
        # more disk.
        num_disks = state.instance.num_disks
        for _ in range(num_disks):
            if len(state.in_flight) >= num_disks:
                break
            decisions = self.policy.decide(state.view())
            if not decisions:
                break
            for decision in decisions:
                if not isinstance(decision, FetchDecision):
                    raise PolicyError(
                        f"policy {self.policy.name!r} returned {decision!r}, "
                        "expected FetchDecision"
                    )
                state.start_fetch(decision)

    def barrier(self, state: _EngineState) -> int:
        return 0

    def clip_stall_target(self, state: _EngineState, target: int) -> int:
        return target

    def on_absent(self, state: _EngineState, block: BlockId) -> None:
        # The policy declined to fetch a block the processor needs right now:
        # issue a forced demand fetch with the classical furthest-next-use
        # victim so every policy produces a feasible schedule.
        victim = _default_forced_victim(state)
        if victim is None and state.cache.free_slots <= 0:
            # Every cache slot is reserved by an in-flight fetch, so the
            # demand fetch cannot start yet: wait for the next completion to
            # free a slot (always possible — a full cache with no resident
            # blocks implies in-flight fetches).
            target = state.earliest_completion()
            assert target is not None
            state.stall_until(target, waiting_for=block)
            return
        state.start_fetch(
            FetchDecision(disk=state.instance.disk_of(block), block=block, victim=victim),
            forced=True,
        )

    def finish(self, state: _EngineState) -> None:
        pass


class _ReplayDriver:
    """Decision source for schedule replay: issue recorded fetches at their
    recorded times/positions and reject infeasible schedules."""

    def __init__(
        self,
        instance: ProblemInstance,
        by_time: Dict[int, List[FetchDecision]],
        positional: List[Tuple[int, int, FetchDecision]],
    ) -> None:
        self.pending_by_time = {t: list(ds) for t, ds in sorted(by_time.items())}
        # Positional fetches are kept as one pending queue per disk, in the
        # paper's linear order "<" (by interval start, then end).  The head of
        # a queue is issued as soon as (a) enough requests have been served
        # (cursor >= start_pos), (b) the disk is idle and (c) its victim (if
        # any) is resident; later entries never overtake the head, which is
        # exactly how the LP's process-over-time view serialises the fetches
        # of one disk.
        self.queues_by_disk: Dict[DiskId, List[Tuple[int, int, FetchDecision]]] = {}
        for start_pos, deadline, decision in sorted(
            positional, key=lambda item: (item[0], item[1], str(item[2].block))
        ):
            self.queues_by_disk.setdefault(decision.disk, []).append(
                (start_pos, deadline, decision)
            )
        # Interval deadlines become *barriers*: request index ``end_pos - 1``
        # may not be served before the fetch of its interval has completed.
        # This is the synchronized-schedule semantics under which the LP
        # charges ``F - |I|`` stall per interval; honouring it keeps the
        # executed stall within the LP objective (the processor may wait
        # slightly where the LP said it would, instead of racing ahead and
        # starving later intervals).
        self.barriers: Dict[int, int] = {}
        self.fetch_time = instance.fetch_time
        self.num_requests = instance.num_requests

    def decision_point(self, state: _EngineState) -> None:
        # Clock-anchored fetches must be issuable at exactly their recorded time.
        for decision in self.pending_by_time.pop(state.time, []):
            try:
                state.start_fetch(decision)
            except PolicyError as exc:
                raise InvalidScheduleError(
                    f"scheduled fetch {decision} cannot be issued at t={state.time}, "
                    f"cursor={state.cursor}: {exc}"
                ) from exc
        # Position-anchored fetches: issue each disk's queue head when eligible.
        for disk, queue in self.queues_by_disk.items():
            if not queue or disk in state.in_flight:
                continue
            start_pos, deadline, decision = queue[0]
            if start_pos > state.cursor:
                continue
            if decision.victim is not None and decision.victim not in state.cache.resident:
                # Victim still on its way into cache: wait for it.
                continue
            if state.cache.contains(decision.block) or state.cache.is_incoming(decision.block):
                # The block is (still) present — e.g. its eviction is scheduled
                # in a later interval of a normalised LP solution.  Wait.
                continue
            queue.pop(0)
            try:
                state.start_fetch(decision)
            except PolicyError as exc:
                raise InvalidScheduleError(
                    f"scheduled fetch {decision} (eligible from position {start_pos}) "
                    f"cannot be issued at t={state.time}, cursor={state.cursor}: {exc}"
                ) from exc
            barrier_index = deadline - 1
            finish = state.time + self.fetch_time
            if 0 <= barrier_index < self.num_requests:
                self.barriers[barrier_index] = max(
                    self.barriers.get(barrier_index, 0), finish
                )

    def barrier(self, state: _EngineState) -> int:
        return self.barriers.get(state.cursor, 0)

    def clip_stall_target(self, state: _EngineState, target: int) -> int:
        # Break the stall at the next scheduled clock-anchored fetch so it is
        # issued at exactly its recorded start time.
        upcoming = [t for t in self.pending_by_time if state.time < t < target]
        if upcoming:
            return min(upcoming)
        return target

    def _pop_pending_fetch_for(self, block: BlockId, cursor: int) -> Optional[FetchDecision]:
        """Remove and return a queued positional fetch for ``block`` that is
        already eligible."""
        for queue in self.queues_by_disk.values():
            for idx, (start_pos, _deadline, decision) in enumerate(queue):
                if decision.block == block and start_pos <= cursor:
                    queue.pop(idx)
                    return decision
        return None

    def on_absent(self, state: _EngineState, block: BlockId) -> None:
        # The needed block is neither resident nor in flight, but its fetch may
        # still be queued behind a fetch that is waiting for a victim on
        # another disk (a cross-disk wait the per-disk queue discipline cannot
        # resolve).  Issue that fetch out of order — with its designated victim
        # if it is resident, with the classical furthest-next-use victim
        # otherwise — so the replay always makes progress; only a schedule that
        # never fetches the block at all is rejected.
        emergency = self._pop_pending_fetch_for(block, state.cursor)
        if emergency is not None:
            victim = emergency.victim
            if victim is not None and victim not in state.cache.resident:
                victim = _default_forced_victim(state)
            try:
                state.start_fetch(
                    FetchDecision(disk=emergency.disk, block=emergency.block, victim=victim)
                )
            except PolicyError as exc:
                raise InvalidScheduleError(
                    f"scheduled fetch for {block!r} could not be issued even out of order "
                    f"at t={state.time}: {exc}"
                ) from exc
            return

        raise InvalidScheduleError(
            f"request {state.cursor} needs block {block!r} at t={state.time} but the "
            "schedule neither has it resident nor in flight"
        )

    def finish(self, state: _EngineState) -> None:
        # Positional fetches still pending once every request has been served
        # can no longer influence stall or feasibility (they would fetch
        # blocks that are never needed again); they are dropped silently.
        # Clock-anchored fetches, by contrast, must all have been replayed at
        # their exact times.
        leftovers = sum(len(v) for v in self.pending_by_time.values())
        if leftovers:
            raise InvalidScheduleError(
                f"{leftovers} scheduled fetches were never reached during replay "
                "(start time lies beyond the end of the run)"
            )


# ---------------------------------------------------------------------------------
# policy-driven simulation
# ---------------------------------------------------------------------------------


def simulate(
    instance: ProblemInstance,
    policy: PrefetchPolicy,
    *,
    engine: str = "loop",
    record_events: bool = False,
) -> SimulationResult:
    """Run ``policy`` over ``instance`` and return the resulting schedule and metrics.

    The engine consults the policy at every decision point.  If the policy
    leaves the processor unable to make progress (the next request's block is
    absent, not in flight, and its disk is idle), the engine issues a *forced
    demand fetch* with the classical furthest-next-use victim, so every policy
    produces a feasible schedule; such fetches are counted in
    ``metrics.num_demand_fetches``.

    ``engine`` selects the implementation: ``"loop"`` (default) runs the
    event loop over the incremental
    :class:`MissTracker`/:class:`EvictionHeap`; ``"scan"`` re-derives every
    query by scanning the sequence, exactly as the seed engine did;
    ``"vector"`` runs one-disk Conservative as a replay of MIN's plan
    (:func:`repro.algorithms.conservative.replay`) and the Delay family on
    the numpy struct-of-arrays kernel of :mod:`repro.disksim.vector`,
    falling back to the loop for instances/policies neither covers;
    ``"auto"`` does the same.  All engines produce identical schedules and
    metrics — the equivalence suites assert this.

    ``record_events=True`` also records the run's :class:`EventLog` (the
    Gantt chart, the timeline and the phase breakdown read it); otherwise
    ``result.events`` is ``None`` and the run skips one event object per
    serve, stall, fetch and eviction.  Only the loop engine records a log,
    so asking for one runs ``"auto"`` and ``"vector"`` on the loop engine.
    """
    result, _ = simulate_with_engine(
        instance, policy, engine=engine, record_events=record_events
    )
    return result


def _replays_min_plan(instance: ProblemInstance, policy: PrefetchPolicy) -> bool:
    """Whether ``policy`` is Conservative on a one-disk ``instance``, whose run
    :func:`~repro.algorithms.conservative.replay` computes without the loop.

    Only the exact shipped classes qualify (``type()`` checks), as in the
    vector kernel's plan resolution; ``ParallelConservative`` is the same
    rule as ``Conservative`` on one disk.
    """
    from ..algorithms.conservative import Conservative
    from ..algorithms.parallel_aggressive import ParallelConservative

    return instance.num_disks == 1 and type(policy) in (Conservative, ParallelConservative)


def simulate_with_engine(
    instance: ProblemInstance,
    policy: PrefetchPolicy,
    *,
    engine: str = "loop",
    record_events: bool = False,
) -> Tuple[SimulationResult, str]:
    """Like :func:`simulate`, but also report which engine actually ran.

    Returns ``(result, actual_engine)`` where ``actual_engine`` is the
    name of the engine that produced the result (``"loop"``, ``"scan"``,
    ``"vector"`` or ``"replay"``) — callers recording provenance (the sweep
    runner's :class:`~repro.analysis.results.RunRecord`) need the realised
    engine, not the requested one, because ``"vector"`` runs one-disk
    Conservative as a replay of MIN's plan and silently falls back to the
    loop for uncovered instances/policies, and ``"auto"`` resolves at run
    time.
    """
    engine = canonical_engine(engine)
    reason: Optional[str] = None
    if engine in ("vector", "auto"):
        if record_events:
            reason = "event log requested; only the loop engine records one"
        elif _replays_min_plan(instance, policy):
            from ..algorithms.conservative import replay

            metrics, schedule = replay(instance)
            return (
                SimulationResult(
                    instance=instance,
                    schedule=schedule,
                    metrics=metrics,
                    events=None,
                    policy_name=policy.name,
                ),
                "replay",
            )
        else:
            from . import vector as _vector

            outcome = _vector.simulate_vector(instance, policy)
            if not isinstance(outcome, str):
                return outcome, "vector"
            reason = outcome
        engine = "loop"
    state = _EngineState(
        instance, instance.cache_size, engine=engine, record_events=record_events
    )
    policy.reset(instance)
    _run_event_loop(state, _PolicyDriver(policy))
    result = state.result(getattr(policy, "name", type(policy).__name__))
    if reason is not None:
        result = replace(result, engine_reason=reason)
    return result, engine


# ---------------------------------------------------------------------------------
# schedule replay (validation)
# ---------------------------------------------------------------------------------


def execute_schedule(
    instance: ProblemInstance,
    schedule: Schedule,
    *,
    capacity_override: Optional[int] = None,
    engine: str = "loop",
) -> SimulationResult:
    """Replay a clock-anchored schedule, validating feasibility and measuring stall.

    Raises :class:`InvalidScheduleError` if a fetch cannot be issued exactly
    at its recorded start time (busy disk, victim absent, block already
    resident, capacity exceeded) or if the processor would need a block that
    the schedule never fetches in time (strict mode: no forced fetches are
    injected).  Replays record no event log (``result.events`` is ``None``).
    """
    by_time: Dict[int, List[FetchDecision]] = {}
    for op in schedule.fetches:
        by_time.setdefault(op.start_time, []).append(
            FetchDecision(disk=op.disk, block=op.block, victim=op.victim)
        )
    return _execute_with_replay(
        instance,
        by_time=by_time,
        positional=[],
        capacity_override=capacity_override,
        engine=engine,
    )


def execute_interval_schedule(
    instance: ProblemInstance,
    schedule: IntervalSchedule,
    *,
    capacity_override: Optional[int] = None,
    engine: str = "loop",
) -> SimulationResult:
    """Replay a position-anchored schedule (LP output), measuring its actual stall.

    A fetch with ``start_pos = i`` becomes eligible once ``i`` requests have
    been served — the paper's "the fetch starts after request ``r_i``"
    convention — and is issued at the first decision point from then on at
    which its disk is idle (consecutive intervals on one disk therefore
    execute back to back, exactly as the LP's stall accounting assumes).  The
    measured stall time is never larger, and can be smaller, than the LP
    objective ``sum x(I) (F - |I|)``: the LP charges the full residual fetch
    time of each interval whereas the processor only stalls when it actually
    has to wait.
    """
    positional = [
        (op.start_pos, op.end_pos, FetchDecision(disk=op.disk, block=op.block, victim=op.victim))
        for op in schedule.fetches
    ]
    return _execute_with_replay(
        instance,
        by_time={},
        positional=positional,
        capacity_override=capacity_override,
        engine=engine,
    )


def _execute_with_replay(
    instance: ProblemInstance,
    *,
    by_time: Dict[int, List[FetchDecision]],
    positional: List[Tuple[int, int, FetchDecision]],
    capacity_override: Optional[int],
    engine: str = "loop",
) -> SimulationResult:
    capacity = capacity_override if capacity_override is not None else instance.cache_size
    state = _EngineState(instance, capacity, engine=engine)
    _run_event_loop(state, _ReplayDriver(instance, by_time, positional))
    return state.result("replay")
