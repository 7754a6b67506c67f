"""Struct-of-arrays batch engine (the ``"vector"`` engine ``"auto"`` picks).

The loop engines (``"loop"``/``"scan"``) dispatch one Python call per event —
serve, fetch, completion — which caps single-threaded throughput at a few
hundred thousand requests per second.  This module re-expresses the exact
same integer-time model as dense numpy arrays: the request sequence, the
per-block next-use table and the cache residency bitmap of *many instances at
once* are stacked into 2-D arrays, and the simulation advances in fused
batched steps (complete due fetches → consult the policy → bulk-serve every
request until the next miss or fetch completion → stall).  One kernel step
costs a handful of vectorized array operations regardless of how many rows
(instances) it advances, so batching amortises the Python interpreter away.

Scope and fallback
------------------
The kernel runs one decision rule, ``Delay(d)``'s, a pure function of
(resident set, next-use table, cursor).  ``Aggressive`` is ``Delay(0)`` and
``Combination`` is resolved to whichever of the two it selects for the
instance, so each row carries just its ``d``.  Everything else —
parallel-disk instances, ``Conservative``, ``DemandFetch``, custom policies,
block identifiers whose string forms collide, empty sequences — falls back,
per item; :func:`_prepare_job` is the one eligibility check and names the
reason.  A fallen-back item runs as ``simulate_with_engine`` runs an
``engine="auto"`` request, both inside :func:`run_batch` and for a single
instance: one-disk Conservative as a replay of MIN's plan
(:func:`repro.algorithms.conservative.replay`), the rest on the loop
engine.  The produced :class:`~repro.disksim.metrics.SimMetrics` and
:class:`~repro.disksim.schedule.Schedule` are identical to the loop engine's
(the scan == loop == vector equivalence battery asserts this byte for
byte).  The kernel records no :class:`~repro.disksim.events.EventLog`
(``result.events`` is ``None``), as materialising one Python event object
per serve would defeat the point of the kernel; a caller that needs the log
passes ``record_events=True``, which runs the loop engine instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._typing import BlockId
from .instance import ProblemInstance
from .metrics import SimMetrics
from .schedule import Schedule, TimedFetch

if TYPE_CHECKING:  # imported lazily at runtime (executor imports this module)
    from .executor import SimulationResult

__all__ = [
    "VECTOR_FAMILIES",
    "BatchOutcome",
    "run_batch",
    "simulate_batch",
    "simulate_vector",
]

#: Registry families whose policies :func:`_resolve_plan` maps to a kernel
#: plan on a single-disk instance.  The sweep planner's pre-screen reads this
#: set; a behavioural test checks it against the planner for every
#: registered family.
VECTOR_FAMILIES = frozenset({"aggressive", "delay", "combination"})


def _resolve_plan(instance: ProblemInstance, policy: Any) -> Optional[int]:
    """The ``d`` of the ``Delay(d)`` rule ``policy`` runs, or ``None`` if the
    kernel cannot run it.

    Only the exact shipped classes qualify (``type()`` checks): a subclass
    may override ``decide`` arbitrarily, so it falls back to the loop engine.
    ``Combination`` is resolved through :meth:`Combination.select_for` to
    whichever component it runs on ``instance``.
    """
    from ..algorithms.combination import Combination
    from ..algorithms.delay import Aggressive, Delay

    if type(policy) is Combination:
        policy = Combination.select_for(instance)
    if type(policy) in (Aggressive, Delay):
        return policy.d
    return None


def _encode_instance(
    instance: ProblemInstance,
) -> Optional[Tuple[List[int], List[int], List[BlockId]]]:
    """Densely encode an instance's blocks as integer ids in ``str`` order.

    Returns ``(seq_ids, warm_ids, blocks)`` where ``blocks[i]`` is the block
    whose id is ``i`` and ids ascend in ``str(block)`` order — the order every
    engine tie-break is phrased in — or ``None`` when two distinct block
    objects share a string form (the tie-breaks would be ambiguous; the
    caller falls back to the loop engine).
    """
    universe = set(instance.sequence.requests) | set(instance.initial_cache)
    blocks = sorted(universe, key=str)
    if len({str(b) for b in blocks}) != len(blocks):
        return None
    index = {b: i for i, b in enumerate(blocks)}
    seq_ids = [index[b] for b in instance.sequence.requests]
    warm_ids = [index[b] for b in instance.initial_cache]
    return seq_ids, warm_ids, blocks


@dataclass
class _Job:
    """One kernel row: an encoded instance plus the ``d`` of its Delay rule."""

    instance: ProblemInstance
    d: int
    policy_name: str
    seq_ids: List[int]
    warm_ids: List[int]
    blocks: List[BlockId]


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one batch item: metrics plus provenance of the engine used.

    ``engine`` is ``"vector"`` when the kernel ran the item, ``"replay"``
    when it was one-disk Conservative and ``"loop"`` when it fell back to
    the loop engine.  ``schedule`` is only
    materialised when the batch was run with ``schedules=True`` — decoding
    one :class:`TimedFetch` per fetch costs per-event Python again, so the
    throughput paths leave it off.
    """

    metrics: SimMetrics
    policy_name: str
    engine: str
    schedule: Optional[Schedule] = None


def _run_kernel(
    np: Any, jobs: Sequence[_Job], want_schedules: bool
) -> List[Tuple[SimMetrics, Optional[Schedule]]]:
    """Advance all ``jobs`` to completion in fused batched array steps.

    Returns a list of ``(SimMetrics, Optional[Schedule])`` in job order.
    The kernel maintains, for every row, the invariant that ``nub[b]`` is the
    next position ``>= cursor`` requesting block ``b`` (clamped to ``n`` when
    none remains); every policy decision of the covered algorithms is a pure
    argmin/argmax over masked views of that table.  ``np`` is the numpy
    module, taken as an ``Any`` parameter so the strict type gate does not
    check the kernel's array arithmetic against numpy's stubs.
    """
    R = len(jobs)
    n_arr = np.array([len(j.seq_ids) for j in jobs], dtype=np.int64)
    k_arr = np.array([j.instance.cache_size for j in jobs], dtype=np.int64)
    f_arr = np.array([j.instance.fetch_time for j in jobs], dtype=np.int64)
    N = int(n_arr.max())
    NB = int(max(len(j.blocks) for j in jobs))
    PAD = NB  # padding pseudo-block: one past every real id
    MULT = np.int64(NB + 2)  # tie-break multiplier: exceeds every rank value
    BIG = np.int64(1) << 60
    DECLINE_CHUNK = np.int64(64)  # max requests served per step on a declined row

    seq2d = np.full((R, N), PAD, dtype=np.int64)
    for r, job in enumerate(jobs):
        seq2d[r, : n_arr[r]] = job.seq_ids

    # nxt2d[r, p] = next position > p with the same block, else n (per row).
    order = np.argsort(seq2d, axis=1, kind="stable")
    vals = np.take_along_axis(seq2d, order, axis=1)
    nxt_sorted = np.full((R, N), -1, dtype=np.int64)
    same = vals[:, :-1] == vals[:, 1:]
    head = nxt_sorted[:, :-1]
    head[same] = order[:, 1:][same]
    nxt2d = np.empty((R, N), dtype=np.int64)
    np.put_along_axis(nxt2d, order, nxt_sorted, axis=1)
    nxt2d = np.where(nxt2d < 0, n_arr[:, None], nxt2d)

    # nub[r, b] = first position >= cursor requesting b (init: first use).
    nub = np.repeat(n_arr[:, None], NB + 1, axis=1)
    rr = np.repeat(np.arange(R), N)
    np.minimum.at(nub, (rr, seq2d.ravel()), np.tile(np.arange(N), R))

    resident = np.zeros((R, NB + 1), dtype=bool)
    for r, job in enumerate(jobs):
        resident[r, job.warm_ids] = True
    rescount = resident.sum(axis=1).astype(np.int64)

    d_arr = np.array([j.d for j in jobs], dtype=np.int64)
    base_rank = np.arange(NB + 1, dtype=np.int64)

    time = np.zeros(R, dtype=np.int64)
    cursor = np.zeros(R, dtype=np.int64)
    stall = np.zeros(R, dtype=np.int64)
    hits = np.zeros(R, dtype=np.int64)
    misses = np.zeros(R, dtype=np.int64)
    fetches = np.zeros(R, dtype=np.int64)
    demand = np.zeros(R, dtype=np.int64)
    peak = rescount.copy()
    inc = np.full(R, -1, dtype=np.int64)  # in-flight block id (-1: disk idle)
    fin = np.zeros(R, dtype=np.int64)  # completion time of the in-flight fetch
    flooked = np.full(R, -1, dtype=np.int64)  # last position with a recorded first look
    flookv = np.zeros(R, dtype=bool)  # ... and whether the block was resident then
    m_arr = np.zeros(R, dtype=np.int64)
    tgt_arr = np.zeros(R, dtype=np.int64)  # decide-time target, reused by the serve phase

    sched_chunks: List[Tuple] = []
    act = n_arr > 0
    max_steps = 8 * N + 64
    steps = 0
    # The hot loop works on full (R, NB+1) matrices with boolean row masks
    # rather than fancy-indexed row subsets: a masked full-matrix pass is one
    # contiguous C sweep, whereas gathering ``nub[rows]`` copies the submatrix
    # on every step.  Scatters (which must not touch finished rows) go through
    # ``np.nonzero`` row lists instead.
    while act.any():
        steps += 1
        if steps > max_steps:  # pragma: no cover - engine-bug backstop
            raise RuntimeError("vector engine failed to make progress (engine bug)")

        # 1) Complete due fetches.
        comp = np.nonzero(act & (inc >= 0) & (fin <= time))[0]
        if comp.size:
            resident[comp, inc[comp]] = True
            rescount[comp] += 1
            inc[comp] = -1

        # 2) Decision point for idle rows: fetch per the row's Delay(d) rule.
        # tgt = position of the next request to a non-resident block (= n
        # when every remaining request is resident).
        tgt = np.minimum(np.where(resident, BIG, nub).min(axis=1), n_arr)
        cand_mask = act & (inc < 0) & (tgt < n_arr)
        frows = None
        decl_rows = None
        decl_m = None
        if cand_mask.any():
            frows_parts, ftgt_parts, fvic_parts = [], [], []
            decl_parts = []
            fs_rows = np.nonzero(cand_mask & (rescount < k_arr))[0]
            if fs_rows.size:
                frows_parts.append(fs_rows)
                ftgt_parts.append(tgt[fs_rows])
                fvic_parts.append(np.full(fs_rows.size, -1, dtype=np.int64))
            full_rows = np.nonzero(cand_mask & (rescount >= k_arr))[0]
            if full_rows.size:
                full_tgt = tgt[full_rows]
                d_eff = np.minimum(d_arr[full_rows], full_tgt - cursor[full_rows])
                jf = cursor[full_rows] + d_eff
                # adj[b] = next use of b judged from position jf: blocks
                # requested inside the window [cursor, jf) get re-keyed
                # by their last in-window occurrence's successor.  At
                # d' = 0 (Aggressive) the window is empty and adj is nub.
                adj = nub[full_rows]
                maxd = int(d_eff.max())
                if maxd > 0:
                    offs = np.arange(maxd, dtype=np.int64)
                    valid = offs[None, :] < d_eff[:, None]
                    wpos = np.where(valid, cursor[full_rows][:, None] + offs[None, :], 0)
                    wblk = seq2d[full_rows[:, None], wpos]
                    wnxt = nxt2d[full_rows[:, None], wpos]
                    sel = valid & (wnxt >= jf[:, None])
                    ri, ci = np.nonzero(sel)
                    adj[ri, wblk[ri, ci]] = wnxt[ri, ci]
                key = np.where(resident[full_rows], adj * MULT + base_rank[None, :], -1)
                vid = key.argmax(axis=1)
                pick = np.arange(full_rows.size)
                ok = (adj[pick, vid] > full_tgt) & (nub[full_rows, vid] > full_tgt)
                frows_parts.append(full_rows[ok])
                ftgt_parts.append(full_tgt[ok])
                fvic_parts.append(vid[ok])
                dd = full_rows[~ok]
                if dd.size:
                    # A decline can also rest on the *adjusted* next-use
                    # alone (never at d' = 0); the chunked serve below is
                    # only sound when the plain max resident next-use is
                    # already <= target (which then pins every later
                    # decision in the run to a decline as well).
                    mv = np.where(resident[dd], nub[dd], np.int64(-1)).max(axis=1)
                    decl_parts.append(dd[mv <= tgt[dd]])
            if frows_parts:
                frows = np.concatenate(frows_parts)
                if not frows.size:
                    frows = None
            if frows is not None:
                ftg = np.concatenate(ftgt_parts)
                fvic = np.concatenate(fvic_parts)
                fblk = seq2d[frows, ftg]
                has_vic = fvic >= 0
                vrows = frows[has_vic]
                resident[vrows, fvic[has_vic]] = False
                rescount[vrows] -= 1
                inc[frows] = fblk
                fin[frows] = time[frows] + f_arr[frows]
                fetches[frows] += 1
                demand[frows] += (ftg == cursor[frows]).astype(np.int64)
                peak[frows] = np.maximum(peak[frows], rescount[frows] + 1)
                if want_schedules:
                    sched_chunks.append(
                        (frows.copy(), time[frows].copy(), fblk.copy(), fvic.copy())
                    )
            if decl_parts:
                decl_rows = np.concatenate(decl_parts)
            if decl_rows is not None and decl_rows.size:
                # Chunked decline runs: while every resident next-use stays
                # <= target, the policy provably declines at every decision
                # point, and serving position p only lifts a next-use above
                # the target when nxt2d[p] > target.  So the whole run up to
                # (and including) the first such position can be served in
                # one step -- identical, decision for decision, to the event
                # loop -- instead of one request per step, which is what the
                # decline-heavy small-working-set regimes otherwise decay to.
                dtgt = tgt[decl_rows]
                dcur = cursor[decl_rows]
                dlen = np.minimum(dtgt - dcur, DECLINE_CHUNK)
                offs = np.arange(int(dlen.max()), dtype=np.int64)
                dvalid = offs[None, :] < dlen[:, None]
                dpos = np.where(dvalid, dcur[:, None] + offs[None, :], 0)
                flip = dvalid & (nxt2d[decl_rows[:, None], dpos] > dtgt[:, None])
                hasf = flip.any(axis=1)
                decl_m = np.where(hasf, flip.argmax(axis=1) + 1, dlen)
            else:
                decl_rows = None

        # 3) Record the first look at the cursor (hit/miss is judged here).
        rec = np.nonzero(act & (flooked < cursor))[0]
        if rec.size:
            flooked[rec] = cursor[rec]
            flookv[rec] = resident[rec, seq2d[rec, cursor[rec]]]

        # 4) Bulk-serve: busy rows run to the next miss or the fetch
        #    completion, whichever is nearer; idle rows with no remaining
        #    miss run to the end; idle rows whose plan declined a fetch
        #    serve their provable decline run (see the chunk computation
        #    above), re-evaluating the decision afterwards exactly like the
        #    event loop.  ``stop`` equals the decide-time target except on
        #    rows that just fetched, where the victim eviction can pull the
        #    next miss closer -- recompute only those rows.
        if frows is None:
            stop = tgt
        else:
            stop = tgt.copy()
            sub = np.where(resident[frows], BIG, nub[frows]).min(axis=1)
            stop[frows] = np.minimum(sub, n_arr[frows])
        busy_mask = act & (inc >= 0)
        idle_mask = act & (inc < 0)
        no_target = stop >= n_arr
        m_arr = np.where(busy_mask, np.minimum(stop - cursor, fin - time), 0)
        m_arr = np.where(idle_mask, np.where(no_target, n_arr - cursor, np.int64(1)), m_arr)
        if decl_rows is not None:
            m_arr[decl_rows] = decl_m
        chk = np.nonzero(idle_mask & ~no_target)[0]
        if chk.size and not np.all(
            resident[chk, seq2d[chk, cursor[chk]]]
        ):  # pragma: no cover - backstop
            raise RuntimeError(
                "vector engine invariant violated: idle row declined a fetch "
                "while the current block is absent"
            )
        srv = np.nonzero(m_arr > 0)[0]
        if srv.size:
            lens = m_arr[srv]
            if int(lens.max()) == 1:
                pos = cursor[srv]
                bl = seq2d[srv, pos]
                nub[srv, bl] = np.maximum(nub[srv, bl], nxt2d[srv, pos])
            else:
                total = int(lens.sum())
                rep = np.repeat(srv, lens)
                cums = np.cumsum(lens)
                offs = np.arange(total, dtype=np.int64) - np.repeat(cums - lens, lens)
                pos = np.repeat(cursor[srv], lens) + offs
                np.maximum.at(nub, (rep, seq2d[rep, pos]), nxt2d[rep, pos])
            first_miss = (~flookv[srv]).astype(np.int64)
            hits[srv] += lens - first_miss
            misses[srv] += first_miss
            time[srv] += lens
            cursor[srv] += lens

        # 5) Busy rows that hit a miss before the fetch completes: stall.
        still = np.nonzero(busy_mask & (time < fin) & (cursor < n_arr))[0]
        if still.size:
            rec = still[flooked[still] < cursor[still]]
            if rec.size:
                flooked[rec] = cursor[rec]
                flookv[rec] = False
            stall[still] += fin[still] - time[still]
            time[still] = fin[still]

        act &= cursor < n_arr

    per_row_ops: List[List[TimedFetch]] = [[] for _ in range(R)]
    if want_schedules and sched_chunks:
        srows = np.concatenate([c[0] for c in sched_chunks])
        stimes = np.concatenate([c[1] for c in sched_chunks])
        sblocks = np.concatenate([c[2] for c in sched_chunks])
        svics = np.concatenate([c[3] for c in sched_chunks])
        order = np.argsort(srows, kind="stable")  # per-row append order = time order
        for i in order:
            r = int(srows[i])
            blocks = jobs[r].blocks
            vic = int(svics[i])
            per_row_ops[r].append(
                TimedFetch(
                    start_time=int(stimes[i]),
                    disk=0,
                    block=blocks[int(sblocks[i])],
                    victim=None if vic < 0 else blocks[vic],
                )
            )

    results = []
    for r, job in enumerate(jobs):
        fetched = int(fetches[r])
        metrics = SimMetrics(
            num_requests=int(n_arr[r]),
            stall_time=int(stall[r]),
            num_fetches=fetched,
            num_demand_fetches=int(demand[r]),
            cache_hits=int(hits[r]),
            cache_misses=int(misses[r]),
            peak_cache_used=int(peak[r]),
            fetches_per_disk={0: fetched} if fetched else {},
        )
        schedule = None
        if want_schedules:
            schedule = Schedule(
                fetch_time=job.instance.fetch_time,
                num_disks=1,
                fetches=tuple(per_row_ops[r]),
                initial_cache=job.instance.initial_cache,
            )
        results.append((metrics, schedule))
    return results


def _prepare_job(instance: ProblemInstance, policy: Any) -> Union[_Job, str]:
    """Build a kernel job for ``(instance, policy)``, or say why it falls back.

    This is the kernel's one eligibility check: the returned string is the
    ``engine_reason`` a fallen-back
    :class:`~repro.disksim.executor.SimulationResult` records.
    """
    if instance.num_disks != 1:
        return "parallel-disk instance"
    if instance.num_requests == 0:
        return "empty request sequence"
    d = _resolve_plan(instance, policy)
    if d is None:
        return f"no vector kernel plan for policy {getattr(policy, 'name', type(policy).__name__)!r}"
    encoded = _encode_instance(instance)
    if encoded is None:
        return "ambiguous block identifiers (distinct blocks share a string form)"
    seq_ids, warm_ids, blocks = encoded
    # reset() resolves the reported name (Combination renames itself to the
    # component it selected), exactly as the loop engine records it.
    policy.reset(instance)
    name = getattr(policy, "name", type(policy).__name__)
    return _Job(
        instance=instance,
        d=d,
        policy_name=name,
        seq_ids=seq_ids,
        warm_ids=warm_ids,
        blocks=blocks,
    )


def run_batch(
    pairs: Sequence[Tuple[ProblemInstance, object]], *, schedules: bool = False
) -> List[BatchOutcome]:
    """Simulate many ``(instance, policy)`` pairs, batching what the kernel covers.

    Kernel-eligible pairs are stacked and advanced together; the rest run
    one by one as an ``engine="auto"`` request runs them (the replay for
    one-disk Conservative, else the loop engine).  Outcomes are returned in
    input order, each labelled with the engine that actually produced it.
    """
    from .executor import simulate_with_engine

    outcomes: List[Optional[BatchOutcome]] = [None] * len(pairs)
    jobs: List[_Job] = []
    job_slots: List[int] = []
    for slot, (instance, policy) in enumerate(pairs):
        job = _prepare_job(instance, policy)
        if isinstance(job, _Job):
            jobs.append(job)
            job_slots.append(slot)
        else:
            result, engine = simulate_with_engine(instance, policy, engine="auto")
            outcomes[slot] = BatchOutcome(
                metrics=result.metrics,
                policy_name=result.policy_name,
                engine=engine,
                schedule=result.schedule if schedules else None,
            )
    if jobs:
        for slot, job, (metrics, schedule) in zip(
            job_slots, jobs, _run_kernel(np, jobs, schedules)
        ):
            outcomes[slot] = BatchOutcome(
                metrics=metrics,
                policy_name=job.policy_name,
                engine="vector",
                schedule=schedule,
            )
    return outcomes


def simulate_batch(
    instances: Sequence[ProblemInstance],
    spec: str,
    *,
    schedules: bool = False,
) -> List[BatchOutcome]:
    """Run one algorithm over many instances in a single stacked kernel pass.

    ``spec`` is a registry spec string (``"delay:d=3"``); every row gets its
    own policy object built from it.  Returns one :class:`BatchOutcome` per
    instance, in input order.
    """
    from ..algorithms.registry import make_algorithm

    return run_batch(
        [(instance, make_algorithm(spec)) for instance in instances], schedules=schedules
    )


def simulate_vector(
    instance: ProblemInstance, policy: Any
) -> "Union[SimulationResult, str]":
    """Kernel-simulate one instance, or return why it is not covered.

    This is the kernel entry point an ``engine="auto"`` request takes in
    :func:`repro.disksim.executor.simulate_with_engine`: a string return is
    the fallback reason, which tells the dispatcher to run the loop engine
    without having spent a duplicate simulation.  The returned result
    carries no event log (``events=None``); schedule and metrics are
    identical to the loop engine's.
    """
    job = _prepare_job(instance, policy)
    if isinstance(job, str):
        return job
    from .executor import SimulationResult

    ((metrics, schedule),) = _run_kernel(np, [job], want_schedules=True)
    return SimulationResult(
        instance=instance,
        schedule=schedule,
        metrics=metrics,
        events=None,
        policy_name=job.policy_name,
    )
