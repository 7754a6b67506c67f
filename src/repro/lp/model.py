"""The synchronized prefetching/caching linear program (Section 3 of the paper).

Variables
---------
* ``x(I)``   for every candidate fetch interval ``I`` — 1 iff a (synchronized)
  fetch is performed in ``I``.
* ``f(I,a)`` — 1 iff block ``a`` is fetched in interval ``I``.
* ``e(I,a)`` — 1 iff block ``a`` is evicted in interval ``I``.

The objective minimises the charged stall ``sum_I x(I) (F - |I|)``.

Constraints (following the paper, with the variable-sparsity refinements
described below):

1. at most one fetch interval overlaps the service of any request;
2. per interval and disk, at most ``x(I)`` blocks are fetched from that disk;
3. per interval, #fetches = #evictions (cache occupancy stays constant);
4. every requested block is in cache at each of its references: it is fetched
   before its first reference (unless initially resident), and between
   consecutive references it is fetched exactly as often as it is evicted;
5. blocks are never fetched or evicted during an interval overlapping one of
   their own references;
6. initially-resident blocks that are never requested can be evicted at most
   once.

Variable sparsity
-----------------
``f(I,a)``/``e(I,a)`` variables are only created for intervals ``I`` lying
inside one of ``a``'s *epochs* (the windows between consecutive references,
plus the prefix before the first and the suffix after the last reference).
Constraint 5 then holds by construction and the model size drops from
``O(n^2 F)`` per block to ``O(n F)`` summed over all blocks.

Dominance-pruned reduced model (single disk)
--------------------------------------------
With ``aggregate_never_requested=True`` (single-disk models only) the
per-block eviction variables of the never-requested resident blocks — the
user's unreferenced warm blocks plus every synthesised dummy, typically
``k`` blocks on a cold instance — are replaced by a single aggregate
variable ``e(I, __nragg)`` per interval with one budget constraint
``sum_I e(I, __nragg) <= #never-requested``.  The pruning is a dominance
argument: never-requested resident blocks are pairwise interchangeable
(each is fetched never and evicted at most once, so any one of them
dominates any other as an eviction victim), and on a single disk each
interval performs at most one fetch — hence at most one eviction — so the
aggregate variable stays within the ``[0, 1]`` bounds shared by all
variables.  Solutions map both ways without changing the objective;
:meth:`SynchronizedLPModel.solution_from_vector` decomposes integral
aggregate evictions back into concrete block names so schedule extraction
and execution are unchanged.  The model drops from
``O(k·nF)`` eviction variables to ``O(nF)`` on cold instances, which is
the bulk of the single-disk LP.

Deviations from the paper (documented substitutions)
----------------------------------------------------
* The paper assumes the cache initially holds ``k + D - 1`` blocks that are
  never requested.  The builder synthesises such dummy blocks to fill the
  effective capacity whatever the user-supplied initial cache is, so warm
  starts are supported.
* Constraint 2 is an inequality: an interval may leave some disks idle,
  where the paper's synchronized schedules fetch from every disk and pad an
  idle disk with "an arbitrary block from that disk" (Lemma 3).  Dropping
  the padding fetches maps every padded solution to one of this model, so
  its optimum is never worse and Lemma 3's guarantee (stall <= s_OPT(sigma,
  k) with ``k + D - 1`` locations) carries over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .._typing import BlockId
from ..disksim.instance import ProblemInstance
from ..disksim.schedule import IntervalFetch, IntervalSchedule
from ..errors import ConfigurationError, SolverError
from .intervals import Interval, interval_structure

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "LPSolution",
    "SynchronizedLPModel",
    "DUMMY_PREFIX",
    "AGGREGATE_BLOCK",
]

#: Prefix of synthesised never-requested blocks that fill the initial cache.
DUMMY_PREFIX = "__initdummy"
#: Sentinel block standing for *any* never-requested resident block in the
#: dominance-pruned reduced model (``aggregate_never_requested=True``).
AGGREGATE_BLOCK = "__nragg"
#: Variables of an integral solution are 0 or 1; above this they count as 1.
_ONE = 0.5

#: A fetch unit of an extracted schedule: ``(start, end, block, victim)``.
_Unit = Tuple[int, int, BlockId, Optional[BlockId]]


@dataclass(frozen=True)
class LPSolution:
    """A solution of the synchronized LP (fractional or integral)."""

    objective: float
    x: Dict[Interval, float]
    fetches: Dict[Tuple[Interval, BlockId], float]
    evictions: Dict[Tuple[Interval, BlockId], float]
    is_integral: bool
    #: The relaxation's reduced cost of each variable, in the model's column
    #: order (:func:`~repro.lp.solver.solve_relaxation`); ``None`` on a MILP
    #: solution.
    reduced_costs: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def selected_intervals(self) -> List[Interval]:
        """Intervals with ``x(I) = 1`` (integral solutions), in the canonical order."""
        return sorted(interval for interval, value in self.x.items() if value > _ONE)

    def charged_stall(self, fetch_time: int) -> int:
        """Total charged stall of the selected intervals (integral solutions)."""
        return sum(i.charged_stall(fetch_time) for i in self.selected_intervals())


class SynchronizedLPModel:
    """The synchronized prefetching/caching LP: matrices, solutions, schedules.

    The model has ``k + D - 1`` cache locations, as in the paper's Lemma 3;
    on a single disk that is the true capacity ``k``.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        aggregate_never_requested: bool = False,
    ):
        self.instance = instance
        self.num_disks = instance.num_disks
        if aggregate_never_requested and self.num_disks != 1:
            # The [0, 1] bound on the aggregate variable relies on "at most
            # one fetch (hence eviction) per interval", which only holds on a
            # single disk (see the module docstring).
            raise ConfigurationError(
                "aggregate_never_requested is a single-disk reduction (D == 1)"
            )
        self.capacity = instance.cache_size + self.num_disks - 1
        self.aggregate_never_requested = aggregate_never_requested
        self.fetch_time = instance.fetch_time
        self.num_requests = instance.num_requests

        self._build()

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        instance = self.instance
        sequence = instance.sequence
        n = self.num_requests

        # The enumeration and its window/coverage indices depend only on
        # (n, F); the memoised structure is shared across every model of the
        # same shape (warm-start reuse across algorithms and instances).
        self._structure = interval_structure(n, self.fetch_time)
        self.intervals: List[Interval] = list(self._structure.intervals)

        # --- block bookkeeping -----------------------------------------------------
        requested = sorted(sequence.distinct_blocks, key=str)
        initially_resident = set(instance.initial_cache)
        # Dummy blocks fill the initial cache up to the effective capacity so
        # that "#fetches == #evictions per interval" keeps occupancy constant
        # at exactly `capacity`.
        num_dummies = self.capacity - len(initially_resident)
        if num_dummies < 0:
            raise ConfigurationError(
                f"initial cache ({len(initially_resident)}) exceeds effective capacity "
                f"({self.capacity})"
            )
        self.dummy_blocks: List[BlockId] = [f"{DUMMY_PREFIX}{i}" for i in range(num_dummies)]
        self.active_disks: List[int] = sorted(
            {instance.disk_of(b) for b in requested}
        ) or [0]

        # The instance handed to the executor: same sequence, capacity extended,
        # initial cache padded with the dummies.
        self.augmented_instance = ProblemInstance(
            sequence=sequence,
            cache_size=self.capacity,
            fetch_time=self.fetch_time,
            layout=instance.layout,
            initial_cache=frozenset(initially_resident) | frozenset(self.dummy_blocks),
        )

        # --- variable indexing -------------------------------------------------------
        self._x_index: Dict[Interval, int] = {}
        self._f_index: Dict[Tuple[Interval, BlockId], int] = {}
        self._e_index: Dict[Tuple[Interval, BlockId], int] = {}
        counter = 0
        for interval in self.intervals:
            self._x_index[interval] = counter
            counter += 1

        def add_f(interval: Interval, block: BlockId) -> None:
            nonlocal counter
            key = (interval, block)
            if key not in self._f_index:
                self._f_index[key] = counter
                counter += 1

        def add_e(interval: Interval, block: BlockId) -> None:
            nonlocal counter
            key = (interval, block)
            if key not in self._e_index:
                self._e_index[key] = counter
                counter += 1

        # Epochs of requested blocks (1-based request positions, paper style).
        self._epochs_fetch: Dict[BlockId, List[Tuple[int, int]]] = {}
        self._epochs_evict: Dict[BlockId, List[Tuple[int, int]]] = {}
        for block in requested:
            positions = [p + 1 for p in sequence.positions(block)]
            fetch_epochs: List[Tuple[int, int]] = []
            evict_epochs: List[Tuple[int, int]] = []
            fetch_epochs.append((0, positions[0]))
            evict_epochs.append((0, positions[0]))
            for prev, nxt in zip(positions, positions[1:]):
                fetch_epochs.append((prev, nxt))
                evict_epochs.append((prev, nxt))
            evict_epochs.append((positions[-1], n))
            self._epochs_fetch[block] = fetch_epochs
            self._epochs_evict[block] = evict_epochs
            for lo, hi in fetch_epochs:
                for interval in self._window(lo, hi):
                    add_f(interval, block)
            for lo, hi in evict_epochs:
                for interval in self._window(lo, hi):
                    add_e(interval, block)

        # Never-requested initial blocks (user supplied or dummies): evictable
        # at most once, anywhere.  They are pairwise interchangeable, so the
        # reduced model replaces their per-block eviction variables with one
        # aggregate variable per interval (see the module docstring).
        self.never_requested_initial: List[BlockId] = sorted(
            (b for b in initially_resident if not sequence.contains_block(b)), key=str
        ) + list(self.dummy_blocks)
        if self.aggregate_never_requested and self.never_requested_initial:
            for interval in self.intervals:
                add_e(interval, AGGREGATE_BLOCK)
        else:
            for block in self.never_requested_initial:
                for interval in self.intervals:
                    add_e(interval, block)

        self.num_variables = counter
        self.requested_blocks = requested
        self.initially_resident = initially_resident

        # --- objective ---------------------------------------------------------------
        objective = np.zeros(self.num_variables)
        for interval, idx in self._x_index.items():
            objective[idx] = interval.charged_stall(self.fetch_time)
        self.objective = objective

        # --- constraints ---------------------------------------------------------------
        eq_rows: List[Tuple[List[int], List[float], float]] = []
        ub_rows: List[Tuple[List[int], List[float], float]] = []

        # 1. at most one interval overlaps each request slot.
        for slot in range(1, n):
            cols = [
                self._x_index[interval]
                for interval in self._structure.covering(slot)
            ]
            if cols:
                ub_rows.append((cols, [1.0] * len(cols), 1.0))

        # 2. per interval and active disk: sum of fetches from the disk <= x(I).
        blocks_by_disk: Dict[int, List[BlockId]] = {d: [] for d in self.active_disks}
        for block in requested:
            blocks_by_disk[instance.disk_of(block)].append(block)
        for interval in self.intervals:
            x_col = self._x_index[interval]
            for disk in self.active_disks:
                cols = [x_col]
                coefs = [-1.0]
                for block in blocks_by_disk[disk]:
                    key = (interval, block)
                    if key in self._f_index:
                        cols.append(self._f_index[key])
                        coefs.append(1.0)
                ub_rows.append((cols, coefs, 0.0))

        # 3. per interval: #fetches == #evictions.
        fetch_cols_by_interval: Dict[Interval, List[int]] = {i: [] for i in self.intervals}
        evict_cols_by_interval: Dict[Interval, List[int]] = {i: [] for i in self.intervals}
        for (interval, _block), idx in self._f_index.items():
            fetch_cols_by_interval[interval].append(idx)
        for (interval, _block), idx in self._e_index.items():
            evict_cols_by_interval[interval].append(idx)
        for interval in self.intervals:
            cols = fetch_cols_by_interval[interval] + evict_cols_by_interval[interval]
            coefs = [1.0] * len(fetch_cols_by_interval[interval]) + [-1.0] * len(
                evict_cols_by_interval[interval]
            )
            if cols:
                eq_rows.append((cols, coefs, 0.0))

        # 4. per requested block: epoch constraints.
        for block in requested:
            first_lo, first_hi = self._epochs_fetch[block][0]
            first_f = self._epoch_cols(self._f_index, block, first_lo, first_hi)
            first_e = self._epoch_cols(self._e_index, block, first_lo, first_hi)
            if block in initially_resident:
                # Already resident: fetched exactly as often as evicted before
                # the first reference, and at most once.
                cols = first_f + first_e
                coefs = [1.0] * len(first_f) + [-1.0] * len(first_e)
                if cols:
                    eq_rows.append((cols, coefs, 0.0))
                if first_f:
                    ub_rows.append((first_f, [1.0] * len(first_f), 1.0))
            else:
                # Must be fetched exactly once before the first reference and
                # not evicted before it.
                if not first_f:
                    raise SolverError(
                        f"block {block!r} is requested at position {first_hi} but no "
                        "fetch interval fits before it (n or F too small)"
                    )
                eq_rows.append((first_f, [1.0] * len(first_f), 1.0))
                if first_e:
                    eq_rows.append((first_e, [1.0] * len(first_e), 0.0))

            for lo, hi in self._epochs_fetch[block][1:]:
                f_cols = self._epoch_cols(self._f_index, block, lo, hi)
                e_cols = self._epoch_cols(self._e_index, block, lo, hi)
                cols = f_cols + e_cols
                coefs = [1.0] * len(f_cols) + [-1.0] * len(e_cols)
                if cols:
                    eq_rows.append((cols, coefs, 0.0))
                if f_cols:
                    ub_rows.append((f_cols, [1.0] * len(f_cols), 1.0))

            last_lo, last_hi = self._epochs_evict[block][-1]
            last_e = self._epoch_cols(self._e_index, block, last_lo, last_hi)
            if last_e:
                ub_rows.append((last_e, [1.0] * len(last_e), 1.0))

        # 6. never-requested initial blocks: evicted at most once overall.
        # Reduced model: one budget row for the aggregate variable instead of
        # one row (and one variable set) per interchangeable block.
        if self.aggregate_never_requested and self.never_requested_initial:
            cols = [
                self._e_index[(interval, AGGREGATE_BLOCK)]
                for interval in self.intervals
            ]
            ub_rows.append(
                (cols, [1.0] * len(cols), float(len(self.never_requested_initial)))
            )
        else:
            for block in self.never_requested_initial:
                cols = [
                    self._e_index[(interval, block)]
                    for interval in self.intervals
                    if (interval, block) in self._e_index
                ]
                if cols:
                    ub_rows.append((cols, [1.0] * len(cols), 1.0))

        self._A_eq, self._b_eq = self._assemble(eq_rows)
        self._A_ub, self._b_ub = self._assemble(ub_rows)

    def _window(self, lo: int, hi: int) -> Tuple[Interval, ...]:
        """Intervals contained in the window ``(lo, hi)`` (shared memo)."""
        return self._structure.window(lo, hi)

    def _epoch_cols(
        self, index: Dict[Tuple[Interval, BlockId], int], block: BlockId, lo: int, hi: int
    ) -> List[int]:
        return [
            index[(interval, block)]
            for interval in self._window(lo, hi)
            if (interval, block) in index
        ]

    @staticmethod
    def _assemble(
        rows: List[Tuple[List[int], List[float], float]]
    ) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
        from scipy import sparse

        if not rows:
            return None, None
        data: List[float] = []
        row_idx: List[int] = []
        col_idx: List[int] = []
        rhs = np.zeros(len(rows))
        ncols = 0
        for r, (cols, coefs, b) in enumerate(rows):
            rhs[r] = b
            for c, coef in zip(cols, coefs):
                row_idx.append(r)
                col_idx.append(c)
                data.append(coef)
                ncols = max(ncols, c + 1)
        return (
            sparse.csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), ncols)),
            rhs,
        )

    # -- matrix access (padded to the full variable count) --------------------------------

    def equality_system(self) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
        """``(A_eq, b_eq)`` with ``A_eq`` padded to ``num_variables`` columns."""
        return self._pad(self._A_eq), self._b_eq

    def inequality_system(self) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
        """``(A_ub, b_ub)`` with ``A_ub`` padded to ``num_variables`` columns."""
        return self._pad(self._A_ub), self._b_ub

    def _pad(self, matrix: Optional[sparse.csr_matrix]) -> Optional[sparse.csr_matrix]:
        from scipy import sparse

        if matrix is None:
            return None
        if matrix.shape[1] == self.num_variables:
            return matrix
        extra = self.num_variables - matrix.shape[1]
        return sparse.hstack(
            [matrix, sparse.csr_matrix((matrix.shape[0], extra))], format="csr"
        )

    # -- solution handling -------------------------------------------------------------

    def solution_from_vector(self, vector: np.ndarray, *, tol: float = 1e-6) -> LPSolution:
        """Package a raw solver vector into an :class:`LPSolution`.

        In the reduced model, integral evictions of the aggregate
        never-requested block are decomposed back into concrete block names
        (walking the selected intervals in canonical order and handing each
        one the next unused never-requested block), so downstream schedule
        extraction sees an ordinary full-model solution.  Fractional
        aggregate mass is left on the sentinel — such solutions are only
        ever read for their objective value.
        """
        x = {
            interval: float(vector[idx])
            for interval, idx in self._x_index.items()
            if vector[idx] > tol
        }
        fetches = {
            key: float(vector[idx]) for key, idx in self._f_index.items() if vector[idx] > tol
        }
        evictions = {
            key: float(vector[idx]) for key, idx in self._e_index.items() if vector[idx] > tol
        }
        if self.aggregate_never_requested:
            evictions = self._decompose_aggregate_evictions(evictions)
        integral = all(
            abs(v - round(v)) <= 1e-6
            for v in list(x.values()) + list(fetches.values()) + list(evictions.values())
        )
        objective = float(np.dot(self.objective, vector))
        return LPSolution(
            objective=objective, x=x, fetches=fetches, evictions=evictions, is_integral=integral
        )

    def _decompose_aggregate_evictions(
        self, evictions: Dict[Tuple[Interval, BlockId], float], *, tol: float = 1e-6
    ) -> Dict[Tuple[Interval, BlockId], float]:
        """Map integral aggregate evictions onto concrete never-requested blocks.

        The aggregate's budget constraint guarantees at most
        ``len(never_requested_initial)`` units of integral mass, so the
        deterministic interval-ordered assignment always has a fresh block
        available.  Fractional entries stay on :data:`AGGREGATE_BLOCK`.
        """
        available = list(self.never_requested_initial)
        out: Dict[Tuple[Interval, BlockId], float] = {}
        aggregate = sorted(
            (key for key in evictions if key[1] == AGGREGATE_BLOCK),
            key=lambda key: key[0],
        )
        for key, value in evictions.items():
            if key[1] != AGGREGATE_BLOCK:
                out[key] = value
        for interval, _sentinel in aggregate:
            value = evictions[(interval, AGGREGATE_BLOCK)]
            if abs(value - 1.0) <= tol and available:
                out[(interval, available.pop(0))] = 1.0
            else:
                out[(interval, AGGREGATE_BLOCK)] = value
        return out

    def extract_schedule(self, solution: LPSolution) -> IntervalSchedule:
        """Convert an integral solution into an executable :class:`IntervalSchedule`.

        Each selected interval's fetched blocks are paired with its evicted
        blocks, both in name order, after cancelling degenerate pairs that
        fetch and evict one block in the same interval.  That gives *fetch
        units* ``(start, end, block, victim)``: the victim leaves the cache
        when the fetch starts, the block must be in by the interval's end.
        Two passes per disk (the fetched block's disk) then make the units
        realisable at the LP's charged stall, since one disk runs its
        fetches one after another:

        1. Endpoint normalisation (Section 3).  Two units with
           ``(i, j)`` strictly nested in ``(i', j')`` would put the inner
           fetch inside the outer one's window.  They become ``(i', j)``
           with the inner block and the outer victim and ``(i, j')`` with
           the outer block and the inner victim, so every block keeps its
           deadline, every victim its eviction time, every fetch a victim,
           and the pair's charge ``2F - |I| - |I'|`` is unchanged.  Each
           step lowers the sum of squared spans, so the pass ends.
        2. Fetch order (property (1)).  Walking the units in the paper's
           order ``<`` (start, then end), blocks are re-assigned so that an
           earlier unit fetches a block needed earlier; each unit keeps its
           victim.  A unit whose new block is its own victim keeps no
           victim.

        Without these passes an integral LP point can charge its stall to
        other intervals than a serial execution incurs it in, and the
        executed stall could exceed the LP objective; with them it does
        not (the test-suite checks this on randomised instances and
        against brute force, on one disk and on several).
        """
        if not solution.is_integral:
            raise SolverError("extract_schedule needs an integral solution")
        sequence = self.instance.sequence
        fetched_in: Dict[Interval, List[BlockId]] = {}
        evicted_in: Dict[Interval, List[BlockId]] = {}
        for (interval, block), value in solution.fetches.items():
            if value > _ONE:
                fetched_in.setdefault(interval, []).append(block)
        for (interval, block), value in solution.evictions.items():
            if value > _ONE:
                evicted_in.setdefault(interval, []).append(block)

        units_by_disk: Dict[int, List[_Unit]] = {}
        for interval in solution.selected_intervals():
            fetched = fetched_in.get(interval, [])
            evicted = evicted_in.get(interval, [])
            both = set(fetched) & set(evicted)
            fetched = sorted((b for b in fetched if b not in both), key=str)
            evicted = sorted((b for b in evicted if b not in both), key=str)
            for pos, block in enumerate(fetched):
                victim = evicted[pos] if pos < len(evicted) else None
                units_by_disk.setdefault(self.instance.disk_of(block), []).append(
                    (interval.start, interval.end, block, victim)
                )

        fetch_ops: List[IntervalFetch] = []
        for disk, units in units_by_disk.items():
            while (pair := _strictly_nested(units)) is not None:
                inner, outer = pair
                start, end, block, victim = units[inner]
                outer_start, outer_end, outer_block, outer_victim = units[outer]
                units[inner] = (outer_start, end, block, outer_victim)
                units[outer] = (start, outer_end, outer_block, victim)
            units.sort(key=lambda unit: unit[:2])
            # The reference each block is fetched for: its first use from the
            # unit's end on (normalisation keeps a block's end).
            jobs = sorted(
                ((sequence.next_use_from(end - 1, block), str(block), block)
                 for _start, end, block, _victim in units),
                key=lambda job: job[:2],
            )
            for (start, end, _block, victim), (_use, _name, block) in zip(units, jobs):
                fetch_ops.append(
                    IntervalFetch(
                        start_pos=start,
                        end_pos=end,
                        disk=disk,
                        block=block,
                        victim=None if victim == block else victim,
                    )
                )
        return IntervalSchedule(
            fetch_time=self.fetch_time,
            num_disks=self.num_disks,
            num_requests=self.num_requests,
            fetches=tuple(fetch_ops),
            initial_cache=self.augmented_instance.initial_cache,
        )

    # -- introspection --------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Number of candidate fetch intervals."""
        return len(self.intervals)

    def describe(self) -> str:
        """One-line summary of the model size."""
        return (
            f"synchronized LP: {self.num_variables} variables "
            f"({len(self._x_index)} intervals, {len(self._f_index)} fetch, "
            f"{len(self._e_index)} evict), "
            f"{0 if self._A_eq is None else self._A_eq.shape[0]} equalities, "
            f"{0 if self._A_ub is None else self._A_ub.shape[0]} inequalities"
        )


def _strictly_nested(units: List[_Unit]) -> Optional[Tuple[int, int]]:
    """Indices ``(inner, outer)`` of two units whose intervals strictly nest, or ``None``."""
    order = sorted(range(len(units)), key=lambda u: units[u][:2])
    for rank, outer in enumerate(order):
        outer_start, outer_end = units[outer][:2]
        for inner in order[rank + 1 :]:
            start, end = units[inner][:2]
            if start >= outer_end:
                break
            if outer_start < start and end < outer_end:
                return inner, outer
    return None
