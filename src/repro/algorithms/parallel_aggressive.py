"""Parallel-disk Aggressive and Conservative baselines (Kimbrel & Karlin).

Kimbrel and Karlin analysed the natural multi-disk generalisations of the
two classical single-disk strategies and showed their elapsed-time
approximation ratios degrade to essentially ``D``.  They serve as the
prior-work baselines for the Section 3 experiments: the paper's LP-based
algorithm achieves optimal stall time (with a little extra memory), whereas
these simple strategies can be far from optimal as ``D`` grows.

* :class:`ParallelAggressive` — every idle disk starts a prefetch for the
  next request of a block that resides on it and is neither cached nor in
  flight, provided a safe victim exists; the victim is the resident block
  whose next reference is furthest in the future.

* :class:`ParallelConservative` — performs MIN's replacements (computed
  globally, exactly as in the single-disk Conservative) but lets each disk
  work through its own queue of planned fetches concurrently.

Within one decision round the disks claim victims and cache slots in turn,
so the *order* in which idle disks are visited is a real degree of freedom
the Kimbrel–Karlin analysis leaves open.  Both variants expose it as an
``order`` knob (``asc``/``desc`` disk ids; spec form
``parallel-aggressive:order=desc``), and ParallelAggressive additionally
takes the same victim ``tiebreak`` knob as the single-disk Aggressive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .._typing import BlockId, DiskId
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..paging.base import run_paging
from ..paging.belady import BeladyMIN
from .aggressive import TIEBREAKS
from .base import PrefetchAlgorithm

__all__ = ["ParallelAggressive", "ParallelConservative", "DISK_ORDERS"]

#: Valid disk-visit orders for one decision round.
DISK_ORDERS: FrozenSet[str] = frozenset({"asc", "desc"})


def _ordered_disks(view: PolicyView, order: str) -> Tuple[DiskId, ...]:
    """The idle disks in the configured claim order."""
    disks = view.idle_disks()
    return tuple(reversed(disks)) if order == "desc" else disks


class ParallelAggressive(PrefetchAlgorithm):
    """Aggressive prefetching independently on every idle disk."""

    name = "parallel-aggressive"

    def __init__(self, order: str = "asc", tiebreak: str = "high") -> None:
        super().__init__()
        self.order = self.validate_choice(order, DISK_ORDERS, "order")
        self.tiebreak = self.validate_choice(tiebreak, TIEBREAKS, "tiebreak")
        knobs = [
            f"{knob}={value}"
            for knob, value, default in (
                ("order", self.order, "asc"),
                ("tiebreak", self.tiebreak, "high"),
            )
            if value != default
        ]
        if knobs:
            self.name = f"parallel-aggressive[{','.join(knobs)}]"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        decisions: List[FetchDecision] = []
        # Track blocks promised in this decision round so two disks never pick
        # the same victim and the fetched blocks are counted as "in flight".
        promised_victims: Set[BlockId] = set()
        promised_blocks: Set[BlockId] = set()
        free_slots = view.free_slots
        for disk in _ordered_disks(view, self.order):
            target = view.next_missing_position(on_disk=disk, exclude=promised_blocks)
            if target is None:
                continue
            block = view.instance.sequence[target]
            if free_slots > 0:
                decisions.append(FetchDecision(disk=disk, block=block, victim=None))
                promised_blocks.add(block)
                free_slots -= 1
                continue
            victim = self.tie_broken_victim(
                view, self.tiebreak, exclude=frozenset(promised_victims)
            )
            if victim is None or view.next_use(victim) <= target:
                continue
            decisions.append(FetchDecision(disk=disk, block=block, victim=victim))
            promised_victims.add(victim)
            promised_blocks.add(block)
        return decisions


@dataclass(frozen=True)
class _PlannedFetch:
    block: BlockId
    victim: Optional[BlockId]
    earliest_pos: int
    miss_pos: int


class ParallelConservative(PrefetchAlgorithm):
    """MIN's replacements executed as early as possible, one queue per disk."""

    name = "parallel-conservative"

    def __init__(self, order: str = "asc") -> None:
        super().__init__()
        self.order = self.validate_choice(order, DISK_ORDERS, "order")
        if self.order != "asc":
            self.name = f"parallel-conservative[order={self.order}]"
        self._queues: Dict[int, List[_PlannedFetch]] = {}
        self._next_index: Dict[int, int] = {}

    def on_reset(self, instance: ProblemInstance) -> None:
        result = run_paging(
            instance.sequence,
            instance.cache_size,
            BeladyMIN(),
            initial_cache=instance.initial_cache,
        )
        queues: Dict[int, List[_PlannedFetch]] = {d: [] for d in range(instance.num_disks)}
        for miss_pos, block, victim in result.evictions:
            if victim is None:
                earliest = 0
            else:
                earliest = instance.sequence.previous_use_before(miss_pos, victim) + 1
            queues[instance.disk_of(block)].append(
                _PlannedFetch(block=block, victim=victim, earliest_pos=earliest, miss_pos=miss_pos)
            )
        self._queues = queues
        self._next_index = {d: 0 for d in queues}

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        decisions: List[FetchDecision] = []
        promised_victims: Set[BlockId] = set()
        free_slots = view.free_slots
        for disk in _ordered_disks(view, self.order):
            queue = self._queues.get(disk, [])
            index = self._next_index.get(disk, 0)
            # Skip entries that became moot (block already present).
            while index < len(queue) and (
                view.is_available(queue[index].block) or view.is_in_flight(queue[index].block)
            ):
                index += 1
            self._next_index[disk] = index
            if index >= len(queue):
                continue
            planned = queue[index]
            if view.cursor < planned.earliest_pos:
                continue
            victim = planned.victim
            if victim is not None and (victim not in view.resident or victim in promised_victims):
                victim = self._fallback_victim(view, promised_victims)
            if victim is None and free_slots <= 0:
                victim = self._fallback_victim(view, promised_victims)
                if victim is None:
                    continue
            self._next_index[disk] = index + 1
            decisions.append(FetchDecision(disk=disk, block=planned.block, victim=victim))
            if victim is None:
                free_slots -= 1
            else:
                promised_victims.add(victim)
        return decisions

    @staticmethod
    def _fallback_victim(view: PolicyView, promised: Set[BlockId]) -> Optional[BlockId]:
        return view.furthest_resident(exclude=promised)
