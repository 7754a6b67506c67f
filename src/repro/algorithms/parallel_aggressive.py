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

Within one decision round the idle disks claim victims and cache slots in
ascending disk order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .._typing import BlockId
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..paging.base import run_paging
from .base import PrefetchAlgorithm
from .conservative import PlannedFetch, min_plan

__all__ = ["ParallelAggressive", "ParallelConservative"]


class ParallelAggressive(PrefetchAlgorithm):
    """Aggressive prefetching independently on every idle disk."""

    name = "parallel-aggressive"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        decisions: List[FetchDecision] = []
        # Track blocks promised in this decision round so two disks never pick
        # the same victim and the fetched blocks are counted as "in flight".
        promised_victims: Set[BlockId] = set()
        promised_blocks: Set[BlockId] = set()
        free_slots = view.free_slots
        for disk in view.idle_disks():
            target = view.next_missing_position(on_disk=disk, exclude=promised_blocks)
            if target is None:
                continue
            block = view.instance.sequence[target]
            if free_slots > 0:
                decisions.append(FetchDecision(disk=disk, block=block, victim=None))
                promised_blocks.add(block)
                free_slots -= 1
                continue
            victim = view.furthest_resident(exclude=frozenset(promised_victims))
            if victim is None or view.next_use(victim) <= target:
                continue
            decisions.append(FetchDecision(disk=disk, block=block, victim=victim))
            promised_victims.add(victim)
            promised_blocks.add(block)
        return decisions


class ParallelConservative(PrefetchAlgorithm):
    """MIN's replacements executed as early as possible, one queue per disk."""

    name = "parallel-conservative"

    def __init__(self) -> None:
        super().__init__()
        self._queues: Dict[int, List[PlannedFetch]] = {}
        self._next_index: Dict[int, int] = {}

    def on_reset(self, instance: ProblemInstance) -> None:
        result = run_paging(
            instance.sequence, instance.cache_size, initial_cache=instance.initial_cache
        )
        queues: Dict[int, List[PlannedFetch]] = {d: [] for d in range(instance.num_disks)}
        for planned in min_plan(instance, result):
            queues[instance.disk_of(planned.block)].append(planned)
        self._queues = queues
        self._next_index = {d: 0 for d in queues}

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        decisions: List[FetchDecision] = []
        promised_victims: Set[BlockId] = set()
        free_slots = view.free_slots
        for disk in view.idle_disks():
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
