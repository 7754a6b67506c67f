"""The benchmark's workloads, and the checks every run applies to their output.

A workload is one fixed grid shape; the seed base picks which block of
workload seeds fills its seed axis, so the program only ever receives the
generated :class:`~repro.analysis.runner.ExperimentSpec`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Workload:
    """One grid shape plus how it is executed."""

    name: str
    workloads: Tuple[str, ...]
    cache_sizes: Tuple[int, ...]
    fetch_times: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    seeds_per_grid: int
    disks: Tuple[int, ...] = (1,)
    layouts: Tuple[str, ...] = ("striped",)
    backend: str = "serial"
    workers: int = 0
    compute_optimum: bool = False
    #: Warm (store-hit) passes after each cold pass.
    warm_passes: int = 1
    #: Time the grid at the default seed base whatever the seed base is; the
    #: grid at the given seed base is then run and checked once, untimed.
    #: For grids whose cost depends on the instance far more than on the code.
    timed_at_default: bool = False

    def seed_axis(self, base: int) -> Tuple[int, ...]:
        """Seed base ``b`` selects the block ``[b*S, (b+1)*S)`` of workload seeds."""
        start = base * self.seeds_per_grid
        return tuple(range(start, start + self.seeds_per_grid))

    def spec_kwargs(self, base: int) -> Dict[str, object]:
        """Keyword arguments of the ``ExperimentSpec`` this workload submits."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "cache_sizes": list(self.cache_sizes),
            "fetch_times": list(self.fetch_times),
            "algorithms": list(self.algorithms),
            "disks": list(self.disks),
            "layouts": list(self.layouts),
            "seeds": list(self.seed_axis(base)),
            "engine": "auto",
            "backend": self.backend,
            "compute_optimum": self.compute_optimum,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep-mixed",
            workloads=("zipf:n=2000,blocks=200",),
            cache_sizes=(16, 32),
            fetch_times=(5, 10),
            algorithms=("aggressive", "delay:d=3", "conservative"),
            seeds_per_grid=40,
            # One store-hit pass over 480 points takes tens of milliseconds.
            warm_passes=5,
        ),
        Workload(
            name="ratios-lp",
            workloads=(
                "zipf:n=40,blocks=30",
                "zipf:n=80,blocks=30",
                "zipf:n=160,blocks=30",
            ),
            cache_sizes=(8,),
            fetch_times=(4,),
            algorithms=("aggressive", "delay:d=3", "conservative", "demand"),
            seeds_per_grid=1,
            compute_optimum=True,
            timed_at_default=True,
        ),
        Workload(
            name="sweep-fanout",
            workloads=("markov:n=2000,blocks=400",),
            cache_sizes=(32,),
            fetch_times=(8,),
            algorithms=("parallel-aggressive", "parallel-conservative"),
            disks=(2, 4),
            layouts=("striped", "partitioned"),
            seeds_per_grid=20,
            backend="process",
            workers=2,
        ),
    )
}


# ---------------------------------------------------------------------------------
# output digest and exact counts
# ---------------------------------------------------------------------------------

#: Row fields that legitimately differ between correct runs: the engine that
#: realised a point (all engines produce identical results) and wall time.
_VOLATILE = ("engine", "optimum_solve_seconds")


def normalised_rows(document: str) -> List[Dict[str, object]]:
    """The emitted rows with ``engine`` normalised and solve time removed."""
    out = []
    for row in json.loads(document)["results"]:
        row = {key: value for key, value in row.items() if key not in _VOLATILE}
        row["engine"] = "any"
        out.append(row)
    return out


def digest(document: str) -> str:
    """SHA-256 of the normalised rows of one emitted ResultSet JSON document."""
    payload = json.dumps(normalised_rows(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Counts that must repeat exactly between runs of one grid.
FINGERPRINT = (
    "points",
    "requests",
    "lp.solves",
    "lp.milp_solves",
    "paging.min_faults",
    "disksim.vector.rows",
    "disksim.vector.share",
)


def record_counts(rows: Sequence[Mapping[str, object]], optimum_requests: int) -> Dict[str, float]:
    """The fingerprint counts that the emitted rows of a cold run determine.

    ``lp.milp_solves`` is not visible in the output; only a traced run has it.
    MIN's fault count is read off Conservative's fetches (they are equal; see
    :func:`check_rows`).
    """
    points = len(rows)
    vector = sum(1 for row in rows if row["engine"] == "vector")
    return {
        "points": points,
        "requests": sum(int(row["num_requests"]) for row in rows),
        "lp.solves": optimum_requests,
        "paging.min_faults": sum(
            int(row["num_fetches"])
            for row in rows
            if row["algorithm_spec"] in ("conservative", "parallel-conservative")
        ),
        "disksim.vector.rows": vector,
        "disksim.vector.share": vector / points if points else 0.0,
    }


def fingerprint_mismatches(
    counts: Mapping[str, float], expected: Mapping[str, float]
) -> List[str]:
    """Names of the fingerprint counts present in both maps that differ."""
    return [
        name
        for name in FINGERPRINT
        if name in counts and name in expected and counts[name] != expected[name]
    ]


# ---------------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------------


def min_faults(sequence: Sequence[object], cache_size: int, initial: Sequence[object] = ()) -> int:
    """Fault count of Belady's MIN: evict the resident block used furthest ahead.

    Written independently of the program's paging module, so it is an oracle
    for the Conservative invariant, not a copy of the code under test.
    """
    n = len(sequence)
    never = n + 1
    next_use = [never] * n
    upcoming: Dict[object, int] = {}
    for position in range(n - 1, -1, -1):
        block = sequence[position]
        next_use[position] = upcoming.get(block, never)
        upcoming[block] = position
    resident: Dict[object, int] = {}
    heap: List[Tuple[int, int, object]] = []
    tick = 0
    for block in initial:
        resident[block] = upcoming.get(block, never)
        heapq.heappush(heap, (-resident[block], tick, block))
        tick += 1
    faults = 0
    for position, block in enumerate(sequence):
        if block not in resident:
            faults += 1
            if len(resident) >= cache_size:
                while True:
                    neg_use, _, victim = heapq.heappop(heap)
                    if resident.get(victim) == -neg_use:
                        del resident[victim]
                        break
        resident[block] = next_use[position]
        heapq.heappush(heap, (-next_use[position], tick, block))
        tick += 1
    return faults


def check_rows(workload: Workload, rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Invariant violations in the emitted rows of one run (empty when correct).

    * every record: elapsed = n + stall;
    * every (parallel-)Conservative record: fetches = MIN faults;
    * with an optimum attached: elapsed ratio >= 1.
    """
    from repro.workloads.spec import build_workload_instance

    problems = []
    for row in rows:
        label = row["point"]
        if row["elapsed_time"] != row["num_requests"] + row["stall_time"]:
            problems.append(f"{label}: elapsed != n + stall")
        if row["algorithm_spec"] in ("conservative", "parallel-conservative"):
            instance = build_workload_instance(
                row["workload"],
                cache_size=row["cache_size"],
                fetch_time=row["fetch_time"],
                disks=row["disks"],
                layout=row["layout"] or "striped",
            )
            expected = min_faults(
                list(instance.sequence), instance.cache_size, instance.initial_cache
            )
            if row["num_fetches"] != expected:
                problems.append(f"{label}: {row['num_fetches']} fetches != {expected} MIN faults")
        if workload.compute_optimum:
            optimal = row["optimal_elapsed"]
            if optimal is None or row["elapsed_time"] < optimal:
                problems.append(f"{label}: elapsed ratio below 1 or missing optimum")
    return problems

