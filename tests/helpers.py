"""Shared, importable test helpers.

Unlike ``conftest.py`` (which pytest loads as a plugin and which cannot be
imported with a relative import from test modules collected in rootdir
mode), this module lives on ``sys.path`` — pytest inserts the ``tests/``
directory when it loads ``tests/conftest.py`` — so test modules can simply
``from helpers import ...``.
"""

from __future__ import annotations

import random
from typing import List

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.disksim import DiskLayout, ProblemInstance
from repro.workloads import uniform_random, zipf


def random_single_instances(count: int = 4, *, max_requests: int = 40) -> List[ProblemInstance]:
    """A small battery of random single-disk instances (used by several tests)."""
    instances = []
    for seed in range(count):
        if seed % 2:
            sequence = uniform_random(
                20 + 5 * seed, 6 + 2 * seed, seed=seed, prefix=f"u{seed}_"
            )
        else:
            sequence = zipf(20 + 5 * seed, 6 + 2 * seed, seed=seed, prefix=f"z{seed}_")
        sequence = sequence[:max_requests]
        instances.append(
            ProblemInstance.single_disk(sequence, cache_size=4 + seed, fetch_time=2 + seed % 4)
        )
    return instances


def random_instance(seed: int, *, parallel: bool = False, max_disks: int = 4) -> ProblemInstance:
    """One deterministic random instance (single- or parallel-disk).

    Used by the engine-equivalence suite: the whole instance — sequence,
    cache size, fetch time, warm set and (for ``parallel=True``) striping —
    derives from ``seed`` alone.
    """
    rng = random.Random(seed)
    n = rng.randint(10, 70)
    num_blocks = rng.randint(4, 20)
    generator = zipf if seed % 2 else uniform_random
    sequence = generator(n, num_blocks, seed=seed, prefix=f"rs{seed}_")
    cache_size = rng.randint(2, 9)
    fetch_time = rng.randint(1, 9)
    warm = frozenset(sorted(map(str, sequence.distinct_blocks))[: rng.randint(0, cache_size)])
    if not parallel:
        return ProblemInstance.single_disk(
            sequence, cache_size=cache_size, fetch_time=fetch_time, initial_cache=warm
        )
    num_disks = rng.randint(2, max_disks)
    layout = DiskLayout.striped(sorted(map(str, sequence.distinct_blocks)), num_disks)
    return ProblemInstance.parallel_disk(
        sequence,
        cache_size=cache_size,
        fetch_time=fetch_time,
        layout=layout,
        initial_cache=warm,
    )


#: One spec per registry family (two Delay depths).  Every family runs on a
#: single disk, so single-disk batteries run them all.
REGISTRY_SPECS = (
    "aggressive",
    "combination",
    "conservative",
    "delay:d=0",
    "delay:d=3",
    "demand",
    "parallel-aggressive",
    "parallel-conservative",
)

#: Single-disk algorithms reject striped blocks, so parallel-disk batteries
#: run the specs that take any layout.
ANY_LAYOUT_SPECS = tuple(
    spec for spec in REGISTRY_SPECS if spec.startswith(("demand", "parallel-"))
)


def family_spec(name: str) -> str:
    """The bare family name, or its catalog example when a parameter is required."""
    definition = ALGORITHM_REGISTRY[name]
    if any(param.required for param in definition.params):
        return definition.example
    return name
