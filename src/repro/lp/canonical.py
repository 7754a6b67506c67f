"""Canonical instance identity: normalization and fingerprinting for optima.

Before this module existed, every consumer that wanted to cache or compare
optimum computations hashed (or canonicalised) problem instances its own
way: the experiment runner fingerprinted raw instance content, the ratio
harness solved whatever instance it was handed, and the brute-force oracle
explored states keyed by user-chosen block names.  Two instances that are
*equivalent for the optimum* — they differ only in the names of
never-requested warm blocks — would therefore never share a cached
optimum.  This module is the single definition both of *normalization*
(the equivalence-class representative an optimum is solved on) and of the
*fingerprint* (the SHA-256 cache key the optimum is stored under).

Normalization
-------------
The optimal stall time of an instance depends on the request sequence, the
cache size ``k``, the fetch time ``F``, the placement of the *requested*
blocks on disks, and the set of warm (initially resident) blocks — but
never on the *names* of warm blocks that are not requested: such blocks
only ever occupy slots until they are evicted once, so they are pairwise
interchangeable (this is exactly the role of the Section 3 dummy blocks).
:func:`normalize_instance` renames them to ``__nr0, __nr1, ...`` (in
sorted order, so the map is deterministic) and drops them from the disk
layout: a never-fetched block's disk assignment cannot influence any
schedule.

Fingerprint
-----------
:func:`instance_fingerprint` hashes the canonical payload of the
*normalized* instance — sequence, ``k``, ``F``, ``D``, warm set and the
requested blocks' placement — plus an optional solver key,
with SHA-256.  Equal fingerprints therefore guarantee equal optima, and
equivalent instances produced by different code paths share cache entries.
"""

from __future__ import annotations

import hashlib
from typing import List

from .._typing import BlockId
from ..disksim.disk import DiskLayout
from ..disksim.instance import ProblemInstance

__all__ = [
    "NEVER_REQUESTED_PREFIX",
    "never_requested_blocks",
    "normalize_instance",
    "canonical_payload",
    "instance_fingerprint",
]

#: Prefix of the canonical names normalization gives never-requested warm blocks.
NEVER_REQUESTED_PREFIX = "__nr"


def never_requested_blocks(instance: ProblemInstance) -> List[BlockId]:
    """The initially resident blocks the sequence never requests, sorted.

    These are the interchangeable blocks normalization renames; the LP
    model's "evicted at most once" constraint (constraint 6) applies to
    exactly this set plus the synthesised dummies.
    """
    sequence = instance.sequence
    return sorted(
        (b for b in instance.initial_cache if not sequence.contains_block(b)),
        key=repr,
    )


def normalize_instance(instance: ProblemInstance) -> ProblemInstance:
    """The canonical representative of ``instance``'s optimum-equivalence class.

    Never-requested warm blocks are renamed to ``__nr{i}`` (deterministic:
    the rename follows their sorted order) and removed from the disk
    layout; everything that can influence the optimal stall time — the
    sequence, ``k``, ``F``, the requested blocks' placement and the *number*
    of never-requested warm blocks — is preserved.  Instances that are
    already canonical (no never-requested warm blocks, which is every cold
    instance) are returned unchanged.
    """
    never = never_requested_blocks(instance)
    if not never:
        return instance
    renamed = {block: f"{NEVER_REQUESTED_PREFIX}{i}" for i, block in enumerate(never)}
    initial = frozenset(renamed.get(block, block) for block in instance.initial_cache)
    layout = DiskLayout(
        instance.num_disks,
        {b: instance.disk_of(b) for b in instance.requested_blocks},
    )
    return ProblemInstance(
        sequence=instance.sequence,
        cache_size=instance.cache_size,
        fetch_time=instance.fetch_time,
        layout=layout,
        initial_cache=initial,
    )


def canonical_payload(instance: ProblemInstance, solver_key: str = "") -> str:
    """The exact string :func:`instance_fingerprint` hashes (exposed for tests).

    Built from the *normalized* instance, so equivalent instances produce
    identical payloads.  Covers the request sequence, ``k``, ``F``, the warm
    set, the disk count and the placement of every requested block, plus the
    caller's solver key.
    """
    normalized = normalize_instance(instance)
    parts = [
        f"k={normalized.cache_size}",
        f"F={normalized.fetch_time}",
        "warm=" + ";".join(sorted(repr(b) for b in normalized.initial_cache)),
        "seq=" + "\x00".join(repr(b) for b in normalized.sequence.requests),
        f"D={normalized.num_disks}",
        "placement=" + ";".join(
            f"{b!r}->{normalized.disk_of(b)}"
            for b in sorted(normalized.requested_blocks, key=repr)
        ),
        f"solver={solver_key}",
    ]
    return "|".join(parts)


def instance_fingerprint(instance: ProblemInstance, solver_key: str = "") -> str:
    """SHA-256 fingerprint of the normalized instance + solver key.

    This is the cache key of the optimum service: equal fingerprints imply
    equal optima (same canonical instance, same solver settings), so disk
    and in-memory optimum caches can be shared across serial runs, process
    pools and repeated invocations.
    """
    return hashlib.sha256(canonical_payload(instance, solver_key).encode()).hexdigest()
