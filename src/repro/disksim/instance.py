"""Problem instances: everything that defines one prefetching/caching problem.

A :class:`ProblemInstance` bundles the request sequence, the cache size ``k``,
the fetch time ``F``, the disk layout and the initial cache contents.  Every
algorithm, solver and experiment in the library consumes instances, so the
model parameters are validated once, here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterable, Sequence

from .._typing import BlockId
from ..errors import ConfigurationError
from .disk import DiskLayout
from .sequence import RequestSequence

__all__ = ["ProblemInstance"]


@dataclass(frozen=True)
class ProblemInstance:
    """One instance of the integrated prefetching and caching problem.

    Attributes
    ----------
    sequence:
        The request sequence (known entirely in advance; the problem is
        offline).
    cache_size:
        Number of cache slots ``k`` available to the algorithm.
    fetch_time:
        Fetch duration ``F`` in time units.
    layout:
        Assignment of blocks to disks; ``DiskLayout.single()`` for the
        single-disk problem.
    initial_cache:
        Blocks resident in cache at time 0.  May contain blocks that are never
        requested (the paper's Section 3 convention uses ``k + D - 1`` dummy
        blocks); must not exceed ``cache_size`` entries.
    """

    sequence: RequestSequence
    cache_size: int
    fetch_time: int
    layout: DiskLayout = field(default_factory=DiskLayout.single)
    initial_cache: FrozenSet[BlockId] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.sequence, RequestSequence):
            object.__setattr__(self, "sequence", RequestSequence(self.sequence))
        object.__setattr__(self, "initial_cache", frozenset(self.initial_cache))
        if self.cache_size < 1:
            raise ConfigurationError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.fetch_time < 1:
            raise ConfigurationError(f"fetch_time must be >= 1, got {self.fetch_time}")
        if len(self.initial_cache) > self.cache_size:
            raise ConfigurationError(
                f"initial cache holds {len(self.initial_cache)} blocks but cache_size "
                f"is {self.cache_size}"
            )

    # -- convenience constructors ---------------------------------------------------

    @classmethod
    def single_disk(
        cls,
        requests: Sequence[BlockId] | RequestSequence,
        cache_size: int,
        fetch_time: int,
        initial_cache: Iterable[BlockId] = (),
    ) -> "ProblemInstance":
        """A single-disk instance (the Section 2 setting)."""
        seq = requests if isinstance(requests, RequestSequence) else RequestSequence(requests)
        return cls(
            sequence=seq,
            cache_size=cache_size,
            fetch_time=fetch_time,
            layout=DiskLayout.single(),
            initial_cache=frozenset(initial_cache),
        )

    @classmethod
    def parallel_disk(
        cls,
        requests: Sequence[BlockId] | RequestSequence,
        cache_size: int,
        fetch_time: int,
        layout: DiskLayout,
        initial_cache: Iterable[BlockId] = (),
    ) -> "ProblemInstance":
        """A parallel-disk instance (the Section 3 setting)."""
        seq = requests if isinstance(requests, RequestSequence) else RequestSequence(requests)
        return cls(
            sequence=seq,
            cache_size=cache_size,
            fetch_time=fetch_time,
            layout=layout,
            initial_cache=frozenset(initial_cache),
        )

    # -- derived quantities ----------------------------------------------------------

    @property
    def num_requests(self) -> int:
        """Length ``n`` of the request sequence."""
        return len(self.sequence)

    @property
    def num_disks(self) -> int:
        """Number of disks ``D``."""
        return self.layout.num_disks

    @property
    def requested_blocks(self) -> FrozenSet[BlockId]:
        """Distinct blocks referenced by the sequence."""
        return self.sequence.distinct_blocks

    def disk_of(self, block: BlockId) -> int:
        """Disk on which ``block`` resides."""
        return self.layout.disk_of(block)

    def cold_misses(self) -> int:
        """Number of distinct requested blocks not initially resident.

        Every schedule must fetch each of these at least once, so this is a
        trivial lower bound on the number of fetch operations.
        """
        return sum(1 for b in self.requested_blocks if b not in self.initial_cache)

    def with_cache_size(self, cache_size: int) -> "ProblemInstance":
        """A copy of the instance with a different cache size."""
        return replace(self, cache_size=cache_size)

    def with_initial_cache(self, initial_cache: Iterable[BlockId]) -> "ProblemInstance":
        """A copy of the instance with different initial cache contents."""
        return replace(self, initial_cache=frozenset(initial_cache))

    def describe(self) -> str:
        """One-line human-readable summary used in reports and logs."""
        return (
            f"n={self.num_requests} distinct={self.sequence.num_distinct} "
            f"k={self.cache_size} F={self.fetch_time} D={self.num_disks} "
            f"warm={len(self.initial_cache)}"
        )
