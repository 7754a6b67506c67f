"""Disk layout: the assignment of blocks to disks.

In the parallel-disk version of the Cao et al. model every block resides on
exactly one of ``D`` disks and blocks from different disks may be fetched
concurrently.  :class:`DiskLayout` captures that assignment and provides the
placement policies used by the multi-disk workload generators (striping,
hashing, explicit partitioning).  The single-disk problem is simply the
``D = 1`` special case.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Dict, FrozenSet, List

from .._typing import BlockId, DiskId
from ..errors import ConfigurationError

__all__ = ["DiskLayout"]


class DiskLayout:
    """Immutable mapping of blocks to disks.

    Parameters
    ----------
    num_disks:
        Number of disks ``D >= 1``.
    mapping:
        Mapping of block identifier to disk identifier in ``range(num_disks)``.
        Blocks that are never looked up need not appear.  Lookups of unmapped
        blocks use ``default_disk``.
    default_disk:
        Disk assigned to blocks absent from ``mapping``.  Defaults to disk 0,
        which makes the single-disk case require no mapping at all.
    """

    __slots__ = ("_num_disks", "_mapping", "_default_disk", "_by_disk")

    def __init__(
        self,
        num_disks: int = 1,
        mapping: Mapping[BlockId, DiskId] | None = None,
        *,
        default_disk: DiskId = 0,
    ) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        if not 0 <= default_disk < num_disks:
            raise ConfigurationError(
                f"default_disk {default_disk} outside range(0, {num_disks})"
            )
        mapping = dict(mapping or {})
        for block, disk in mapping.items():
            if not 0 <= disk < num_disks:
                raise ConfigurationError(
                    f"block {block!r} mapped to disk {disk}, outside range(0, {num_disks})"
                )
        self._num_disks = num_disks
        self._mapping: Dict[BlockId, DiskId] = mapping
        self._default_disk = default_disk
        by_disk: List[set] = [set() for _ in range(num_disks)]
        for block, disk in mapping.items():
            by_disk[disk].add(block)
        self._by_disk = tuple(frozenset(s) for s in by_disk)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def single(cls) -> "DiskLayout":
        """The trivial single-disk layout."""
        return cls(1)

    @classmethod
    def from_mapping(cls, mapping: Mapping[BlockId, DiskId]) -> "DiskLayout":
        """Layout inferred from an explicit block->disk mapping."""
        if not mapping:
            return cls.single()
        num_disks = max(mapping.values()) + 1
        return cls(num_disks, mapping)

    @classmethod
    def striped(cls, blocks: Iterable[BlockId], num_disks: int) -> "DiskLayout":
        """Round-robin (striped) placement of ``blocks`` over ``num_disks`` disks.

        Blocks are assigned in the iteration order of ``blocks``; use a sorted
        iterable for deterministic placement.
        """
        mapping = {block: i % num_disks for i, block in enumerate(blocks)}
        return cls(num_disks, mapping)

    @classmethod
    def hashed(cls, blocks: Iterable[BlockId], num_disks: int) -> "DiskLayout":
        """Placement by a deterministic hash of the block identifier.

        Unlike Python's builtin ``hash`` (randomised for strings across
        processes) this uses a stable FNV-1a hash of ``repr(block)`` so that
        experiments are reproducible run to run.
        """
        mapping = {}
        for block in blocks:
            data = repr(block).encode("utf8")
            h = 0xCBF29CE484222325
            for byte in data:
                h ^= byte
                h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            mapping[block] = h % num_disks
        return cls(num_disks, mapping)

    @classmethod
    def partitioned(cls, partitions: Iterable[Iterable[BlockId]]) -> "DiskLayout":
        """One disk per partition; every block in partition ``d`` lives on disk ``d``."""
        mapping: Dict[BlockId, DiskId] = {}
        num = 0
        for disk, part in enumerate(partitions):
            num = disk + 1
            for block in part:
                if block in mapping and mapping[block] != disk:
                    raise ConfigurationError(
                        f"block {block!r} assigned to both disk {mapping[block]} and {disk}"
                    )
                mapping[block] = disk
        if num == 0:
            return cls.single()
        return cls(num, mapping)

    # -- queries ------------------------------------------------------------------

    @property
    def num_disks(self) -> int:
        """Number of disks ``D``."""
        return self._num_disks

    @property
    def mapping(self) -> Dict[BlockId, DiskId]:
        """A copy of the explicit block->disk mapping."""
        return dict(self._mapping)

    def disk_of(self, block: BlockId) -> DiskId:
        """Disk on which ``block`` resides."""
        return self._mapping.get(block, self._default_disk)

    def blocks_on(self, disk: DiskId) -> FrozenSet[BlockId]:
        """Explicitly mapped blocks residing on ``disk``."""
        if not 0 <= disk < self._num_disks:
            raise ConfigurationError(f"disk {disk} outside range(0, {self._num_disks})")
        return self._by_disk[disk]

    def partition(self, blocks: Iterable[BlockId]) -> List[FrozenSet[BlockId]]:
        """Partition ``blocks`` by their disk; entry ``d`` holds disk ``d``'s blocks."""
        parts: List[set] = [set() for _ in range(self._num_disks)]
        for block in blocks:
            parts[self.disk_of(block)].add(block)
        return [frozenset(p) for p in parts]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskLayout):
            return NotImplemented
        return (
            self._num_disks == other._num_disks
            and self._mapping == other._mapping
            and self._default_disk == other._default_disk
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DiskLayout(num_disks={self._num_disks}, |mapping|={len(self._mapping)})"
