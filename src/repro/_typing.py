"""Shared type aliases used across the :mod:`repro` package."""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = ["BlockId", "DiskId", "BlockSeq", "INFINITY"]

#: Identifier of a memory block.  Blocks are plain hashable values (strings
#: such as ``"b1"`` or integers); the library never inspects their structure.
BlockId = Hashable

#: Identifier of a disk.  Disks are numbered ``0 .. D-1``.
DiskId = int

#: A request sequence expressed as raw block identifiers.
BlockSeq = Sequence[BlockId]

#: Sentinel used for "never referenced again".  Using a large integer rather
#: than ``math.inf`` keeps every quantity in the library integral, which is
#: what the paper's time model assumes.
INFINITY: int = 10**18
