"""Base class and shared helpers for integrated prefetching/caching algorithms.

Every algorithm in this package implements the
:class:`~repro.disksim.executor.PrefetchPolicy` protocol: the simulation
engine calls ``decide`` at each decision point and the algorithm returns the
fetches to initiate.  :class:`PrefetchAlgorithm` provides the boilerplate
(instance bookkeeping, the single-disk guard, the disk-0 decision) so
that the individual algorithms read close to their description in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from .._typing import BlockId
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from ..errors import ConfigurationError

__all__ = ["PrefetchAlgorithm"]


class PrefetchAlgorithm(ABC):
    """Common base class of all prefetching/caching algorithms.

    Subclasses implement :meth:`decide`; :meth:`on_reset` is an optional hook
    for per-run precomputation (Conservative uses it to replay MIN).
    """

    #: Human-readable algorithm name used in result tables.
    name: str = "prefetch-algorithm"

    #: The registry spec string this object was built from (set by
    #: :func:`repro.algorithms.registry.make_algorithm`); ``None`` for
    #: directly constructed objects.  Run records carry it as the portable
    #: algorithm identity.
    spec: Optional[str] = None

    #: Whether the algorithm only schedules disk 0 (the paper's Section 2
    #: strategies); :meth:`reset` rejects a multi-disk instance for these.
    single_disk: bool = False

    def __init__(self) -> None:
        self._instance: Optional[ProblemInstance] = None

    # -- PrefetchPolicy protocol -----------------------------------------------------

    def reset(self, instance: ProblemInstance) -> None:
        """Store the instance and run the subclass precomputation hook."""
        if self.single_disk and instance.num_disks > 1:
            raise ConfigurationError(
                f"{self.name} is a single-disk algorithm but the instance has "
                f"{instance.num_disks} disks; use parallel-aggressive or "
                "parallel-conservative"
            )
        self._instance = instance
        self.on_reset(instance)

    def on_reset(self, instance: ProblemInstance) -> None:
        """Per-run precomputation hook (default: nothing)."""

    @abstractmethod
    def decide(self, view: PolicyView) -> List[FetchDecision]:
        """Fetches to initiate at this decision point."""

    # -- conveniences ------------------------------------------------------------------

    @property
    def instance(self) -> ProblemInstance:
        """The instance of the current run (valid after ``reset``)."""
        if self._instance is None:
            raise RuntimeError(f"{self.name}: reset() has not been called")
        return self._instance

    # -- shared building blocks --------------------------------------------------------

    @staticmethod
    def single_disk_decision(block: BlockId, victim: Optional[BlockId]) -> List[FetchDecision]:
        """Wrap a single-disk fetch decision (disk 0) in the list the engine expects."""
        return [FetchDecision(disk=0, block=block, victim=victim)]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}(name={self.name!r})"
