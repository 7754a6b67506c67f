"""Integrated prefetching/caching algorithms.

Single disk (Section 2 of the paper): :class:`Aggressive`,
:class:`Conservative`, the new :class:`Delay` family and :class:`Combination`.
Aggressive is ``Delay(0)``, as the paper defines it, and Combination runs one
member of that family, so the family's one rule serves all three.
Parallel disks: :class:`ParallelAggressive` and :class:`ParallelConservative`
(the Kimbrel–Karlin style baselines the Section 3 LP algorithm is compared
against).  :class:`DemandFetch` is the no-prefetching baseline: it leaves every
fetch to the engine's forced demand fetch, whose victims are MIN's.  Delay's
``d`` is the only parameter an algorithm takes.
"""

from .base import PrefetchAlgorithm
from .combination import Combination
from .conservative import Conservative
from .delay import Aggressive, Delay
from .demand import DemandFetch
from .parallel_aggressive import ParallelAggressive, ParallelConservative
from .registry import ALGORITHM_REGISTRY, make_algorithm

__all__ = [
    "PrefetchAlgorithm",
    "Aggressive",
    "Conservative",
    "Delay",
    "Combination",
    "DemandFetch",
    "ParallelAggressive",
    "ParallelConservative",
    "ALGORITHM_REGISTRY",
    "make_algorithm",
]
