"""The Combination algorithm (Corollary 2 of the paper).

Combination inspects the instance parameters and runs whichever of the two
strategies has the smaller *proven* bound:

* ``Delay(d0)`` with the Corollary 1 parameter ``d0 = ceil((sqrt(3)-1)F/2)``
  whose ratio tends to √3, or
* the standard Aggressive strategy (``Delay(0)``), whose Theorem 1 ratio
  ``1 + F/(k + ceil(k/F) - 1)`` is better whenever the cache is large relative
  to the fetch time.

Either way Combination runs a member of the Delay family, so the vector
kernel runs it as the ``Delay(d)`` that :meth:`Combination.select_for` picks.

The resulting approximation guarantee is
``min{1 + F/(k + ceil(k/F) - 1), ratio(Delay(d0))}`` — strictly better than
both Aggressive and Conservative over the whole parameter range.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bounds import aggressive_bound_refined, best_delay_parameter, delay_bound
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from .base import PrefetchAlgorithm
from .delay import Aggressive, Delay

__all__ = ["Combination"]


class Combination(PrefetchAlgorithm):
    """Run Delay(d0) or Aggressive, whichever has the smaller proven bound."""

    name = "combination"
    single_disk = True

    def __init__(self) -> None:
        super().__init__()
        self._delegate: Optional[PrefetchAlgorithm] = None

    @staticmethod
    def select_for(instance: ProblemInstance) -> PrefetchAlgorithm:
        """The strategy Combination runs on ``instance`` (Corollary 2's rule)."""
        k, fetch_time = instance.cache_size, instance.fetch_time
        d0 = best_delay_parameter(fetch_time)
        if delay_bound(d0, fetch_time) < aggressive_bound_refined(k, fetch_time):
            return Delay(d0)
        return Aggressive()

    @property
    def chosen(self) -> Optional[PrefetchAlgorithm]:
        """The delegate chosen for the current run (None before ``reset``)."""
        return self._delegate

    def on_reset(self, instance: ProblemInstance) -> None:
        self._delegate = self.select_for(instance)
        self._delegate.reset(instance)
        self.name = f"combination[{self._delegate.name}]"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        assert self._delegate is not None, "reset() must run before decide()"
        return self._delegate.decide(view)
