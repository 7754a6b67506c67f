"""The Combination algorithm (Corollary 2 of the paper).

Combination inspects the instance parameters and runs whichever of the two
strategies has the smaller *proven* bound:

* ``Delay(d0)`` with the Corollary 1 parameter ``d0 = ceil((sqrt(3)-1)F/2)``
  whose ratio tends to √3, or
* the standard Aggressive strategy, whose Theorem 1 ratio
  ``1 + F/(k + ceil(k/F) - 1)`` is better whenever the cache is large relative
  to the fetch time.

The resulting approximation guarantee is
``min{1 + F/(k + ceil(k/F) - 1), ratio(Delay(d0))}`` — strictly better than
both Aggressive and Conservative over the whole parameter range.

Both components are configurable (``combination:d=3``,
``combination:alt=demand:evict=lru``): ``d`` overrides the Corollary 1 delay
parameter and ``delay``/``alt`` replace the branch algorithms by registry
spec (any comma-free spec string).  The bound comparison always uses the
Theorem 3 value of the effective ``d`` against the Theorem 1 value, so a
custom component changes what *runs*, not which side is *selected* — the
selection rule is the paper's.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bounds import aggressive_bound_refined, best_delay_parameter, delay_bound
from ..disksim.executor import FetchDecision, PolicyView
from ..disksim.instance import ProblemInstance
from .aggressive import Aggressive
from .base import PrefetchAlgorithm
from .delay import Delay

__all__ = ["Combination"]


class Combination(PrefetchAlgorithm):
    """Run Delay(d0) or Aggressive, whichever has the smaller proven bound.

    Parameters
    ----------
    d:
        Override of the Corollary 1 delay parameter (default: ``d0``
        computed from the instance's fetch time at reset).
    delay:
        Registry spec replacing the delay-side component (default:
        ``Delay(d)``).
    alt:
        Registry spec replacing the Aggressive-side component (default:
        ``Aggressive()``).
    """

    name = "combination"

    def __init__(
        self,
        d: Optional[int] = None,
        delay: Optional[str] = None,
        alt: Optional[str] = None,
    ) -> None:
        super().__init__()
        if d is not None and d < 0:
            raise ValueError(f"Combination delay parameter d must be non-negative, got {d}")
        self.d = d
        self.delay_spec = delay
        self.alt_spec = alt
        self._delegate: Optional[PrefetchAlgorithm] = None
        # Validate component specs eagerly (building is cheap and recurses
        # into nested combinations) so a bad spec fails at construction, not
        # mid-sweep inside whichever instance happens to select that branch.
        for nested in (delay, alt):
            if nested is not None:
                from .registry import make_algorithm

                make_algorithm(nested)

    @staticmethod
    def select_for(instance: ProblemInstance) -> PrefetchAlgorithm:
        """The concrete strategy the default Combination uses on ``instance``."""
        return Combination()._select(instance)

    def _select(self, instance: ProblemInstance) -> PrefetchAlgorithm:
        """The component this (possibly customised) Combination runs."""
        k, fetch_time = instance.cache_size, instance.fetch_time
        d_effective = self.d if self.d is not None else best_delay_parameter(fetch_time)
        if delay_bound(d_effective, fetch_time) < aggressive_bound_refined(k, fetch_time):
            if self.delay_spec is not None:
                from .registry import make_algorithm

                return make_algorithm(self.delay_spec)
            return Delay(d_effective)
        if self.alt_spec is not None:
            from .registry import make_algorithm

            return make_algorithm(self.alt_spec)
        return Aggressive()

    @property
    def chosen(self) -> Optional[PrefetchAlgorithm]:
        """The delegate chosen for the current run (None before ``reset``)."""
        return self._delegate

    def on_reset(self, instance: ProblemInstance) -> None:
        self._delegate = self._select(instance)
        self._delegate.reset(instance)
        self.name = f"combination[{self._delegate.name}]"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        assert self._delegate is not None, "reset() must run before decide()"
        return self._delegate.decide(view)
