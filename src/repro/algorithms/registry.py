"""The algorithm registry: strict parsing of algorithm descriptions.

The CLI, the sweep harness and the benchmarks refer to algorithms by spec
strings with the same grammar as workload specs
(``name[:key=value,...]`` — see :mod:`repro.specs`): ``aggressive``,
``delay:d=3``, ``combination``.  The registry carries the paper's strategies
and their one free parameter, Delay's ``d``; every other entry is its bare
name.  Every algorithm is an entry of :data:`ALGORITHM_REGISTRY`, a
:class:`~repro.specs.Registry` whose typed parameter schemas make parsing
strict by construction: unknown keys, duplicate keys, malformed items and
uncoercible values raise :class:`~repro.errors.ConfigurationError` naming
the spec and the algorithm's valid parameters.  A spec string is the
portable algorithm identity the experiment runner pickles to worker
processes and records in run results.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..specs import ParamSpec, Registry
from .base import PrefetchAlgorithm
from .combination import Combination
from .conservative import Conservative
from .delay import Aggressive, Delay
from .demand import DemandFetch
from .parallel_aggressive import ParallelAggressive, ParallelConservative

__all__ = ["ALGORITHM_REGISTRY", "make_algorithm"]


ALGORITHM_REGISTRY = Registry("algorithm")

ALGORITHM_REGISTRY.add(
    "demand",
    "No prefetching: fetch each block when needed, stall F per fault",
    DemandFetch,
    kind="baseline", example="demand",
)

ALGORITHM_REGISTRY.add(
    "aggressive",
    "Start the next prefetch as soon as a safe victim exists (Cao et al.)",
    Aggressive,
    kind="single-disk", example="aggressive",
)

ALGORITHM_REGISTRY.add(
    "conservative",
    "MIN's replacements, each fetch started as early as the victim allows",
    Conservative,
    kind="single-disk", example="conservative",
)

ALGORITHM_REGISTRY.add(
    "delay",
    "Delay(d): judge the victim up to d requests ahead (the paper's family)",
    Delay,
    [
        ParamSpec("d", int, help="delay parameter; 0 = Aggressive, n = Conservative"),
    ],
    kind="single-disk", example="delay:d=3",
)

ALGORITHM_REGISTRY.add(
    "combination",
    "Run Delay(d0) or Aggressive, whichever has the smaller proven bound",
    Combination,
    kind="single-disk", example="combination",
)

ALGORITHM_REGISTRY.add(
    "parallel-aggressive",
    "Aggressive prefetching independently on every idle disk (Kimbrel–Karlin)",
    ParallelAggressive,
    kind="parallel", example="parallel-aggressive",
)

ALGORITHM_REGISTRY.add(
    "parallel-conservative",
    "MIN's replacements executed concurrently, one fetch queue per disk",
    ParallelConservative,
    kind="parallel", example="parallel-conservative",
)


def make_algorithm(spec: str) -> PrefetchAlgorithm:
    """Instantiate an algorithm from its spec string.

    ``spec`` is ``name[:key=value,...]`` against the registry's schemas,
    e.g. ``"aggressive"``, ``"delay:d=3"``, ``"demand"``.  The
    factory's own validation errors become :class:`ConfigurationError`
    naming the spec.  Every call constructs a new object (algorithms carry
    per-run state); the stripped spec is recorded on it
    (``algorithm.spec``) as its portable identity.
    """
    entry, _raw, params = ALGORITHM_REGISTRY.parse(spec)
    try:
        algorithm: PrefetchAlgorithm = entry.build(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"algorithm {entry.name!r} in spec {spec!r}: {exc}") from exc
    algorithm.spec = spec.strip()
    return algorithm
