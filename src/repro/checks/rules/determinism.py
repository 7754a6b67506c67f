"""Determinism rules: no hidden RNG state, no wall clocks, ordered fingerprints.

The repository's load-bearing guarantees — byte-identical serial/parallel
JSON, zero-resolve warmed reruns, content-addressed caching — all reduce to
one property: *everything that influences a result is an explicit input*.
These rules prove the three ways that property classically rots, at the AST
level:

* ``determinism-rng`` — module-level RNG state (``random.random()``,
  ``numpy.random.rand()``) and unseeded or possibly-``None``-seeded
  generator construction (``default_rng()``, ``default_rng(seed)`` where
  ``seed`` may be ``None``) inside kernel and workload code.
* ``determinism-clock`` — wall-clock reads (``time.time()``,
  ``datetime.now()``) inside kernel code; ``time.perf_counter()`` stays
  legal because solve/benchmark *timing metadata* is not part of any
  result identity.
* ``fingerprint-order`` — iteration over unordered sets, salted builtin
  ``hash()`` and unsorted ``json.dumps`` inside fingerprint/cache-key
  functions, where iteration order becomes the cache key.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set

from ..astutil import dotted_name, maybe_none_params
from ..base import Checker, ModuleUnderCheck, register_checker
from ..findings import Finding

__all__ = [
    "UnseededRandomChecker",
    "WallClockChecker",
    "FingerprintOrderChecker",
]

#: numpy.random attributes that construct *explicit* generator objects
#: (safe when given a seed) rather than touching the global state.
_NUMPY_GENERATOR_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Call names that build a generator and therefore need a non-None seed.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "Random", "SystemRandom", "RandomState"}
)


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy module (``numpy``, ``np``, ...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _function_param_stacks(tree: ast.Module) -> Dict[int, Dict[str, bool]]:
    """Node id -> merged "param may be None" map of its enclosing functions."""
    scopes: Dict[int, Dict[str, bool]] = {}

    def walk(node: ast.AST, params: Dict[str, bool]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = {**params, **maybe_none_params(node)}
        for child in ast.iter_child_nodes(node):
            scopes[id(child)] = params
            walk(child, params)

    scopes[id(tree)] = {}
    walk(tree, {})
    return scopes


@register_checker
class UnseededRandomChecker(Checker):
    """No module-level RNG state and no possibly-unseeded generators."""

    rule_id = "determinism-rng"
    description = (
        "kernel/workload code must thread explicit seeded generators: no "
        "random.* or numpy.random.* module-state calls, no default_rng()/"
        "Random() that is unseeded or seeded from a possibly-None parameter"
    )
    scope = ("disksim/", "algorithms/", "lp/", "workloads/", "core/")

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        """Flag global-state RNG calls and unseeded generator construction."""
        numpy_names = _numpy_aliases(module.tree)
        scopes = _function_param_stacks(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [n.name for n in node.names if n.name not in ("Random", "SystemRandom")]
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"'from random import {', '.join(bad)}' binds module-level "
                        "RNG state; construct an explicit seeded random.Random "
                        "and thread it through instead",
                    )
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            # random.<fn>(...) — global Mersenne Twister state.
            if parts[0] == "random" and len(parts) == 2 and parts[1] not in (
                "Random",
                "SystemRandom",
            ):
                yield self.finding(
                    module,
                    node,
                    f"{name}() uses the module-level random state; thread an "
                    "explicit seeded random.Random through this code path",
                )
                continue
            # numpy.random.<fn>(...) — global legacy RandomState.
            if (
                len(parts) >= 3
                and parts[0] in numpy_names
                and parts[-2] == "random"
                and parts[-1] not in _NUMPY_GENERATOR_FACTORIES
            ):
                yield self.finding(
                    module,
                    node,
                    f"{name}() uses numpy's module-level random state; construct "
                    "an explicit numpy.random.default_rng(seed) instead",
                )
                continue
            # Generator construction must receive a definitely-non-None seed.
            if parts[-1] in _SEEDED_CONSTRUCTORS and parts[-1] != "SystemRandom":
                yield from self._check_seed_argument(module, node, name, scopes)

    def _check_seed_argument(
        self,
        module: ModuleUnderCheck,
        node: ast.Call,
        name: str,
        scopes: Dict[int, Dict[str, bool]],
    ) -> Iterator[Finding]:
        """Flag ``default_rng()``/``Random()`` calls whose seed may be None."""
        if not node.args and not node.keywords:
            yield self.finding(
                module,
                node,
                f"{name}() without a seed is entropy-seeded and nondeterministic; "
                "pass an explicit integer seed",
            )
            return
        seed = node.args[0] if node.args else node.keywords[0].value
        if isinstance(seed, ast.Constant) and seed.value is None:
            yield self.finding(
                module, node, f"{name}(None) is entropy-seeded; pass an integer seed"
            )
            return
        if isinstance(seed, ast.Name):
            params = scopes.get(id(node), {})
            if params.get(seed.id, False):
                yield self.finding(
                    module,
                    node,
                    f"{name}({seed.id}) may be unseeded: parameter {seed.id!r} "
                    "is Optional/defaults to None — require an integer seed",
                )


@register_checker
class WallClockChecker(Checker):
    """No wall-clock reads inside kernel code paths."""

    rule_id = "determinism-clock"
    description = (
        "simulation/algorithm/LP kernel code must not read wall clocks "
        "(time.time, datetime.now); perf_counter timing metadata is exempt"
    )
    scope = ("disksim/", "algorithms/", "lp/", "core/")

    #: Dotted call names that read the wall clock.
    _CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "date.today",
            "datetime.date.today",
        }
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        """Flag calls whose dotted target is a known wall-clock read."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._CLOCK_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() reads the wall clock inside kernel code; pass "
                        "timestamps in from the caller (timing metadata may use "
                        "time.perf_counter)",
                    )


#: Function names that compute identities: their outputs are cache keys, so
#: everything they iterate must have a defined order.
_FINGERPRINT_FUNCTION = re.compile(r"fingerprint|canonical_payload|cache_key|sweep_key")

#: Builtins whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "Counter"}
)


@register_checker
class FingerprintOrderChecker(Checker):
    """Fingerprinting code must never depend on unordered iteration."""

    rule_id = "fingerprint-order"
    description = (
        "fingerprint/cache-key functions must not iterate sets outside "
        "sorted(), call builtin hash() (PYTHONHASHSEED-salted), or "
        "json.dumps without sort_keys=True"
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        """Check every fingerprint-shaped function in the module."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _FINGERPRINT_FUNCTION.search(node.name):
                    yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleUnderCheck, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        """Flag unordered iteration, hash() and unsorted json.dumps in one fn."""
        order_safe = self._order_safe_node_ids(func)
        for node in ast.walk(func):
            if isinstance(node, ast.For) and self._is_unordered(node.iter):
                yield self.finding(
                    module,
                    node,
                    f"{func.name}() iterates an unordered set; wrap the iterable "
                    "in sorted() so the fingerprint is stable",
                )
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
                if id(node) not in order_safe and any(
                    self._is_unordered(gen.iter) for gen in node.generators
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{func.name}() builds an ordered value from an unordered "
                        "set; wrap the comprehension (or its source) in sorted()",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "hash":
                    yield self.finding(
                        module,
                        node,
                        f"{func.name}() uses builtin hash(), which is salted per "
                        "process (PYTHONHASHSEED); use hashlib instead",
                    )
                elif name is not None and name.split(".")[-1] == "dumps":
                    if not any(
                        kw.arg == "sort_keys"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in node.keywords
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{func.name}() serialises JSON without sort_keys=True; "
                            "dict insertion order would become the cache key",
                        )

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        """Whether an iterable expression is statically known to be a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("set", "frozenset")
        return False

    @staticmethod
    def _order_safe_node_ids(func: ast.AST) -> Set[int]:
        """Ids of comprehensions fed directly into order-insensitive builtins."""
        safe: Set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _ORDER_INSENSITIVE:
                    for arg in node.args:
                        safe.add(id(arg))
        return safe
