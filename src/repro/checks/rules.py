"""The three determinism rules: no hidden RNG state, no wall clocks, ordered fingerprints.

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

Each rule maps one parsed module to ``(node, message)`` pairs;
:data:`RULES` binds them to their rule ids and scopes.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["RULES", "check_rng", "check_clock", "check_fingerprint_order"]

#: One finding before the harness attaches path and rule id.
Hit = Tuple[ast.AST, str]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _annotation_allows_none(annotation: Optional[ast.AST]) -> bool:
    """Whether an annotation names ``Optional[...]`` / ``... | None`` / ``None``."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and annotation.value is None:
        return True
    if isinstance(annotation, ast.Subscript):
        base = _dotted_name(annotation.value)
        return base in ("Optional", "typing.Optional") or (
            base in ("Union", "typing.Union")
            and any(
                _annotation_allows_none(elt)
                for elt in (
                    annotation.slice.elts
                    if isinstance(annotation.slice, ast.Tuple)
                    else [annotation.slice]
                )
            )
        )
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_allows_none(annotation.left) or _annotation_allows_none(
            annotation.right
        )
    if isinstance(annotation, ast.Name):
        return annotation.id == "None"
    return False


def _maybe_none_params(
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda",
) -> Dict[str, bool]:
    """Parameter name -> "may be None" (Optional annotation or None default)."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaults: List[Optional[ast.AST]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    result: Dict[str, bool] = {}
    for arg, default in zip(positional, defaults):
        none_default = isinstance(default, ast.Constant) and default.value is None
        result[arg.arg] = none_default or _annotation_allows_none(arg.annotation)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        none_default = isinstance(kw_default, ast.Constant) and kw_default.value is None
        result[arg.arg] = none_default or _annotation_allows_none(arg.annotation)
    return result


# ---------------------------------------------------------------------------------
# determinism-rng
# ---------------------------------------------------------------------------------

#: numpy.random attributes that construct *explicit* generator objects
#: (safe when given a seed) rather than touching the global state.
_NUMPY_GENERATOR_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Call names that build a generator and therefore need a non-None seed.
_SEEDED_CONSTRUCTORS = frozenset({"default_rng", "Random", "RandomState"})


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
            params = {**params, **_maybe_none_params(node)}
        for child in ast.iter_child_nodes(node):
            scopes[id(child)] = params
            walk(child, params)

    scopes[id(tree)] = {}
    walk(tree, {})
    return scopes


def check_rng(tree: ast.Module) -> Iterator[Hit]:
    """Kernel/workload code threads explicit seeded generators.

    Flags ``random.*`` and ``numpy.random.*`` module-state calls and any
    ``default_rng()``/``Random()`` that is unseeded or seeded from a
    possibly-None parameter.
    """
    numpy_names = _numpy_aliases(tree)
    scopes = _function_param_stacks(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = [n.name for n in node.names if n.name not in ("Random", "SystemRandom")]
            if bad:
                yield node, (
                    f"'from random import {', '.join(bad)}' binds module-level "
                    "RNG state; construct an explicit seeded random.Random "
                    "and thread it through instead"
                )
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        # random.<fn>(...) — global Mersenne Twister state.
        if parts[0] == "random" and len(parts) == 2 and parts[1] not in (
            "Random",
            "SystemRandom",
        ):
            yield node, (
                f"{name}() uses the module-level random state; thread an "
                "explicit seeded random.Random through this code path"
            )
            continue
        # numpy.random.<fn>(...) — global legacy RandomState.
        if (
            len(parts) >= 3
            and parts[0] in numpy_names
            and parts[-2] == "random"
            and parts[-1] not in _NUMPY_GENERATOR_FACTORIES
        ):
            yield node, (
                f"{name}() uses numpy's module-level random state; construct "
                "an explicit numpy.random.default_rng(seed) instead"
            )
            continue
        # Generator construction must receive a definitely-non-None seed.
        if parts[-1] in _SEEDED_CONSTRUCTORS:
            yield from _check_seed_argument(node, name, scopes)


def _check_seed_argument(
    node: ast.Call, name: str, scopes: Dict[int, Dict[str, bool]]
) -> Iterator[Hit]:
    """Flag ``default_rng()``/``Random()`` calls whose seed may be None."""
    if not node.args and not node.keywords:
        yield node, (
            f"{name}() without a seed is entropy-seeded and nondeterministic; "
            "pass an explicit integer seed"
        )
        return
    seed = node.args[0] if node.args else node.keywords[0].value
    if isinstance(seed, ast.Constant) and seed.value is None:
        yield node, f"{name}(None) is entropy-seeded; pass an integer seed"
        return
    if isinstance(seed, ast.Name) and scopes.get(id(node), {}).get(seed.id, False):
        yield node, (
            f"{name}({seed.id}) may be unseeded: parameter {seed.id!r} "
            "is Optional/defaults to None — require an integer seed"
        )


# ---------------------------------------------------------------------------------
# determinism-clock
# ---------------------------------------------------------------------------------

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


def check_clock(tree: ast.Module) -> Iterator[Hit]:
    """Kernel code reads no wall clock; ``perf_counter`` timing metadata is exempt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if name in _CLOCK_CALLS:
                yield node, (
                    f"{name}() reads the wall clock inside kernel code; pass "
                    "timestamps in from the caller (timing metadata may use "
                    "time.perf_counter)"
                )


# ---------------------------------------------------------------------------------
# fingerprint-order
# ---------------------------------------------------------------------------------

#: Function names that compute identities: their outputs are cache keys, so
#: everything they iterate must have a defined order.
_FINGERPRINT_FUNCTION = re.compile(r"fingerprint|canonical_payload|cache_key|sweep_key")

#: Builtins whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "Counter"}
)


def check_fingerprint_order(tree: ast.Module) -> Iterator[Hit]:
    """Fingerprint/cache-key functions never depend on unordered iteration.

    Inside a function named like ``fingerprint``/``canonical_payload``/
    ``cache_key``/``sweep_key``: no set iteration outside ``sorted()``, no
    builtin ``hash()`` (PYTHONHASHSEED-salted), no ``json.dumps`` without
    ``sort_keys=True``.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _FINGERPRINT_FUNCTION.search(node.name):
                yield from _check_fingerprint_function(node)


def _check_fingerprint_function(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[Hit]:
    """Flag unordered iteration, hash() and unsorted json.dumps in one function."""
    order_safe = _order_safe_node_ids(func)
    for node in ast.walk(func):
        if isinstance(node, ast.For) and _is_unordered(node.iter):
            yield node, (
                f"{func.name}() iterates an unordered set; wrap the iterable "
                "in sorted() so the fingerprint is stable"
            )
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            if id(node) not in order_safe and any(
                _is_unordered(gen.iter) for gen in node.generators
            ):
                yield node, (
                    f"{func.name}() builds an ordered value from an unordered "
                    "set; wrap the comprehension (or its source) in sorted()"
                )
        elif isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if name == "hash":
                yield node, (
                    f"{func.name}() uses builtin hash(), which is salted per "
                    "process (PYTHONHASHSEED); use hashlib instead"
                )
            elif name is not None and name.split(".")[-1] == "dumps":
                if not any(
                    kw.arg == "sort_keys"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    yield node, (
                        f"{func.name}() serialises JSON without sort_keys=True; "
                        "dict insertion order would become the cache key"
                    )


def _is_unordered(node: ast.AST) -> bool:
    """Whether an iterable expression is statically known to be a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted_name(node.func) in ("set", "frozenset")
    return False


def _order_safe_node_ids(func: ast.AST) -> Set[int]:
    """Ids of comprehensions fed directly into order-insensitive builtins."""
    safe: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _dotted_name(node.func) in _ORDER_INSENSITIVE:
            safe.update(id(arg) for arg in node.args)
    return safe


#: Every rule ``repro check`` runs, as ``(rule id, scope, check)``.  ``scope``
#: holds the package-relative path prefixes the rule applies to; the empty
#: tuple means the whole package.
RULES: Tuple[Tuple[str, Tuple[str, ...], Callable[[ast.Module], Iterator[Hit]]], ...] = (
    ("determinism-rng", ("disksim/", "algorithms/", "lp/", "workloads/", "core/"), check_rng),
    ("determinism-clock", ("disksim/", "algorithms/", "lp/", "core/"), check_clock),
    ("fingerprint-order", (), check_fingerprint_order),
)
