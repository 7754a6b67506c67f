"""The shared spec-string grammar: ``name[:key=value,...]`` parsed strictly.

Two registries speak this grammar: the workload registry
(:mod:`repro.workloads.spec`) and the algorithm registry
(:mod:`repro.algorithms.registry`).  Both declare their entries with typed
parameter schemas built from :class:`ParamSpec`; this module owns the pieces
they share so the grammar, the coercion rules and the error wording cannot
drift apart:

* :func:`split_spec` — the grammar-level split of ``name:key=value,...``
  into the name and raw string parameters.  A value may contain ``=`` (the
  split is on the *first* ``=``) but never ``,`` — the separator is not
  escapable, and embedded commas are rejected with a clear error instead of
  truncating the value.
* :class:`ParamSpec` + :func:`coerce_params` — schema-driven coercion.
  Unknown keys, missing required keys and uncoercible values raise
  :class:`~repro.errors.ConfigurationError` naming the offending spec and
  the valid parameters, so a typo can never silently run a different
  experiment.
* :func:`with_params` — purely textual ``key=value`` rewriting used to
  expand one spec over a grid axis (e.g. the runner's seed injection).

Every error message carries a ``role`` ("workload", "algorithm", ...) so
the registries keep their established wording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "REQUIRED",
    "ParamSpec",
    "coerce_bool",
    "choice",
    "split_spec",
    "coerce_params",
    "with_params",
]


#: Sentinel marking a parameter without a default (it must appear in the spec).
REQUIRED = object()


def coerce_bool(text: str) -> bool:
    """Coerce the usual boolean spellings (``1/true/yes/on`` and friends)."""
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    # Coercer protocol: coerce_params converts this into a ConfigurationError
    # that names the spec and parameter.
    raise ValueError(f"not a boolean: {text!r}")


def choice(*options: str) -> Callable[[str], str]:
    """A coercer accepting exactly the given lower-case options.

    The returned callable's ``__name__`` renders as ``a|b|c`` so catalog
    rows and error messages list the valid values.
    """
    allowed = tuple(options)

    def coerce(text: str) -> str:
        lowered = text.strip().lower()
        if lowered not in allowed:
            # Coercer protocol: converted by coerce_params, which attaches
            # the offending spec.
            raise ValueError(f"expected one of {'|'.join(allowed)}, got {text!r}")
        return lowered

    coerce.__name__ = "|".join(allowed)
    return coerce


_TYPE_NAMES: Dict[Callable, str] = {
    int: "int",
    float: "float",
    str: "str",
    coerce_bool: "bool",
}


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of a registry entry: name, coercer, default, help."""

    name: str
    coerce: Callable = int
    default: object = REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES.get(self.coerce, getattr(self.coerce, "__name__", "value"))

    def describe(self) -> str:
        """``name=default (type)`` rendering for the catalogs."""
        if self.required:
            return f"{self.name} ({self.type_name}, required)"
        return f"{self.name}={self.default} ({self.type_name})"


def split_spec(spec: str, *, role: str = "spec") -> Tuple[str, Dict[str, str]]:
    """Split ``name:key=value,...`` into the name and raw string parameters.

    Strict at the grammar level: every item must be ``key=value`` (split on
    the *first* ``=``, so values may contain ``=``), keys must be unique and
    non-empty, and empty items are rejected.  A value can never contain ``,``
    — an item without ``=`` is diagnosed as a likely embedded comma.
    ``role`` names the registry in the error messages.
    """
    name, _, params_text = spec.partition(":")
    name = name.strip().lower()
    if not name:
        raise ConfigurationError(f"{role} spec {spec!r} has an empty {role} name")
    params: Dict[str, str] = {}
    if not params_text.strip():
        return name, params
    for item in params_text.split(","):
        item = item.strip()
        if not item:
            raise ConfigurationError(
                f"{role} spec {spec!r} contains an empty parameter item "
                "(stray or trailing ',')"
            )
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"{role} spec {spec!r}: malformed parameter {item!r} — expected "
                "key=value; note that values cannot contain ',' (the parameter "
                "separator is not escapable)"
            )
        if key in params:
            raise ConfigurationError(
                f"{role} spec {spec!r}: duplicate parameter {key!r}"
            )
        params[key] = value.strip()
    return name, params


def coerce_params(
    name: str,
    schema: Sequence[ParamSpec],
    raw: Mapping[str, str],
    spec: str,
    *,
    role: str = "spec",
) -> Dict[str, object]:
    """Coerce raw string parameters against ``schema``, strictly.

    Unknown keys, missing required keys and uncoercible values raise
    :class:`ConfigurationError` naming ``spec`` and the valid parameters.
    """
    allowed = {p.name: p for p in schema}
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{role} {name!r} in spec {spec!r}: unknown parameter(s) "
            f"{', '.join(repr(k) for k in unknown)}; valid parameters: "
            f"{', '.join(allowed) or '(none)'}"
        )
    coerced: Dict[str, object] = {}
    for param in schema:
        if param.name in raw:
            text = raw[param.name]
            try:
                coerced[param.name] = param.coerce(text)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{role} {name!r} in spec {spec!r}: parameter "
                    f"{param.name}={text!r} is not a valid {param.type_name}: {exc}"
                ) from exc
        elif param.required:
            raise ConfigurationError(
                f"{role} {name!r} in spec {spec!r}: missing required "
                f"parameter {param.name!r}"
            )
        else:
            coerced[param.name] = param.default
    return coerced


def with_params(spec: str, *, role: str = "spec", **overrides: object) -> str:
    """Return ``spec`` with the given ``key=value`` parameters set/overridden.

    Purely textual (the name is not resolved against any registry), but
    grammar-strict: the incoming spec must parse, and override values
    containing ``,`` are rejected — the separator is not escapable, so such
    a value could never round-trip through the parsers.
    """
    name, params = split_spec(spec, role=role)
    for key, value in overrides.items():
        text = str(value)
        if "," in text:
            raise ConfigurationError(
                f"cannot set {key}={text!r} on spec {spec!r}: values cannot "
                "contain ',' (the parameter separator is not escapable)"
            )
        params[key] = text
    if not params:
        return name
    joined = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{name}:{joined}"
