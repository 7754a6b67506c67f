"""Spec strings and their registries: ``name[:key=value,...]`` parsed strictly.

Every object the experiments name — a workload generator, a prefetching
algorithm — is addressed by a spec string.  This module owns the grammar,
the coercion rules, the error wording and the registry type, so the two
registries built on it (:data:`~repro.workloads.spec.WORKLOAD_REGISTRY` and
:data:`~repro.algorithms.registry.ALGORITHM_REGISTRY`) cannot drift apart:

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
* :class:`SpecEntry` + :class:`Registry` — a registered name with its
  summary, build callable, parameter schema, kind and example, and the
  name → entry mapping that adds entries, looks names up strictly, parses
  specs and renders the catalogs (``repro workloads`` / ``repro
  algorithms``, ``docs/reference.md``).

Every error message carries a ``role`` ("workload", "algorithm", ...) so
each registry keeps its own wording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "REQUIRED",
    "ParamSpec",
    "coerce_bool",
    "split_spec",
    "coerce_params",
    "with_params",
    "SpecEntry",
    "Registry",
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


def with_params(spec: str, **overrides: object) -> str:
    """Return ``spec`` with the given ``key=value`` parameters set/overridden.

    Purely textual (the name is not resolved against any registry), but
    grammar-strict: the incoming spec must parse, and override values
    containing ``,`` are rejected — the separator is not escapable, so such
    a value could never round-trip through the parsers.
    """
    name, params = split_spec(spec)
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


@dataclass(frozen=True)
class SpecEntry:
    """One registered spec name: summary, build callable, schema, kind, example.

    ``build`` takes the coerced parameters as keyword arguments.  ``kind``
    groups the entries of one registry in the catalogs (a workload's
    ``sequence``/``instance``, an algorithm's ``single-disk``/``parallel``/
    ``baseline``); ``example`` is a spec that parses.
    """

    name: str
    summary: str
    build: Callable[..., Any]
    params: Tuple[ParamSpec, ...]
    kind: str
    example: str

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)


class Registry(Mapping[str, SpecEntry]):
    """The spec names of one ``role`` ("workload", "algorithm"): name → entry.

    A read-only mapping whose only way in is :meth:`add`, which rejects a
    taken name or a repeated parameter, so a registration can never shadow
    another by accident.
    """

    def __init__(self, role: str) -> None:
        self.role = role
        self._entries: Dict[str, SpecEntry] = {}

    def __getitem__(self, name: str) -> SpecEntry:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        name: str,
        summary: str,
        build: Callable[..., Any],
        params: Sequence[ParamSpec] = (),
        *,
        kind: str,
        example: str,
    ) -> SpecEntry:
        """Register ``build`` under ``name`` with its parameter schema."""
        if name in self._entries:
            raise ConfigurationError(f"{self.role} {name!r} is already registered")
        names = [p.name for p in params]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"{self.role} {name!r} declares duplicate parameters")
        entry = SpecEntry(name, summary, build, tuple(params), kind, example)
        self._entries[name] = entry
        return entry

    def lookup(self, name: str, spec: Optional[str] = None) -> SpecEntry:
        """The entry registered under ``name``; an unknown name lists the catalog."""
        entry = self._entries.get(name.strip().lower())
        if entry is None:
            shown = spec if spec is not None else name
            raise ConfigurationError(
                f"unknown {self.role} {name!r} in spec {shown!r}; available: "
                f"{', '.join(sorted(self._entries))}"
            )
        return entry

    def parse(self, spec: str) -> Tuple[SpecEntry, Dict[str, str], Dict[str, object]]:
        """Resolve ``spec`` to its entry, raw parameters and coerced parameters."""
        name, raw = split_spec(spec, role=self.role)
        entry = self.lookup(name, spec)
        return entry, raw, coerce_params(entry.name, entry.params, raw, spec, role=self.role)

    def accepts(self, spec: str, param_name: str) -> bool:
        """Whether the entry named by ``spec`` takes parameter ``param_name``.

        Lets the runner rewrite ``seed`` only into workloads that take a
        seed: strict parsing rejects an injected key the entry does not know.
        """
        name, _ = split_spec(spec, role=self.role)
        return param_name in self.lookup(name, spec).param_names

    def catalog_rows(self) -> List[Dict[str, str]]:
        """One row per entry, sorted by name: name, kind, summary, params, example."""
        rows: List[Dict[str, str]] = []
        for name in sorted(self._entries):
            entry = self._entries[name]
            rows.append(
                {
                    "name": name,
                    "kind": entry.kind,
                    "summary": entry.summary,
                    "params": ", ".join(p.describe() for p in entry.params) or "(none)",
                    "example": entry.example,
                }
            )
        return rows

    def catalog_text(self, name: Optional[str] = None) -> str:
        """The human-readable catalog, or one entry with per-parameter help."""
        if name is not None:
            entry = self.lookup(name)
            lines = [f"{entry.name} ({entry.kind}) — {entry.summary}"]
            if entry.params:
                lines.append("  parameters:")
                for p in entry.params:
                    default = "required" if p.required else f"default {p.default}"
                    help_text = f" — {p.help}" if p.help else ""
                    lines.append(f"    {p.name} ({p.type_name}, {default}){help_text}")
            else:
                lines.append("  parameters: (none)")
            lines.append(f"  example: {entry.example}")
            return "\n".join(lines)

        lines = [f"{self.role} catalog ({len(self)} {self.role}s)", ""]
        for row in self.catalog_rows():
            lines.append(f"{row['name']} ({row['kind']}) — {row['summary']}")
            lines.append(f"  params:  {row['params']}")
            lines.append(f"  example: {row['example']}")
            lines.append("")
        lines.append("spec grammar: name[:key=value,...] — values may contain '=', never ','")
        return "\n".join(lines)
