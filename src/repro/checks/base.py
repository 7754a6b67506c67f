"""The checker framework: parsed modules, the ``Checker`` contract, the registry.

A *checker* is one named rule over the package's ASTs.  Two shapes exist:

* :class:`Checker` — per-module: ``check(module)`` receives one parsed
  :class:`ModuleUnderCheck` at a time and yields findings for it.  Most
  rules (unseeded RNG, wall clocks, float equality, error discipline) are
  local properties of one file.
* :class:`ProjectChecker` — cross-module: ``check_project(modules)``
  receives every parsed module of the run at once, for invariants that
  only exist *between* files (registry declarations versus the factory
  definitions they call).

Rules register themselves with :func:`register_checker`; the run harness
(:mod:`repro.checks.runner`) instantiates every registered rule that the
:class:`~repro.checks.config.CheckConfig` enables.  Findings a rule emits
on a line carrying an inline ``# repro: allow(<rule-id>)`` pragma are
suppressed at collection time — the pragma is the reviewed, in-source way
to mark an intentional exception (the committed baseline is for
grandfathered debt instead).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Type

from .findings import Finding

__all__ = [
    "ModuleUnderCheck",
    "parse_module",
    "Checker",
    "ProjectChecker",
    "CHECKER_REGISTRY",
    "register_checker",
    "all_checkers",
]


#: Inline suppression pragma: ``# repro: allow(rule-id)`` (several rules
#: may be listed comma-separated).  Applies to findings on its own line.
_ALLOW_PRAGMA = re.compile(r"#\s*repro:\s*allow\(([a-z0-9_,\s-]+)\)")


@dataclass(frozen=True)
class ModuleUnderCheck:
    """One parsed source file, as the checkers see it.

    ``pkgpath`` is the path relative to the ``repro`` package root in posix
    form (``disksim/vector.py``) — the coordinate every rule scopes on and
    every finding reports.  ``path`` keeps the real filesystem location.
    """

    path: Path
    pkgpath: str
    source: str
    tree: ast.Module
    #: rule ids allowed per line number via ``# repro: allow(...)`` pragmas.
    allowed: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a pragma allows ``rule`` at ``line``.

        A pragma suppresses findings on its own line and on the line
        directly below it, so the justification can live in a comment line
        above the flagged statement.
        """
        return rule in self.allowed.get(line, frozenset()) or rule in self.allowed.get(
            line - 1, frozenset()
        )


def _allow_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids an inline pragma allows on that line."""
    allowed: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_PRAGMA.search(text)
        if match:
            rules = frozenset(
                item.strip() for item in match.group(1).split(",") if item.strip()
            )
            allowed[lineno] = rules
    return allowed


def parse_module(path: Path, pkgpath: str) -> ModuleUnderCheck:
    """Parse ``path`` into a :class:`ModuleUnderCheck` (pragmas included)."""
    source = path.read_text(encoding="utf8")
    tree = ast.parse(source, filename=str(path))
    return ModuleUnderCheck(
        path=path,
        pkgpath=pkgpath,
        source=source,
        tree=tree,
        allowed=_allow_pragmas(source),
    )


class Checker:
    """Base class of every per-module rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` is a tuple of package-relative posix prefixes the rule
    applies to (``("disksim/", "lp/")``); the empty tuple means the whole
    package.  Rules should emit findings through :meth:`finding` so path
    and severity are filled in uniformly.
    """

    #: Unique kebab-case rule identifier (used in reports, pragmas, config).
    rule_id: str = ""
    #: One-line description for ``repro check --list-rules`` and the docs.
    description: str = ""
    #: Default severity of this rule's findings.
    severity: str = "error"
    #: Package-relative path prefixes the rule applies to (empty = all).
    scope: Tuple[str, ...] = ()

    def applies_to(self, pkgpath: str) -> bool:
        """Whether this rule runs on the module at ``pkgpath``."""
        if not self.scope:
            return True
        return any(pkgpath.startswith(prefix) for prefix in self.scope)

    def finding(self, module: ModuleUnderCheck, node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` in ``module`` under this rule."""
        return Finding(
            path=module.pkgpath,
            line=getattr(node, "lineno", 1),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        raise NotImplementedError

    def run(self, module: ModuleUnderCheck) -> List[Finding]:
        """Scoped, pragma-filtered findings for ``module``."""
        if not self.applies_to(module.pkgpath):
            return []
        return [
            finding
            for finding in self.check(module)
            if not module.is_suppressed(finding.rule, finding.line)
        ]


class ProjectChecker(Checker):
    """Base class of cross-module rules (registry hygiene).

    The harness calls :meth:`check_project` once with every parsed module;
    ``scope`` still filters which modules count as *this rule's inputs* and
    inline pragmas still suppress findings by their reported line.
    """

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        """Per-module entry point is unused for project rules."""
        return iter(())

    def check_project(
        self, modules: Sequence[ModuleUnderCheck]
    ) -> Iterator[Finding]:
        """Yield findings computed over every scanned module at once."""
        raise NotImplementedError

    def run_project(self, modules: Sequence[ModuleUnderCheck]) -> List[Finding]:
        """Scoped, pragma-filtered findings over the whole module set."""
        scoped = [m for m in modules if self.applies_to(m.pkgpath)]
        by_pkgpath = {m.pkgpath: m for m in scoped}
        results = []
        for finding in self.check_project(scoped):
            origin = by_pkgpath.get(finding.path)
            if origin is not None and origin.is_suppressed(finding.rule, finding.line):
                continue
            results.append(finding)
        return results


#: Registered rule classes by rule id (filled by :func:`register_checker`).
CHECKER_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a rule to :data:`CHECKER_REGISTRY` (strict)."""
    if not cls.rule_id:
        raise ValueError(f"checker {cls.__name__} declares no rule_id")
    if cls.rule_id in CHECKER_REGISTRY:
        raise ValueError(f"checker rule id {cls.rule_id!r} is already registered")
    CHECKER_REGISTRY[cls.rule_id] = cls
    return cls


def all_checkers() -> List[Checker]:
    """Fresh instances of every registered rule, in rule-id order."""
    return [CHECKER_REGISTRY[rule_id]() for rule_id in sorted(CHECKER_REGISTRY)]
