"""``repro check``: a static gate for the defects no test run can see.

The test suite and ``benchmarks/`` check the paper's results by running
code.  What a run cannot see is a result that silently depends on more than
its explicit inputs — hidden RNG state, a wall-clock read, a fingerprint
built from unordered iteration — which breaks byte-identical,
content-addressed reruns without failing anything.  This package proves
their absence over the package's ASTs: the three rules live in
:mod:`repro.checks.rules`; this module collects the files, runs the rules
and reports.

Entry points: the ``repro check`` CLI subcommand and :func:`run_checks`
(what the meta-test and CI call).

Package-relative paths
----------------------
Findings are reported against *package-relative* posix paths
(``disksim/vector.py``), the coordinate every rule scopes on.  For files
under a directory named ``repro`` the prefix up to and including that
directory is stripped; otherwise paths are taken relative to the scanned
root — which is what makes the fixture tests work: a temp tree
``<tmp>/disksim/bad.py`` scans with the same coordinates as the real
package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .rules import RULES

__all__ = ["Finding", "CheckReport", "run_checks", "default_check_root"]


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: which rule fired, where, and why.

    ``path`` is the package-relative posix path, so findings are stable
    across checkouts and machines and sort by (path, line, rule).
    """

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """One-line ``path:line: [rule] message`` rendering."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one check run: its findings and how many files it read."""

    findings: Tuple[Finding, ...]
    files_checked: int

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no findings)."""
        return not self.findings

    def format_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"repro check: {len(self.findings)} finding(s), "
            f"{self.files_checked} file(s), {len(RULES)} rule(s)"
        )
        return "\n".join(lines)


def default_check_root() -> Path:
    """The installed ``repro`` package source tree (the default scan target)."""
    return Path(__file__).resolve().parents[1]


def _package_relative(path: Path, root: Path) -> str:
    """The package-relative posix path findings report (see module docstring)."""
    resolved = path.resolve()
    parts = list(resolved.parts)
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        tail = parts[index + 1 :]
        if tail:
            return "/".join(tail)
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        return resolved.name


def _collect_modules(paths: Sequence[Path]) -> List[Tuple[str, ast.Module]]:
    """``(package-relative path, AST)`` of every ``*.py`` file under ``paths``."""
    modules: List[Tuple[str, ast.Module]] = []
    seen = set()
    for target in paths:
        if not target.exists():
            raise ConfigurationError(f"check target {target} does not exist")
        root = target if target.is_dir() else target.parent
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                tree = ast.parse(file.read_text(encoding="utf8"), filename=str(file))
            except (SyntaxError, ValueError) as exc:
                # ValueError: bytes that are not UTF-8 (UnicodeDecodeError) or NUL.
                raise ConfigurationError(
                    f"check target {file} is not parseable Python: {exc}"
                ) from exc
            modules.append((_package_relative(file, root), tree))
    return modules


def run_checks(paths: Optional[Sequence[Path]] = None) -> CheckReport:
    """Run every rule over ``paths`` (default: the installed package)."""
    targets = [Path(p) for p in paths] if paths else [default_check_root()]
    modules = _collect_modules(targets)
    findings = sorted(
        Finding(pkgpath, getattr(node, "lineno", 1), rule, message)
        for pkgpath, tree in modules
        for rule, scope, check in RULES
        if not scope or pkgpath.startswith(scope)
        for node, message in check(tree)
    )
    return CheckReport(findings=tuple(findings), files_checked=len(modules))
