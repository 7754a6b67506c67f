"""AST-based static-analysis subsystem: ``repro check``.

The test suite proves the repository's load-bearing guarantees at
runtime; this package proves them at the *import-graph* level, before
anything runs.  A small checker framework (:mod:`repro.checks.base`) hosts
a battery of repo-specific rules (:mod:`repro.checks.rules`): determinism
(no hidden RNG or wall-clock state in kernel code, ordered fingerprints),
error discipline in the spec grammars, registry hygiene, and
float-equality.  Findings
(:mod:`repro.checks.findings`) are gated against a committed baseline
(:mod:`repro.checks.baseline`) so new rules can land against imperfect
trees while every new violation fails CI.

Entry points: the ``repro check`` CLI subcommand and
:func:`repro.checks.runner.run_checks` (what the meta-test and CI call).
"""

from __future__ import annotations

from .base import (
    CHECKER_REGISTRY,
    Checker,
    ModuleUnderCheck,
    ProjectChecker,
    all_checkers,
    register_checker,
)
from .baseline import Baseline
from .config import CheckConfig
from .findings import Finding
from .runner import CheckReport, default_check_root, run_checks

__all__ = [
    "CHECKER_REGISTRY",
    "Checker",
    "ProjectChecker",
    "ModuleUnderCheck",
    "register_checker",
    "all_checkers",
    "Baseline",
    "CheckConfig",
    "Finding",
    "CheckReport",
    "run_checks",
    "default_check_root",
]
