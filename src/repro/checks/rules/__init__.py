"""The rule battery: importing this package registers every built-in rule.

Each module groups related rules; the act of importing runs the
``@register_checker`` decorators, filling
:data:`repro.checks.base.CHECKER_REGISTRY`.  The run harness imports this
package once, so ``repro check`` always sees the complete battery.
"""

from __future__ import annotations

from . import determinism, discipline, floats, hygiene

__all__ = ["determinism", "discipline", "floats", "hygiene"]
