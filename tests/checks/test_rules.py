"""Per-rule fixture tests: each rule flags its seeded violation, passes the fix.

Every test writes a tiny source fixture, parses it at the package-relative
path the rule scopes on, and asserts the rule's verdict — one violating
form, one corrected form.  The fixtures are the executable definition of
what each rule means; keep them in sync with the rule catalog in
docs/architecture.md.
"""

from __future__ import annotations

import textwrap
from typing import List

from repro.checks import Finding, ModuleUnderCheck
from repro.checks.base import CHECKER_REGISTRY, ProjectChecker, parse_module


def check_source(rule_id: str, pkgpath: str, source: str, tmp_path) -> List[Finding]:
    """Run one registered rule over a source fixture at ``pkgpath``."""
    path = tmp_path / pkgpath.replace("/", "__")
    path.write_text(textwrap.dedent(source))
    module = parse_module(path, pkgpath)
    checker = CHECKER_REGISTRY[rule_id]()
    assert not isinstance(checker, ProjectChecker)
    return checker.run(module)


def check_project(rule_id: str, fixtures, tmp_path) -> List[Finding]:
    """Run one project-level rule over ``{pkgpath: source}`` fixtures."""
    modules: List[ModuleUnderCheck] = []
    for pkgpath, source in fixtures.items():
        path = tmp_path / pkgpath.replace("/", "__")
        path.write_text(textwrap.dedent(source))
        modules.append(parse_module(path, pkgpath))
    checker = CHECKER_REGISTRY[rule_id]()
    assert isinstance(checker, ProjectChecker)
    return checker.run_project(modules)


class TestDeterminismRng:
    def test_module_state_call_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "disksim/bad.py",
            """
            import random

            def f():
                return random.random()
            """,
            tmp_path,
        )
        assert [f.rule for f in findings] == ["determinism-rng"]
        assert "module-level random state" in findings[0].message
        assert findings[0].line == 5

    def test_from_import_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/bad.py",
            "from random import shuffle, randint\n",
            tmp_path,
        )
        assert len(findings) == 1
        assert "shuffle, randint" in findings[0].message

    def test_numpy_module_state_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/bad.py",
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "numpy's module-level random state" in findings[0].message

    def test_unseeded_generator_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_optional_seed_parameter_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            from typing import Optional

            import numpy as np

            def make(seed: Optional[int] = 0):
                return np.random.default_rng(seed)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "may be unseeded" in findings[0].message

    def test_required_int_seed_passes(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            import numpy as np

            def make(seed: int = 0):
                return np.random.default_rng(seed)
            """,
            tmp_path,
        )
        assert findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "viz/free.py",
            "import random\nx = random.random()\n",
            tmp_path,
        )
        assert findings == []


class TestDeterminismClock:
    def test_wall_clock_flagged(self, tmp_path):
        findings = check_source(
            "determinism-clock",
            "disksim/bad.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_datetime_now_flagged(self, tmp_path):
        findings = check_source(
            "determinism-clock",
            "lp/bad.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            tmp_path,
        )
        assert len(findings) == 1

    def test_perf_counter_exempt(self, tmp_path):
        findings = check_source(
            "determinism-clock",
            "lp/timing.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            tmp_path,
        )
        assert findings == []


class TestFingerprintOrder:
    def test_set_iteration_flagged(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            def cache_key(items):
                out = []
                for item in set(items):
                    out.append(item)
                return tuple(out)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "unordered set" in findings[0].message

    def test_sorted_set_iteration_passes(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            def cache_key(items):
                return tuple(x for x in sorted(set(items)))
            """,
            tmp_path,
        )
        assert findings == []

    def test_builtin_hash_flagged(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            def fingerprint(payload):
                return hash(payload)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "PYTHONHASHSEED" in findings[0].message

    def test_unsorted_dumps_flagged_sorted_passes(self, tmp_path):
        bad = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            import json

            def canonical_payload(d):
                return json.dumps(d)
            """,
            tmp_path,
        )
        assert len(bad) == 1
        good = check_source(
            "fingerprint-order",
            "analysis/keys2.py",
            """
            import json

            def canonical_payload(d):
                return json.dumps(d, sort_keys=True)
            """,
            tmp_path,
        )
        assert good == []

    def test_only_fingerprint_shaped_functions_checked(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/free.py",
            """
            def summarise(items):
                return hash(tuple(items))
            """,
            tmp_path,
        )
        assert findings == []


class TestSpecErrorDiscipline:
    def test_bare_value_error_flagged(self, tmp_path):
        findings = check_source(
            "spec-error-discipline",
            "workloads/spec.py",
            """
            def parse(spec):
                raise ValueError(f"bad spec {spec!r}")
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "ValueError" in findings[0].message

    def test_static_message_flagged(self, tmp_path):
        findings = check_source(
            "spec-error-discipline",
            "specs.py",
            """
            from repro.errors import ConfigurationError

            def parse(spec):
                raise ConfigurationError("bad spec")
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "f-string" in findings[0].message

    def test_spec_naming_configuration_error_passes(self, tmp_path):
        findings = check_source(
            "spec-error-discipline",
            "algorithms/registry.py",
            """
            from repro.errors import ConfigurationError

            def parse(spec):
                raise ConfigurationError(f"unknown algorithm in spec {spec!r}")
            """,
            tmp_path,
        )
        assert findings == []

    def test_bare_reraise_allowed(self, tmp_path):
        findings = check_source(
            "spec-error-discipline",
            "specs.py",
            """
            def forward(spec):
                try:
                    return int(spec)
                except ValueError:
                    raise
            """,
            tmp_path,
        )
        assert findings == []

    def test_pragma_suppresses_protocol_raise(self, tmp_path):
        findings = check_source(
            "spec-error-discipline",
            "specs.py",
            """
            def coerce(text):
                # protocol raise  # repro: allow(spec-error-discipline)
                raise ValueError(f"not a boolean: {text!r}")
            """,
            tmp_path,
        )
        assert findings == []


class TestRegistryHygiene:
    def test_lambda_schema_mismatch_flagged(self, tmp_path):
        findings = check_project(
            "registry-hygiene",
            {
                "workloads/spec.py": """
                def _def(name, summary, factory, params):
                    pass

                class ParamSpec:
                    pass

                _def("zipf", "zipf workload", lambda n, skew: None,
                     [ParamSpec("n"), ParamSpec("blocks")])
                """
            },
            tmp_path,
        )
        assert len(findings) == 1
        assert "lambda builder" in findings[0].message

    def test_missing_summary_flagged(self, tmp_path):
        findings = check_project(
            "registry-hygiene",
            {
                "workloads/spec.py": """
                def _def(name, summary, factory, params):
                    pass

                _def("zipf", "", lambda: None, [])
                """
            },
            tmp_path,
        )
        assert len(findings) == 1
        assert "summary" in findings[0].message

    def test_factory_signature_mismatch_flagged(self, tmp_path):
        findings = check_project(
            "registry-hygiene",
            {
                "algorithms/registry.py": """
                class ParamSpec:
                    pass

                def register_algorithm(name, factory, *, summary="", params=()):
                    pass

                class Delay:
                    \"\"\"Delay policy.\"\"\"

                    def __init__(self, d):
                        pass

                register_algorithm("delay", Delay, summary="delay d steps",
                                   params=[ParamSpec("d"), ParamSpec("window")])
                """
            },
            tmp_path,
        )
        assert len(findings) == 1
        assert "'window'" in findings[0].message

    def test_consistent_registration_passes(self, tmp_path):
        findings = check_project(
            "registry-hygiene",
            {
                "algorithms/registry.py": """
                class ParamSpec:
                    pass

                def register_algorithm(name, factory, *, summary="", params=()):
                    pass

                class Delay:
                    \"\"\"Delay policy.\"\"\"

                    def __init__(self, d):
                        pass

                register_algorithm("delay", Delay, summary="delay d steps",
                                   params=[ParamSpec("d")])
                """
            },
            tmp_path,
        )
        assert findings == []

    def test_dynamic_forwarding_call_skipped(self, tmp_path):
        findings = check_project(
            "registry-hygiene",
            {
                "algorithms/registry.py": """
                def register_algorithm(name, factory, *, summary="", params=()):
                    pass

                def _def(name, summary, factory, params):
                    register_algorithm(name, factory, summary=summary, params=params)
                """
            },
            tmp_path,
        )
        assert findings == []


class TestFloatEquality:
    def test_nonintegral_literal_flagged(self, tmp_path):
        findings = check_source(
            "float-equality",
            "analysis/gate.py",
            """
            def gate(ratio):
                return ratio == 1.5
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_division_result_flagged(self, tmp_path):
        findings = check_source(
            "float-equality",
            "analysis/gate.py",
            """
            def gate(a, b, c):
                return a / b == c
            """,
            tmp_path,
        )
        assert len(findings) == 1

    def test_integral_literal_and_inf_pass(self, tmp_path):
        findings = check_source(
            "float-equality",
            "analysis/gate.py",
            """
            def gate(ratio):
                return ratio == 1.0 or ratio == float("inf")
            """,
            tmp_path,
        )
        assert findings == []

    def test_allowlisted_helper_exempt(self, tmp_path):
        findings = check_source(
            "float-equality",
            "analysis/gate.py",
            """
            def safe_ratio(a, b):
                return a / b == 0.5
            """,
            tmp_path,
        )
        assert findings == []

    def test_nan_comparison_flagged(self, tmp_path):
        findings = check_source(
            "float-equality",
            "analysis/gate.py",
            """
            def gate(x):
                return x != float("nan")
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "nan" in findings[0].message
