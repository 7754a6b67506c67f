"""Per-rule fixture tests: each rule flags its seeded violation, passes the fix.

Every test writes a tiny source fixture at the package-relative path the
rule scopes on, runs the checker over it, and asserts the rule's verdict —
one violating form, one corrected form.  The fixtures are the executable
definition of what each rule means; keep them in sync with the rule table
in docs/architecture.md.
"""

from __future__ import annotations

import textwrap
from typing import List

import pytest

from repro.checks import Finding, run_checks


def check_source(rule_id: str, pkgpath: str, source: str, tmp_path) -> List[Finding]:
    """``rule_id``'s findings for a source fixture written at ``pkgpath``."""
    path = tmp_path / pkgpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return [
        finding
        for finding in run_checks([tmp_path]).findings
        if finding.rule == rule_id and finding.path == pkgpath
    ]


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

    @pytest.mark.parametrize(
        "package", ["disksim", "algorithms", "lp", "workloads", "core"]
    )
    def test_every_scoped_package_checked(self, package, tmp_path):
        findings = check_source(
            "determinism-rng",
            f"{package}/mod.py",
            "import random\nx = random.random()\n",
            tmp_path,
        )
        assert [f.line for f in findings] == [2]

    @pytest.mark.parametrize("pkgpath", ["analysis/mod.py", "cli.py"])
    def test_harness_modules_out_of_scope(self, pkgpath, tmp_path):
        findings = check_source(
            "determinism-rng",
            pkgpath,
            "import random\nx = random.random()\n",
            tmp_path,
        )
        assert findings == []

    def test_unaliased_numpy_module_state_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "algorithms/bad.py",
            """
            import numpy

            def f(xs):
                numpy.random.shuffle(xs)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "numpy.random.shuffle()" in findings[0].message

    def test_unseeded_random_instance_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "core/bad.py",
            """
            import random

            def f():
                return random.Random()
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "random.Random() without a seed" in findings[0].message

    def test_none_seed_flagged(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            import numpy as np

            def f():
                return np.random.default_rng(None)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "np.random.default_rng(None) is entropy-seeded" in findings[0].message

    @pytest.mark.parametrize(
        "definition",
        [
            "def make(seed=None):\n    return np.random.default_rng(seed)\n",
            "def make(seed: int | None = 0):\n    return np.random.default_rng(seed)\n",
            "def make(seed: Union[int, None] = 0):\n"
            "    return np.random.default_rng(seed)\n",
            "def make(*, seed=None):\n    return np.random.default_rng(seed=seed)\n",
            "make = lambda seed=None: np.random.default_rng(seed)\n",
            "def make(seed: Optional[int] = 0):\n"
            "    def inner():\n"
            "        return random.Random(seed)\n"
            "    return inner\n",
        ],
        ids=["none-default", "pep604", "union", "keyword-only", "lambda", "enclosing"],
    )
    def test_maybe_none_seed_forms_flagged(self, definition, tmp_path):
        header = (
            "import random\nfrom typing import Optional, Union\n\n"
            "import numpy as np\n\n"
        )
        findings = check_source(
            "determinism-rng", "workloads/gen.py", header + definition, tmp_path
        )
        assert len(findings) == 1
        assert "parameter 'seed' is Optional/defaults to None" in findings[0].message

    def test_inner_required_seed_shadows_optional_outer(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            import random
            from typing import Optional

            def make(seed: Optional[int] = None):
                def inner(seed: int):
                    return random.Random(seed)
                return inner
            """,
            tmp_path,
        )
        assert findings == []

    def test_seeded_generator_construction_passes(self, tmp_path):
        findings = check_source(
            "determinism-rng",
            "workloads/gen.py",
            """
            import random
            from random import Random

            import numpy as np

            def make(seed: int):
                return (
                    random.Random(seed),
                    Random(seed),
                    np.random.default_rng(seed),
                    np.random.Generator(np.random.PCG64(seed)),
                    np.random.SeedSequence(seed),
                )
            """,
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

    @pytest.mark.parametrize(
        "imports, call",
        [
            ("import time", "time.time_ns()"),
            ("from datetime import datetime", "datetime.now()"),
            ("from datetime import datetime", "datetime.utcnow()"),
            ("from datetime import datetime", "datetime.today()"),
            ("from datetime import date", "date.today()"),
            ("import datetime", "datetime.datetime.utcnow()"),
            ("import datetime", "datetime.datetime.today()"),
            ("import datetime", "datetime.date.today()"),
        ],
    )
    def test_every_wall_clock_read_flagged(self, imports, call, tmp_path):
        findings = check_source(
            "determinism-clock",
            "core/stamp.py",
            f"{imports}\n\ndef stamp():\n    return {call}\n",
            tmp_path,
        )
        assert [f.line for f in findings] == [4]
        assert findings[0].message.startswith(f"{call} reads the wall clock")

    @pytest.mark.parametrize("package", ["disksim", "algorithms", "lp", "core"])
    def test_every_scoped_package_checked(self, package, tmp_path):
        findings = check_source(
            "determinism-clock",
            f"{package}/mod.py",
            "import time\nt = time.time()\n",
            tmp_path,
        )
        assert [f.line for f in findings] == [2]

    @pytest.mark.parametrize("package", ["workloads", "analysis"])
    def test_workload_and_harness_modules_out_of_scope(self, package, tmp_path):
        findings = check_source(
            "determinism-clock",
            f"{package}/mod.py",
            "import time\nt = time.time()\n",
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

    @pytest.mark.parametrize(
        "header",
        [
            "def instance_fingerprint(x):",
            "def canonical_payload(x):",
            "def run_cache_key(x):",
            "def sweep_key(x):",
            "async def fingerprint(x):",
        ],
    )
    def test_every_fingerprint_shaped_name_checked(self, header, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            f"{header}\n    return hash(x)\n",
            tmp_path,
        )
        assert len(findings) == 1
        assert "builtin hash()" in findings[0].message

    @pytest.mark.parametrize("pkgpath", ["viz/keys.py", "cli.py"])
    def test_rule_applies_to_the_whole_package(self, pkgpath, tmp_path):
        findings = check_source(
            "fingerprint-order",
            pkgpath,
            "def cache_key(x):\n    return hash(x)\n",
            tmp_path,
        )
        assert len(findings) == 1

    def test_comprehension_over_set_flagged(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            def sweep_key(items):
                listed = [x for x in set(items)]
                return tuple(x for x in frozenset(items)), listed
            """,
            tmp_path,
        )
        assert [f.line for f in findings] == [3, 4]
        assert all("builds an ordered value" in f.message for f in findings)

    def test_set_literal_and_set_comprehension_loops_flagged(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            def cache_key(a, b, items):
                out = []
                for x in {a, b}:
                    out.append(x)
                for y in {i for i in items}:
                    out.append(y)
                return tuple(out)
            """,
            tmp_path,
        )
        assert [f.line for f in findings] == [4, 6]

    @pytest.mark.parametrize("consumer", ["sorted", "sum", "any", "frozenset"])
    def test_order_insensitive_consumer_passes(self, consumer, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            f"def cache_key(items):\n    return {consumer}(x for x in set(items))\n",
            tmp_path,
        )
        assert findings == []

    def test_dumps_with_sort_keys_false_flagged(self, tmp_path):
        findings = check_source(
            "fingerprint-order",
            "analysis/keys.py",
            """
            import json

            def canonical_payload(d):
                return json.dumps(d, sort_keys=False)
            """,
            tmp_path,
        )
        assert len(findings) == 1
        assert "without sort_keys=True" in findings[0].message
