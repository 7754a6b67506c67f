"""Harness tests: findings, the report, the rule table, collection, bad targets."""

from __future__ import annotations

import pytest

from repro.checks import CheckReport, Finding, run_checks
from repro.checks.rules import RULES
from repro.errors import ConfigurationError


class TestFinding:
    def test_render(self):
        finding = Finding(path="a/b.py", line=3, rule="r", message="m")
        assert finding.render() == "a/b.py:3: [r] m"

    def test_sort_order_is_path_line_rule(self):
        findings = [
            Finding(path="b.py", line=1, rule="r", message="m"),
            Finding(path="a.py", line=9, rule="r", message="m"),
            Finding(path="a.py", line=2, rule="z", message="m"),
            Finding(path="a.py", line=2, rule="a", message="m"),
        ]
        ordered = sorted(findings)
        assert [(f.path, f.line, f.rule) for f in ordered] == [
            ("a.py", 2, "a"),
            ("a.py", 2, "z"),
            ("a.py", 9, "r"),
            ("b.py", 1, "r"),
        ]


class TestCheckReport:
    def test_format_text(self):
        finding = Finding(path="a.py", line=1, rule="r", message="m")
        text = CheckReport(findings=(finding,), files_checked=2).format_text()
        assert "a.py:1: [r] m" in text
        assert "1 finding(s), 2 file(s), 3 rule(s)" in text

    def test_ok_iff_no_findings(self):
        assert CheckReport(findings=(), files_checked=1).ok
        finding = Finding(path="a.py", line=1, rule="r", message="m")
        assert not CheckReport(findings=(finding,), files_checked=1).ok


class TestRegistry:
    def test_battery_is_complete(self):
        assert [rule for rule, _scope, _check in RULES] == [
            "determinism-rng",
            "determinism-clock",
            "fingerprint-order",
        ]

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            run_checks([tmp_path / "nope"])

    @pytest.mark.parametrize(
        "content",
        [b"def f(:\n", b"x = '\xff'\n", b"x = 1\x00\n"],
        ids=["syntax-error", "not-utf8", "nul-byte"],
    )
    def test_unparseable_target_rejected(self, tmp_path, content):
        bad = tmp_path / "broken.py"
        bad.write_bytes(content)
        with pytest.raises(ConfigurationError, match="broken.py is not parseable"):
            run_checks([tmp_path])


class TestCollection:
    RNG_VIOLATION = "import random\nx = random.random()\n"

    def test_repro_directory_prefix_is_stripped(self, tmp_path):
        module = tmp_path / "src" / "repro" / "disksim" / "bad.py"
        module.parent.mkdir(parents=True)
        module.write_text(self.RNG_VIOLATION)
        for target in (tmp_path / "src", module):
            report = run_checks([target])
            assert [(f.path, f.line, f.rule) for f in report.findings] == [
                ("disksim/bad.py", 2, "determinism-rng")
            ]

    def test_file_target_outside_a_package_is_reported_by_name(self, tmp_path):
        module = tmp_path / "keys.py"
        module.write_text("def cache_key(x):\n    return hash(x)\n")
        report = run_checks([module])
        assert [(f.path, f.rule) for f in report.findings] == [
            ("keys.py", "fingerprint-order")
        ]

    def test_overlapping_targets_are_read_once(self, tmp_path):
        module = tmp_path / "disksim" / "bad.py"
        module.parent.mkdir()
        module.write_text(self.RNG_VIOLATION)
        report = run_checks([tmp_path, module, tmp_path / "disksim"])
        assert report.files_checked == 1
        assert len(report.findings) == 1

    def test_findings_sorted_across_files_and_rules(self, tmp_path):
        (tmp_path / "lp").mkdir()
        (tmp_path / "core").mkdir()
        (tmp_path / "lp" / "a.py").write_text(
            "import time\nimport random\n\ndef cache_key(x):\n"
            "    return hash((x, random.random(), time.time()))\n"
        )
        (tmp_path / "core" / "b.py").write_text(self.RNG_VIOLATION)
        report = run_checks([tmp_path])
        assert [(f.path, f.line, f.rule) for f in report.findings] == [
            ("core/b.py", 2, "determinism-rng"),
            ("lp/a.py", 5, "determinism-clock"),
            ("lp/a.py", 5, "determinism-rng"),
            ("lp/a.py", 5, "fingerprint-order"),
        ]
        assert report.files_checked == 2

    def test_empty_tree_is_clean(self, tmp_path):
        (tmp_path / "notes.txt").write_text("random.random()\n")
        report = run_checks([tmp_path])
        assert report.ok
        assert report.files_checked == 0
