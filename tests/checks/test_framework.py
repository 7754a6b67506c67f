"""Framework tests: findings, config, pragmas, the report and the registry."""

from __future__ import annotations

import json

import pytest

from repro.checks import (
    CHECKER_REGISTRY,
    CheckConfig,
    CheckReport,
    Finding,
    all_checkers,
    run_checks,
)
from repro.checks.base import parse_module
from repro.errors import ConfigurationError


class TestFinding:
    def test_render(self):
        finding = Finding(path="a/b.py", line=3, rule="r", message="m")
        assert finding.render() == "a/b.py:3: error: [r] m"

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

    def test_json_round_trip(self):
        finding = Finding(path="a.py", line=3, rule="r", message="m", severity="warning")
        assert Finding.from_json_dict(finding.to_json_dict()) == finding

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="a.py", line=1, rule="r", message="m", severity="fatal")

    def test_baseline_key_excludes_line(self):
        one = Finding(path="a.py", line=3, rule="r", message="m")
        two = Finding(path="a.py", line=30, rule="r", message="m")
        assert one.baseline_key == two.baseline_key


class TestCheckConfig:
    def test_default_enables_everything(self):
        config = CheckConfig()
        assert config.is_enabled("determinism-rng")

    def test_disable(self):
        config = CheckConfig(disabled=frozenset({"float-equality"}))
        assert not config.is_enabled("float-equality")
        assert config.is_enabled("determinism-rng")

    def test_only_restricts(self):
        config = CheckConfig(only=frozenset({"registry-hygiene"}))
        assert config.is_enabled("registry-hygiene")
        assert not config.is_enabled("determinism-rng")

    def test_unknown_rule_rejected(self):
        config = CheckConfig.from_option_strings(disable="no-such-rule")
        with pytest.raises(ConfigurationError, match="no-such-rule"):
            config.validate(CHECKER_REGISTRY)

    def test_from_option_strings_splits_commas(self):
        config = CheckConfig.from_option_strings(
            only="a, b", disable="c"
        )
        assert config.only == frozenset({"a", "b"})
        assert config.disabled == frozenset({"c"})

    def test_run_checks_respects_only(self, tmp_path):
        target = tmp_path / "disksim"
        target.mkdir()
        (target / "bad.py").write_text("import random\nx = random.random()\n")
        report = run_checks(
            [tmp_path], config=CheckConfig(only=frozenset({"determinism-clock"}))
        )
        assert report.ok
        assert report.rules_run == ("determinism-clock",)


class TestPragmas:
    def test_pragma_parsing_same_and_previous_line(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "x = 1  # repro: allow(rule-a, rule-b)\n"
            "y = 2\n"
        )
        module = parse_module(path, "m.py")
        assert module.is_suppressed("rule-a", 1)
        assert module.is_suppressed("rule-b", 2)  # line below the pragma
        assert not module.is_suppressed("rule-a", 3)
        assert not module.is_suppressed("rule-c", 1)

    def test_pragma_suppresses_finding_end_to_end(self, tmp_path):
        target = tmp_path / "disksim"
        target.mkdir()
        (target / "bad.py").write_text(
            "import random\n"
            "x = random.random()  # repro: allow(determinism-rng)\n"
        )
        assert run_checks([tmp_path]).ok


class TestCheckReport:
    def test_format_text_and_json(self):
        finding = Finding(path="a.py", line=1, rule="r", message="m")
        report = CheckReport(
            findings=(finding,), baselined=(), files_checked=2, rules_run=("r",)
        )
        text = report.format_text()
        assert "a.py:1: error: [r] m" in text
        assert "1 new finding(s), 0 baselined, 2 file(s), 1 rule(s)" in text
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "r"

    def test_ok_iff_no_new_findings(self):
        clean = CheckReport(findings=(), baselined=(), files_checked=1)
        assert clean.ok
        grandfathered = CheckReport(
            findings=(),
            baselined=(Finding(path="a.py", line=1, rule="r", message="m"),),
            files_checked=1,
        )
        assert grandfathered.ok


class TestRegistry:
    def test_battery_is_complete(self):
        expected = {
            "determinism-rng",
            "determinism-clock",
            "fingerprint-order",
            "spec-error-discipline",
            "registry-hygiene",
            "float-equality",
        }
        assert expected == set(CHECKER_REGISTRY)

    def test_all_checkers_sorted_and_described(self):
        checkers = all_checkers()
        ids = [c.rule_id for c in checkers]
        assert ids == sorted(ids)
        for checker in checkers:
            assert checker.description
            assert checker.severity in ("error", "warning")

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            run_checks([tmp_path / "nope"])

    def test_unparseable_target_rejected(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        with pytest.raises(ConfigurationError, match="not parseable"):
            run_checks([tmp_path])
