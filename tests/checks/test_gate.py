"""The gate itself: the tree is clean, and the CLI enforces exit codes.

``test_repro_source_tree_is_clean`` is the meta-test the whole subsystem
exists for: the shipped package must pass its own invariant lint with an
empty baseline.  If a rule change or a source change makes this fail, either
fix the violation or carry a justified inline pragma — do not grow the
committed baseline casually (see docs/architecture.md).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks import Baseline, run_checks
from repro.checks.runner import default_check_root
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfClean:
    def test_repro_source_tree_is_clean(self):
        report = run_checks()
        assert report.ok, "\n" + report.format_text()
        assert report.files_checked > 50
        assert len(report.rules_run) == 6

    def test_default_root_is_the_package(self):
        assert default_check_root().name == "repro"

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "checks-baseline.json")
        assert baseline.entries == {}


class TestCliCheck:
    def _violation_tree(self, tmp_path):
        target = tmp_path / "disksim"
        target.mkdir()
        (target / "bad.py").write_text("import random\nx = random.random()\n")
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path)]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_and_writes_json(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        artifact = tmp_path / "findings.json"
        assert main(["check", str(tree), "--json", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "determinism-rng" in out
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "determinism-rng"

    def test_update_baseline_then_gate_passes(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["check", str(tree), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        assert baseline.exists()
        assert main(["check", str(tree), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_update_baseline_requires_baseline_path(self, capsys):
        assert main(["check", "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_disable_rule_passes_violating_tree(self, tmp_path):
        tree = self._violation_tree(tmp_path)
        assert main(["check", str(tree), "--disable", "determinism-rng"]) == 0

    def test_unknown_rule_is_configuration_error(self, capsys):
        assert main(["check", "--only", "no-such-rule"]) == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "determinism-rng" in out
        assert "registry-hygiene" in out

    def test_default_target_is_own_source(self, capsys):
        assert main(["check"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out
