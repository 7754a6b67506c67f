"""The gate itself: the tree is clean, and the CLI enforces exit codes.

``test_repro_source_tree_is_clean`` is the meta-test the whole subsystem
exists for: the shipped package must pass its own determinism lint.  If a
rule change or a source change makes this fail, fix the violation.
"""

from __future__ import annotations

import pytest

from repro.checks import default_check_root, run_checks
from repro.cli import main


class TestSelfClean:
    def test_repro_source_tree_is_clean(self):
        report = run_checks()
        assert report.ok, "\n" + report.format_text()
        assert report.files_checked > 50
        assert report.format_text().endswith("3 rule(s)")

    def test_default_root_is_the_package(self):
        assert default_check_root().name == "repro"


class TestCliCheck:
    def _violation_tree(self, tmp_path):
        target = tmp_path / "disksim"
        target.mkdir()
        (target / "bad.py").write_text("import random\nx = random.random()\n")
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert main(["check", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "disksim/bad.py:2: [determinism-rng]" in out
        assert "1 finding(s)" in out

    def test_undecodable_target_is_a_one_line_error(self, tmp_path, capsys):
        (tmp_path / "latin1.py").write_bytes(b"name = 'caf\xe9'\n")
        assert main(["check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: check target ")
        assert "latin1.py" in err
        assert err.count("\n") == 1

    def test_missing_target_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: check target ")
        assert err.rstrip("\n").endswith("does not exist")
        assert err.count("\n") == 1

    def test_several_targets_are_checked_together(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        (tmp_path / "dirty").mkdir()
        tree = self._violation_tree(tmp_path / "dirty")
        assert main(["check", str(clean), str(tree)]) == 1
        assert "1 finding(s), 2 file(s), 3 rule(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--baseline", "x"],
            ["--update-baseline"],
            ["--json", "x"],
            ["--only", "x"],
            ["--disable", "x"],
            ["--list-rules"],
        ],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_target_is_own_source(self, capsys):
        assert main(["check"]) == 0
        assert "repro check: 0 finding(s)" in capsys.readouterr().out
