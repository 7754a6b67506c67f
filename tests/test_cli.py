"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.analysis.store import RunStore, store_path_for
from repro.cli import build_parser, main
from repro.disksim import RequestSequence
from repro.errors import ConfigurationError
from repro.workloads.spec import LAYOUT_BUILDERS, parse_workload


class TestParseWorkload:
    def test_zipf_spec(self):
        sequence = parse_workload("zipf:n=30,blocks=8,skew=0.5,seed=1")
        assert isinstance(sequence, RequestSequence)
        assert len(sequence) == 30
        assert sequence.num_distinct <= 8

    def test_defaults(self):
        assert len(parse_workload("uniform")) == 200

    def test_trace_spec(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\nb\na\n")
        assert list(parse_workload(f"trace:path={path}")) == ["a", "b", "a"]

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            parse_workload("nope:n=3")

    def test_misspelled_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            parse_workload("zipf:blocs=10")

    def test_bad_value_rejected_with_spec_named(self):
        with pytest.raises(ConfigurationError, match="zipf:n=abc"):
            parse_workload("zipf:n=abc")


#: Settings the paper's strategies do not take: Delay's d is the only
#: algorithm parameter, so each of these is an unknown parameter.
UNKNOWN_ALGORITHM_PARAMS = (
    "aggressive:tiebreak=low",
    "demand:evict=lru",
    "parallel-aggressive:order=desc",
    "parallel-conservative:order=desc",
    "combination:alt=demand",
)


class TestCommands:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, rejected",
        [
            (["serve"], "serve"),
            (["coordinator"], "coordinator"),
            (["worker", "--coordinator", "http://127.0.0.1:1"], "worker"),
            (["sweep", "--backend", "remote"], "remote"),
            (["ratios", "--backend", "remote"], "remote"),
            (["sweep", "--engine", "indexed"], "indexed"),
            (["simulate", "--engine", "indexed"], "indexed"),
            (["store", "import", "old-cache"], "import"),
            (["compare", "-w", "zipf:n=30", "-a", "aggressive"], "compare"),
            (
                ["ratios", "-w", "zipf:n=60", "-k", "4", "-F", "3", "-a", "aggressive",
                 "--method", "milp"],
                "--method milp",
            ),
        ],
    )
    def test_removed_commands_and_choices_are_rejected(self, capsys, argv, rejected):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{rejected}'" in err or f"unrecognized arguments: {rejected}" in err

    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "-w",
                "loop:blocks=10,loops=2",
                "-k",
                "6",
                "-F",
                "3",
                "-a",
                "aggressive",
                "--gantt",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "aggressive" in out
        assert "stall_time" in out
        assert "legend" in out

    def test_simulate_timeline_and_gantt_on_the_auto_engine(self, capsys):
        """The chart and timeline record the run's events, so ``auto`` runs
        the loop engine instead of printing an empty run."""
        code = main(
            ["simulate", "-w", "zipf:n=60,blocks=20,seed=1", "-k", "4", "-F", "3",
             "-a", "aggressive", "--engine", "auto", "--gantt", "--timeline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine: loop (requested auto)" in out
        assert sum(" serve " in line for line in out.splitlines()) == 60
        cpu_row = next(line for line in out.splitlines() if line.startswith("cpu"))
        assert cpu_row.count("s") == 60

    def test_ratios_one_point_compares_parametrised_specs(self, capsys):
        code = main(
            [
                "ratios",
                "-w", "zipf:n=30,blocks=8,seed=2",
                "-k", "5", "-F", "3",
                "-a", "aggressive;delay:d=2;demand",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 points" in out and "1 optimum requests" in out
        assert "delay(2)" in out and "demand[MIN]" in out
        assert "optimal_stall" in out

    def test_ratios_parallel_disk_point(self, capsys, tmp_path):
        import json as json_module

        json_path = tmp_path / "ratios.json"
        code = main(
            [
                "ratios",
                "-w", "zipf:n=30,blocks=8,seed=2",
                "-k", "5", "-F", "3", "-D", "2",
                "-a", "parallel-aggressive",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        assert "parallel-aggressive" in capsys.readouterr().out
        (row,) = json_module.loads(json_path.read_text())["results"]
        assert row["disks"] == 2 and row["layout"] == "striped"
        assert 0 <= row["optimal_stall"] <= row["stall_time"]

    def test_ratios_parallel_baselines_never_beat_the_optimum(self, capsys, tmp_path):
        """On D = 2 every algorithm's elapsed ratio to the Theorem 4 optimum is >= 1."""
        import json as json_module

        json_path = tmp_path / "ratios.json"
        code = main(
            [
                "ratios",
                "-w", "loop:blocks=8,loops=3",
                "-k", "4", "-F", "3", "-D", "2",
                "--layouts", "partitioned",
                "-a", "parallel-aggressive;parallel-conservative;demand",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = json_module.loads(json_path.read_text())["results"]
        assert len(rows) == 3
        assert all(row["elapsed_ratio"] >= 1 for row in rows)

    def test_sweep_command(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "-w",
                "zipf:n=30,blocks=8;loop:blocks=10,loops=2",
                "-k",
                "4,6",
                "-F",
                "3",
                "-a",
                "aggressive,demand",
                "--seeds",
                "0",
                "--workers",
                "2",
                "--json",
                str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8 points" in out
        assert "aggressive" in out and "demand" in out
        import json as json_module

        document = json_module.loads(json_path.read_text())
        assert document["num_points"] == 8
        assert document["results"][0]["workload"] == "zipf:n=30,blocks=8,seed=0"

    def test_sweep_layout_axis(self, capsys):
        code = main(
            [
                "sweep",
                "-w", "scan:blocks=12",
                "-k", "4",
                "-F", "3",
                "-D", "1,2",
                "--layouts", "roundrobin,partitioned",
                "-a", "parallel-aggressive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 points" in out  # D=1 collapses the layout axis
        assert "roundrobin" in out and "partitioned" in out

    def test_workloads_command_lists_catalog(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("zipf", "markov", "multiclient", "thm2", "trace"):
            assert name in out
        for layout in LAYOUT_BUILDERS:
            assert layout in out

    def test_workloads_command_single_entry(self, capsys):
        code = main(["workloads", "markov"])
        out = capsys.readouterr().out
        assert code == 0
        assert "locality" in out and "default" in out

    def test_algorithms_command_lists_catalog(self, capsys):
        code = main(["algorithms"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("aggressive", "conservative", "delay", "demand", "combination"):
            assert name in out

    def test_algorithms_command_single_entry(self, capsys):
        code = main(["algorithms", "demand"])
        out = capsys.readouterr().out
        assert code == 0
        assert "parameters: (none)" in out

    def test_sweep_accepts_parametrised_specs(self, capsys):
        code = main(
            [
                "sweep",
                "-w", "zipf:n=30,blocks=8",
                "-k", "4", "-F", "3",
                "-a", "delay:d=3;demand",
                "--seeds", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 points" in out
        assert "delay(3)" in out and "demand[MIN]" in out

    def test_simulate_with_layout(self, capsys):
        code = main(
            [
                "simulate",
                "-w", "scan:blocks=12",
                "-k", "4", "-F", "3", "-D", "2",
                "--layout", "roundrobin",
                "-a", "parallel-aggressive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "D=2" in out

    def test_sweep_backend_and_resume(self, capsys, tmp_path):
        grid = [
            "sweep",
            "-w", "zipf:n=30,blocks=8",
            "-k", "4", "-F", "3",
            "-a", "aggressive,demand",
            "--seeds", "0",
            "--cache-dir", str(tmp_path),
        ]
        assert main(grid + ["--backend", "thread", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend=thread" in out and "2 simulated" in out
        # Warmed resume: the manifest reports completion, nothing re-runs.
        assert main(grid + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume 'cli-sweep': 2/2 points complete, 0 remaining" in out
        assert "0 simulated" in out and "0 optimum requests" in out

    def test_ratios_rerun_on_a_warmed_cache_dir_solves_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        """A warmed run store makes a `repro ratios` re-run a pure lookup."""
        command = [
            "ratios",
            "-w", "loop:blocks=10,loops=2",
            "-k", "4", "-F", "3",
            "-a", "aggressive,conservative",
            "--cache-dir", str(tmp_path),
        ]
        assert main(command) == 0
        capsys.readouterr()

        import repro.lp.service as service_module

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("warmed store must serve the ratios optimum")

        monkeypatch.setattr(service_module, "compute_optimum_record", boom)
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "(2 cached, 0 simulated, 0 optimum requests" in out
        assert "optimal_stall" in out

    def test_resume_requires_cache_dir(self, capsys):
        code = main(
            ["sweep", "-w", "zipf:n=30,blocks=8", "-k", "4", "-F", "3",
             "-a", "aggressive", "--resume"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--resume needs --cache-dir" in err

    def test_store_stats_and_gc(self, capsys, tmp_path):
        import json as json_module

        cache = tmp_path / "cache"
        assert main(
            ["sweep", "-w", "zipf:n=30,blocks=8", "-k", "4", "-F", "3",
             "-a", "aggressive", "--seeds", "0", "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()
        stats_json = tmp_path / "stats.json"
        assert main(
            ["store", "stats", "--cache-dir", str(cache), "--json", str(stats_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "runs" in out and "sweeps" in out
        payload = json_module.loads(stats_json.read_text())
        assert payload["runs"] == 1 and payload["sweeps"] == 1
        assert main(["store", "gc", "--cache-dir", str(cache)]) == 0
        assert "removed 1 finished sweep manifest" in capsys.readouterr().out

    def test_store_stats_on_missing_db_fails_cleanly(self, capsys, tmp_path):
        code = main(["store", "stats", "--db", str(tmp_path / "nope.sqlite")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no run store" in err

    def test_store_requires_a_location(self, capsys):
        code = main(["store", "stats"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--db or --cache-dir" in err

    def test_lowerbound_command(self, capsys):
        code = main(["lowerbound", "-k", "7", "-F", "4", "--phases", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm2_bound" in out

    def test_bounds_command(self, capsys):
        code = main(["bounds", "--cache-sizes", "8,16", "--fetch-times", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggressive_refined" in out

    def test_error_exit_code(self, capsys):
        code = main(["simulate", "-w", "unknown:workload"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "-w", "zipf:blocs=10"],
            ["ratios", "-w", "zipf:n=abc"],
            ["sweep", "-w", "zipf:seed=None"],
            ["sweep", "-w", "zipf:n=30,blocks=8", "--layouts", "raid5"],
            ["simulate", "-w", "zipf:n=30", "-a", "delay"],
            ["ratios", "-w", "zipf:n=30", "-a", "aggressive;demand:evict=rand"],
            ["sweep", "-w", "zipf:n=30", "-a", "aggressive:tb=low"],
            ["simulate", "-w", "zipf:seed=-1", "-k", "4", "-F", "2", "-a", "aggressive"],
            ["simulate", "-w", "zipf:n=50,skew=nan", "-k", "4", "-F", "2", "-a", "aggressive"],
            *(
                [command, "-w", "zipf:n=40", "-k", "8", "-F", "4", "-a", "aggressive", *bad]
                for command in ("sweep", "ratios")
                for bad in (
                    ["-k", "abc"], ["-F", "x"], ["-D", "x"], ["--seeds", "1.5"],
                    ["-D", "0"], ["-D", "-1"],
                )
            ),
            ["bounds", "--cache-sizes", "x"],
            ["bounds", "--fetch-times", "4,y"],
            ["bench", "engine", "--no-scan", "--reps", "0"],
            ["bench", "engine", "--no-scan", "--num-requests", "0"],
            ["bench", "engine", "--no-scan", "--batch-size", "0"],
            ["simulate", "-w", "zipf:n=40", "-D", "0"],
            ["simulate", "-w", "zipf:n=40", "-k", "4", "-F", "2", "-D", "-1"],
            ["simulate", "-w", "zipf:n=30", "-a", "delay:3"],
            *(
                [command, "-w", "zipf:n=40", "-k", "8", "-F", "4", "-a", "aggressive",
                 "--workers", workers]
                for command in ("sweep", "ratios")
                for workers in ("-1", "-2")
            ),
            *(
                ["simulate", "-w", "zipf:n=60,blocks=20", "-k", "4", "-F", "3", "-D", "2",
                 "-a", algorithm]
                for algorithm in ("aggressive", "conservative", "delay:d=2", "combination")
            ),
            ["sweep", "-w", "zipf:n=60,blocks=20", "-k", "4", "-F", "3", "-D", "1,2",
             "-a", "aggressive"],
            *(
                ["sweep", "-w", "zipf:n=40", "-k", "4", "-F", "2", "-a", spec]
                for spec in UNKNOWN_ALGORITHM_PARAMS
            ),
        ],
    )
    def test_bad_specs_exit_cleanly(self, capsys, command):
        """Regression: bad parameters print one configuration error, no traceback."""
        code = main(command)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        if command[-1] in UNKNOWN_ALGORITHM_PARAMS:
            assert "unknown parameter" in captured.err

    @pytest.mark.parametrize(
        "command",
        [
            *(
                [command, "-w", "zipf:n=40", "-k", "8", "-F", "4", "-a", "aggressive", *bad]
                for command in ("sweep", "ratios")
                for bad in (
                    ["--cache-dir", "{file}"],
                    ["--cache-dir", "{file}/sub"],
                    ["--cache-dir", "{file}", "--resume"],
                    ["--json", "{dir}"],
                    ["--json", "{dir}/missing/out.json"],
                    ["--csv", "{dir}"],
                    ["--csv", "{dir}/missing/out.csv"],
                )
            ),
            *(
                ["sweep", "--watch", "--cache-dir", "{dir}/cache", "-w", "zipf:n=40",
                 "-k", "8", "-F", "4", "-a", "aggressive", "--watch-interval", interval]
                for interval in ("-1", "0", "nan", "inf")
            ),
            ["store", "stats", "--cache-dir", "{store}", "--json", "{dir}"],
            ["store", "stats", "--cache-dir", "{store}", "--json", "{dir}/missing/s.json"],
            ["bench", "engine", "--no-scan", "--reps", "1", "--num-requests", "60",
             "--batch-size", "2", "--json", "{dir}"],
            ["bench", "engine", "--gate", "--no-scan", "--floor", "{dir}/missing.json"],
            ["bench", "engine", "--gate", "--no-scan", "--floor", "{file}"],
            ["bench", "engine", "--gate", "--no-scan", "--floor", "{list_json}"],
        ],
    )
    def test_bad_paths_exit_cleanly(self, capsys, tmp_path, monkeypatch, command):
        """Unusable files and directories print one configuration error, no traceback."""

        def no_polling(seconds):
            raise AssertionError(f"--watch polled with a {seconds}s interval")

        monkeypatch.setattr("time.sleep", no_polling)
        (tmp_path / "file").write_text("not json\n")
        (tmp_path / "list.json").write_text("[1, 2]\n")
        RunStore(store_path_for(tmp_path / "store")).close()
        paths = {
            "file": tmp_path / "file", "dir": tmp_path, "store": tmp_path / "store",
            "list_json": tmp_path / "list.json",
        }
        code = main([arg.format(**paths) for arg in command])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestBenchCommand:
    def test_bench_engine_writes_report_json(self, capsys, tmp_path):
        import json as json_module

        out = tmp_path / "report.json"
        code = main(
            ["bench", "engine", "--num-requests", "300", "--batch-size", "8",
             "--reps", "1", "--no-scan", "--json", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "vector[B=8]" in captured
        assert "worst vector-batch speedup" in captured
        report = json_module.loads(out.read_text())
        assert report["benchmark"] == "engine-throughput"
        assert report["num_requests"] == 300 and report["batch_size"] == 8
        cell = report["results"]["zipf-hot/aggressive"]
        assert cell["vector_batch_requests_per_second"] > 0
        assert "scan_seconds" not in cell  # --no-scan skips the reference rows

    def test_bench_engine_gate_passes_against_a_loose_floor(self, capsys, tmp_path):
        import json as json_module

        floor = tmp_path / "floor.json"
        floor.write_text(json_module.dumps({
            "gate": "engine-vector-perf",
            "num_requests": 300,
            "batch_size": 8,
            "min_vector_batch_requests_per_second": 1.0,
            "min_vector_batch_speedup": 0.01,
        }))
        code = main(
            ["bench", "engine", "--reps", "1", "--no-scan",
             "--gate", "--floor", str(floor)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "perf gate passed" in captured.out

    def test_bench_engine_gate_fails_loudly_below_the_floor(self, capsys, tmp_path):
        import json as json_module

        floor = tmp_path / "floor.json"
        floor.write_text(json_module.dumps({
            "gate": "engine-vector-perf",
            "num_requests": 300,
            "batch_size": 8,
            "min_vector_batch_requests_per_second": 1e15,
            "min_vector_batch_speedup": 0.01,
        }))
        code = main(
            ["bench", "engine", "--reps", "1", "--no-scan",
             "--gate", "--floor", str(floor)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "PERF GATE:" in captured.err
        assert "below the floor" in captured.err

    def test_bench_engine_gate_reports_grid_mismatch(self, capsys, tmp_path):
        import json as json_module

        floor = tmp_path / "floor.json"
        floor.write_text(json_module.dumps({
            "gate": "engine-vector-perf",
            "num_requests": 999,
            "min_vector_batch_requests_per_second": 1.0,
            "min_vector_batch_speedup": 0.01,
        }))
        code = main(
            ["bench", "engine", "--num-requests", "300", "--batch-size", "8",
             "--reps", "1", "--no-scan", "--gate", "--floor", str(floor)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "gate grid mismatch" in captured.err

    def test_simulate_auto_replays_conservative(self, capsys):
        code = main(
            ["simulate", "-w", "zipf:n=40,blocks=10,seed=1", "-k", "6", "-F", "3",
             "-a", "conservative", "--engine", "auto"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine: replay (requested auto)" in out
        assert "stall_time" in out

    def test_simulate_engine_axis(self, capsys):
        code = main(
            ["simulate", "-w", "zipf:n=40,blocks=10,seed=1", "-k", "6", "-F", "3",
             "-a", "aggressive", "--engine", "vector"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stall_time" in out

    def test_sweep_engine_axis_matches_loop(self, capsys, tmp_path):
        seeds = ",".join(str(i) for i in range(10))
        loop_json = tmp_path / "loop.json"
        vector_json = tmp_path / "vector.json"
        base = ["sweep", "-w", "zipf:n=40,blocks=10", "-k", "6", "-F", "3",
                "-a", "aggressive", "--seeds", seeds]
        assert main(base + ["--engine", "loop", "--json", str(loop_json)]) == 0
        assert main(base + ["--engine", "vector", "--json", str(vector_json)]) == 0
        capsys.readouterr()
        loop_text = loop_json.read_text()
        vector_text = vector_json.read_text()
        assert '"vector"' in vector_text
        assert vector_text.replace('"vector"', '"loop"') == loop_text


class TestSweepWatch:
    GRID = ["-w", "zipf:n=30,blocks=8", "-k", "4", "-F", "3",
            "-a", "aggressive,demand", "--seeds", "0"]

    def test_watch_requires_cache_dir(self, capsys):
        code = main(["sweep", *self.GRID, "--watch"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--watch needs --cache-dir" in captured.err

    def test_watch_exits_when_sweep_complete(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", *self.GRID, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        code = main(["sweep", *self.GRID, "--cache-dir", cache_dir, "--watch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "watch" in out and "2/2 points complete" in out
        assert "sweep complete" in out

    def test_watch_polls_until_complete(self, capsys, tmp_path, monkeypatch):
        """An incomplete manifest keeps polling; completion ends the loop."""
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", *self.GRID, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # Register a *wider* grid sharing the store: its manifest is
        # initially incomplete, so the watcher must poll at least once.
        wide = ["-w", "zipf:n=30,blocks=8", "-k", "4,6", "-F", "3",
                "-a", "aggressive,demand", "--seeds", "0"]
        polls = []

        def fake_sleep(seconds):
            polls.append(seconds)
            # Complete the sweep from "another process" during the poll gap.
            assert main(["sweep", *wide, "--cache-dir", cache_dir]) == 0

        import time as time_module

        monkeypatch.setattr(time_module, "sleep", fake_sleep)
        code = main(["sweep", *wide, "--cache-dir", cache_dir,
                     "--watch", "--watch-interval", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert polls == [0.01]
        assert "4/4 points complete" in out
