"""The engine throughput benchmark script: its per-cell statistic and its gate.

``benchmarks/bench_engine_speed.py`` is loaded by path (``benchmarks/`` is
not a package).  These tests run a tiny grid or patch the timings; none of
them measures the 5000 x 256 grid ``BENCH_engine_floor.json`` names.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_speed", ROOT / "benchmarks" / "bench_engine_speed.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_floor(bench, tmp_path, monkeypatch):
    """Point the script at a floor of 300 requests x 8 rows; call it with the bars."""

    def write(min_rps: float, min_speedup: float) -> None:
        path = tmp_path / "floor.json"
        path.write_text(json.dumps({
            "gate": "engine-vector-perf",
            "num_requests": 300,
            "batch_size": 8,
            "min_vector_batch_requests_per_second": min_rps,
            "min_vector_batch_speedup": min_speedup,
        }))
        monkeypatch.setattr(bench, "FLOOR_PATH", path)

    monkeypatch.setattr(bench, "REPORT_PATH", tmp_path / "BENCH_engine.json")
    return write


def _cells(bench):
    return {f"{label}/{algorithm}" for label in bench.WORKLOADS for algorithm in bench.ALGORITHMS}


@pytest.mark.parametrize(
    "pairs, speedup, loop_seconds, batch_seconds",
    [
        # With 4 rows per batch the per-pair speedups are 0.04, 0.08 and
        # 0.06: one fast loop timing cannot decide the cell.
        ([(0.010, 1.0), (0.020, 1.0), (0.030, 2.0)], 0.06, 0.02, 1.0),
        # The gate's 2 pairs: the per-pair speedups 0.04 and 0.12 give their
        # mean, and so do each side's seconds.
        ([(0.010, 1.0), (0.030, 1.0)], 0.08, 0.02, 1.0),
    ],
    ids=["3-pairs", "2-pairs"],
)
def test_cell_speedup_is_the_median_of_per_pair_speedups(
    bench, monkeypatch, pairs, speedup, loop_seconds, batch_seconds
):
    """The gate reads the median of the per-pair speedups, and the cell
    reports each side's median seconds."""
    monkeypatch.setattr(bench, "_time_pairs", lambda instances, spec, reps: pairs)
    report = bench.run_engine_benchmark(50, 4, include_scan=False, reps=len(pairs))
    assert set(report["results"]) == _cells(bench)
    for cell in report["results"].values():
        assert cell["vector_batch_speedup"] == speedup
        assert cell["loop_seconds"] == loop_seconds
        assert cell["vector_batch_seconds"] == batch_seconds
    assert report["worst_vector_batch_speedup"] == speedup


@pytest.mark.parametrize("scan_seconds, code", [(0.1, 0), (0.03, 1)], ids=["10x", "3x"])
def test_default_mode_writes_every_cell_with_scan_rows(
    bench, tiny_floor, monkeypatch, capsys, scan_seconds, code
):
    """Without --gate the report, with scan rows, goes to BENCH_engine.json,
    and a loop-vs-scan speedup below 5x on a small working set exits 1."""
    tiny_floor(1e15, 1e6)  # the default mode enforces no floor bar
    fake = {"loop": 0.01, "scan": scan_seconds}
    monkeypatch.setattr(bench, "_time_single", lambda instance, spec, engine: fake[engine])
    assert bench.main([]) == code
    report = json.loads(bench.REPORT_PATH.read_text())
    assert set(report["results"]) == _cells(bench)
    assert all("scan_seconds" in cell for cell in report["results"].values())
    assert report["worst_small_ws_speedup"] == pytest.approx(scan_seconds / 0.01)
    assert ("WARNING: loop-vs-scan" in capsys.readouterr().err) == bool(code)


def test_gate_writes_every_cell_without_scan_rows_and_passes_a_loose_floor(
    bench, tiny_floor, tmp_path, capsys
):
    tiny_floor(1.0, 0.01)
    out = tmp_path / "gate.json"
    assert bench.main(["--gate", str(out)]) == 0
    captured = capsys.readouterr()
    assert "vector[B=8]" in captured.out
    assert "worst vector-batch speedup" in captured.out
    assert "perf gate passed" in captured.out
    assert "PERF GATE" not in captured.err
    report = json.loads(out.read_text())
    assert report["benchmark"] == "engine-throughput"
    assert (report["num_requests"], report["batch_size"]) == (300, 8)
    assert set(report["results"]) == _cells(bench)
    for cell in report["results"].values():
        assert cell["vector_batch_requests_per_second"] > 0
        assert "scan_seconds" not in cell
    assert "worst_small_ws_speedup" not in report
    assert not bench.REPORT_PATH.exists()  # the gate writes only the OUT it is given


def test_gate_below_the_floor_prints_one_line_per_failing_cell(bench, tiny_floor, capsys):
    tiny_floor(1e15, 0.01)
    assert bench.main(["--gate"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(_cells(bench))
    assert all(line.startswith("PERF GATE: ") and "below the floor" in line for line in lines)
    assert "perf gate passed" not in captured.out
    assert not bench.REPORT_PATH.exists()


@pytest.mark.parametrize(
    "option",
    [
        ["--num-requests", "300"],
        ["--batch-size", "8"],
        ["--reps", "1"],
        ["--no-scan"],
        ["--json", "report.json"],
        ["--floor", "floor.json"],
    ],
    ids=lambda option: option[0],
)
def test_options_beyond_gate_and_out_are_rejected(bench, monkeypatch, capsys, option):
    """The grid and the bars come only from the floor file: an option that
    would vary them, or name another report path, exits 2 before timing."""

    def must_not_time(*_args):
        raise AssertionError("timed a cell despite a bad option")

    monkeypatch.setattr(bench, "_time_pairs", must_not_time)
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--gate", *option])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


def test_gate_measures_the_grid_the_floor_file_names(bench, monkeypatch, tmp_path):
    """The committed floor file sets the grid and the bars, whatever the
    working directory; the gate times 2 pairs per cell."""
    floor = json.loads((ROOT / "BENCH_engine_floor.json").read_text())
    built, timed = [], []

    def build(label, num_requests, count):
        built.append((label, num_requests, count))
        return [label]

    def time_pairs(instances, spec, reps):
        timed.append((instances, spec, reps))
        return [(0.01, 0.1)] * reps  # 256 rows of 5000: 25.6x loop, 12.8M req/s

    monkeypatch.setattr(bench, "build_instances", build)
    monkeypatch.setattr(bench, "_time_pairs", time_pairs)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "gate.json"
    assert bench.main(["--gate", str(out)]) == 0
    grid = (floor["num_requests"], floor["batch_size"])
    assert built == [(label, *grid) for label in bench.WORKLOADS]
    assert {reps for _instances, _spec, reps in timed} == {2}
    report = json.loads(out.read_text())
    assert (report["num_requests"], report["batch_size"]) == grid
