"""The exact MILP's reduced-cost fixing, its fallback, and the lazy scipy import."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import brute_force_optimal_stall
from repro.disksim import ProblemInstance
from repro.lp import (
    SynchronizedLPModel,
    optimal_parallel_schedule,
    optimal_single_disk,
    solve_integral,
    solve_relaxation,
)
from repro.workloads import uniform_random, zipf
from repro.workloads.multidisk import striped_instance

ROOT = Path(__file__).resolve().parents[2]


def _plain_milp_objective(model: SynchronizedLPModel) -> float:
    """The reference: one ``milp`` call over the whole model, bounds [0, 1]."""
    constraints = []
    A_eq, b_eq = model.equality_system()
    if A_eq is not None:
        constraints.append(scipy.optimize.LinearConstraint(A_eq, b_eq, b_eq))
    A_ub, b_ub = model.inequality_system()
    if A_ub is not None:
        constraints.append(scipy.optimize.LinearConstraint(A_ub, -np.inf, b_ub))
    result = scipy.optimize.milp(
        c=model.objective,
        constraints=constraints,
        integrality=np.ones(model.num_variables),
        bounds=scipy.optimize.Bounds(0.0, 1.0),
    )
    assert result.success
    return float(round(result.fun))


def _count_milp(monkeypatch) -> list:
    """Record, per ``milp`` call, how many variables its bounds fix."""
    calls = []
    original = scipy.optimize.milp

    def counting(*args, **kwargs):
        bounds = kwargs["bounds"]
        size = len(kwargs["c"])
        lower = np.broadcast_to(np.asarray(bounds.lb, dtype=float), (size,))
        upper = np.broadcast_to(np.asarray(bounds.ub, dtype=float), (size,))
        calls.append(int(np.sum(lower > 0) + np.sum(upper < 1)))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting)
    return calls


def _fractional_single_disk() -> SynchronizedLPModel:
    """A reduced single-disk model whose relaxation is fractional (objective 24)."""
    instance = ProblemInstance.single_disk(
        zipf(16, 6, seed=0, prefix="f_"), cache_size=3, fetch_time=4
    )
    return SynchronizedLPModel(instance, aggregate_never_requested=True)


class TestReducedCostFixing:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=14),
        blocks=st.integers(min_value=2, max_value=6),
        k=st.integers(min_value=1, max_value=4),
        fetch_time=st.integers(min_value=1, max_value=4),
        warm_count=st.integers(min_value=0, max_value=4),
        skewed=st.booleans(),
        reduced=st.booleans(),
    )
    def test_fixed_milp_is_exact_on_tiny_instances(
        self, seed, n, blocks, k, fetch_time, warm_count, skewed, reduced
    ):
        """Property: the fixed MILP's objective is the plain MILP's and brute force's."""
        generate = zipf if skewed else uniform_random
        sequence = generate(n, blocks, seed=seed, prefix="t")
        # Warm starts hold requested blocks and, past them, one never requested.
        warm = (sorted(sequence.distinct_blocks, key=str) + ["idle"])[: min(warm_count, k)]
        instance = ProblemInstance.single_disk(
            sequence, cache_size=k, fetch_time=fetch_time, initial_cache=warm
        )
        model = SynchronizedLPModel(instance, aggregate_never_requested=reduced)
        fixed = solve_integral(model, solve_relaxation(model))
        brute = brute_force_optimal_stall(instance).stall_time
        assert fixed.objective == _plain_milp_objective(model) == brute

        # On one disk the parallel driver solves the full model.
        driver = optimal_single_disk if reduced else optimal_parallel_schedule
        optimum = driver(instance)
        assert optimum.stall_time == optimum.charged_stall == brute

    def test_a_fractional_relaxation_fixes_variables_in_one_solve(self, monkeypatch):
        model = _fractional_single_disk()
        relaxation = solve_relaxation(model)
        assert not relaxation.is_integral
        calls = _count_milp(monkeypatch)
        solution = solve_integral(model, relaxation)
        assert len(calls) == 1 and calls[0] > 0
        assert solution.objective == _plain_milp_objective(model)

    def test_a_cutoff_below_the_optimum_falls_back_to_the_plain_milp(self, monkeypatch):
        model = _fractional_single_disk()
        relaxation = solve_relaxation(model)
        lowered = dataclasses.replace(relaxation, objective=relaxation.objective - 1)
        assert lowered.reduced_costs is relaxation.reduced_costs
        calls = _count_milp(monkeypatch)
        solution = solve_integral(model, lowered)
        assert len(calls) == 2 and calls[0] > 0 and calls[1] == 0
        assert solution.objective == _plain_milp_objective(model)

    def test_parallel_disks_solve_the_plain_milp(self, monkeypatch):
        instance = striped_instance(uniform_random(10, 6, seed=1, prefix="p_"), 2, 3, 2)
        calls = _count_milp(monkeypatch)
        optimum = optimal_parallel_schedule(instance)
        assert optimum.method_used == "milp"
        assert calls == [0]

    def test_only_a_relaxation_carries_reduced_costs(self):
        model = _fractional_single_disk()
        relaxation = solve_relaxation(model)
        assert relaxation.reduced_costs.shape == (model.num_variables,)
        assert solve_integral(model, relaxation).reduced_costs is None


def test_importing_the_runner_and_cli_loads_no_scipy():
    code = (
        "import sys\n"
        "import repro.cli, repro.analysis.runner\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
