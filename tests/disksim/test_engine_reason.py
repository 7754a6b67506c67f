"""Engine auto-selection is explainable: the fallback reason is reported.

When ``engine="auto"`` falls back to the loop engine, the
result's ``engine_reason`` — the reason the kernel's one eligibility check
returns, or the event log the loop alone records — must say why: the runner
logs it, so a sweep that silently ran 10x slower than expected is
diagnosable from the debug log.  One-disk Conservative runs as a replay of
MIN's plan and reports no reason.
"""

from __future__ import annotations

import pytest

from helpers import family_spec, random_instance
from repro.algorithms import make_algorithm
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.disksim import (
    ProblemInstance,
    RequestSequence,
    run_batch,
    simulate,
    simulate_with_engine,
)
from repro.disksim.vector import VECTOR_FAMILIES

#: Families a one-disk auto request runs as a replay of MIN's plan.
REPLAY_FAMILIES = frozenset({"conservative", "parallel-conservative"})


def test_loop_engine_sets_no_reason():
    result, engine = simulate_with_engine(
        random_instance(0), make_algorithm("aggressive"), engine="loop"
    )
    assert engine == "loop"
    assert result.engine_reason is None


def test_auto_on_parallel_instance_reports_reason():
    instance = random_instance(151, parallel=True)
    result, engine = simulate_with_engine(
        instance, make_algorithm("parallel-aggressive"), engine="auto"
    )
    assert engine == "loop"
    assert result.engine_reason == "parallel-disk instance"


@pytest.mark.parametrize("family", sorted(ALGORITHM_REGISTRY))
def test_engine_reason_matches_plan_coverage(family):
    """A family runs on the kernel on a single-disk instance exactly when it
    is in the exported covered set the sweep planner pre-screens with; the
    two Conservative families run as a replay, and the rest on the loop.  A
    batch row of the same pair reports the same engine."""
    instance = random_instance(0)
    result, engine = simulate_with_engine(
        instance, make_algorithm(family_spec(family)), engine="auto"
    )
    (outcome,) = run_batch([(instance, make_algorithm(family_spec(family)))])
    assert outcome.engine == engine
    if family in VECTOR_FAMILIES:
        assert engine == "vector"
        assert result.engine_reason is None
    elif family in REPLAY_FAMILIES:
        assert engine == "replay"
        assert result.engine_reason is None
    else:
        assert engine == "loop"
        assert result.engine_reason is not None
        assert "no vector kernel plan" in result.engine_reason


# (instance, algorithm spec, record_events, expected engine_reason) per case.
FALLBACK_CASES = {
    "parallel-disk": (
        lambda: random_instance(151, parallel=True),
        "parallel-aggressive",
        False,
        "parallel-disk instance",
    ),
    "no-plan": (
        lambda: random_instance(0),
        "demand",
        False,
        "no vector kernel plan for policy 'demand[MIN]'",
    ),
    # Until ParallelConservative is mended on D >= 2, the replay covers one disk only.
    "parallel-conservative": (
        lambda: random_instance(151, parallel=True),
        "parallel-conservative",
        False,
        "parallel-disk instance",
    ),
    "ambiguous-blocks": (
        lambda: ProblemInstance.single_disk(
            RequestSequence([1, "1", 2, 1, 3, "1", 2, 3]), cache_size=2, fetch_time=2
        ),
        "aggressive",
        False,
        "ambiguous block identifiers (distinct blocks share a string form)",
    ),
    "empty-sequence": (
        lambda: ProblemInstance.single_disk(
            RequestSequence([], allow_empty=True), cache_size=2, fetch_time=2
        ),
        "aggressive",
        False,
        "empty request sequence",
    ),
    "event-log": (
        lambda: random_instance(0),
        "aggressive",
        True,
        "event log requested; only the loop engine records one",
    ),
    "event-log-conservative": (
        lambda: random_instance(0),
        "conservative",
        True,
        "event log requested; only the loop engine records one",
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_vector_fallback_names_its_reason_and_matches_loop(case):
    """Every reason an auto request falls back for: the run reports
    ``loop`` with that exact reason and the loop engine's schedule and
    metrics, and a batch row without an event log is labelled ``loop`` too."""
    build, spec, record_events, reason = FALLBACK_CASES[case]
    instance = build()
    result, engine = simulate_with_engine(
        instance, make_algorithm(spec), engine="auto", record_events=record_events
    )
    assert engine == "loop"
    assert result.engine_reason == reason
    loop = simulate(instance, make_algorithm(spec), engine="loop")
    assert result.schedule == loop.schedule
    assert result.metrics == loop.metrics
    if not record_events:
        (outcome,) = run_batch([(instance, make_algorithm(spec))], schedules=True)
        assert outcome.engine == "loop"
        assert outcome.schedule == loop.schedule
        assert outcome.metrics == loop.metrics


def test_vector_covered_run_sets_no_reason():
    instance = random_instance(0)
    result, engine = simulate_with_engine(
        instance, make_algorithm("aggressive"), engine="auto"
    )
    assert engine == "vector"
    assert result.engine_reason is None
