"""Engine auto-selection is explainable: the fallback reason is reported.

When ``engine="auto"``/``"vector"`` falls back to the loop engine, the
result's ``engine_reason`` (and :func:`~repro.disksim.vector.
ineligibility_reason`) must say why — the runner logs it, so a sweep that
silently ran 10x slower than expected is diagnosable from the debug log.
"""

from __future__ import annotations

import pytest

from helpers import family_spec, random_instance
from repro.algorithms import make_algorithm
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.disksim import ineligibility_reason, simulate_with_engine
from repro.disksim.vector import VECTOR_FAMILIES


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
def test_ineligibility_reason_matches_plan_coverage(family):
    """A family gets a kernel plan on a single-disk instance exactly when
    it is in the exported covered set the sweep planner pre-screens with."""
    instance = random_instance(0)
    reason = ineligibility_reason(instance, make_algorithm(family_spec(family)))
    if family in VECTOR_FAMILIES:
        assert reason is None
    else:
        assert reason is not None and "no vector kernel plan" in reason


def test_ineligibility_reason_on_parallel_instance():
    parallel = random_instance(151, parallel=True)
    assert (
        ineligibility_reason(parallel, make_algorithm("parallel-aggressive"))
        == "parallel-disk instance"
    )


def test_vector_covered_run_sets_no_reason():
    instance = random_instance(0)
    result, engine = simulate_with_engine(
        instance, make_algorithm("aggressive"), engine="auto"
    )
    assert engine == "vector"
    assert result.engine_reason is None
