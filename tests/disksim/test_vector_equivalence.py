"""The vector kernel's own API: batches, fallback rows and run records.

The struct-of-arrays batch engine (``"vector"``, which ``engine="auto"``
picks for the Delay family) must be a pure performance transformation of
the loop engine: the :class:`SimMetrics` and the :class:`Schedule` — every
fetch, start time, block and victim — must match exactly, and a
:class:`RunRecord` produced through the vector path
must serialize to the same bytes as the loop path (the ``engine``
provenance field is the one permitted difference; these tests normalize it
before comparing).  The per-instance scan == loop == vector oracle over 225
randomized instances is ``test_engine_equivalence.py``; this module covers
what that oracle does not reach: stacked batches, mixed batches, both of
Combination's branches, the victim tie order and run records.
"""

from __future__ import annotations

import json

import pytest

from helpers import random_instance
from repro.algorithms import (
    Aggressive,
    Combination,
    Conservative,
    Delay,
    DemandFetch,
)
from repro.algorithms.registry import make_algorithm
from repro.analysis.runner import evaluate_instances
from repro.disksim import (
    ProblemInstance,
    RequestSequence,
    run_batch,
    simulate,
    simulate_batch,
    simulate_with_engine,
)
from repro.workloads import uniform_random

#: Every registered single-disk-capable algorithm spec (two Delay depths,
#: Combination and the two fallback families).
ALL_SPECS = (
    "aggressive",
    "delay:d=2",
    "delay:d=7",
    "combination",
    "conservative",
    "demand",
)


def test_simulate_batch_matches_serial_simulation():
    """One stacked pass over many same-shape instances == one-by-one loop runs."""
    instances = [random_instance(seed) for seed in (3, 9, 21, 33)]
    for spec in ("aggressive", "delay:d=4"):
        outcomes = simulate_batch(instances, spec, schedules=True)
        assert [o.engine for o in outcomes] == ["vector"] * len(instances)
        for instance, outcome in zip(instances, outcomes):
            reference = simulate(instance, make_algorithm(spec), engine="loop")
            assert outcome.metrics == reference.metrics
            assert outcome.schedule == reference.schedule, instance.sequence[0]


def test_run_batch_mixes_covered_and_fallback_pairs():
    """Per-pair fallback inside one batch: covered rows vector, one-disk
    Conservative the replay, the rest loop."""
    instance = random_instance(5)
    pairs = [
        (instance, Aggressive()),
        (instance, Conservative()),
        (instance, Delay(3)),
        (instance, DemandFetch()),
    ]
    outcomes = run_batch(pairs)
    assert [o.engine for o in outcomes] == ["vector", "replay", "vector", "loop"]
    for (inst, policy), outcome in zip(
        [(instance, Aggressive()), (instance, Conservative()),
         (instance, Delay(3)), (instance, DemandFetch())],
        outcomes,
    ):
        assert outcome.metrics == simulate(inst, policy, engine="loop").metrics


@pytest.mark.parametrize(
    "cache_size, fetch_time, component",
    [(2, 8, Delay), (32, 4, Aggressive)],
    ids=["delay-branch", "aggressive-branch"],
)
def test_combination_runs_on_the_kernel_as_its_selected_component(
    cache_size, fetch_time, component
):
    """Both branches of Corollary 2's rule resolve to a kernel plan, and the
    kernel's run and recorded name match the loop engine's."""
    instance = ProblemInstance.single_disk(
        uniform_random(200, 96, seed=7), cache_size=cache_size, fetch_time=fetch_time
    )
    selected = Combination.select_for(instance)
    assert type(selected) is component
    vector, engine = simulate_with_engine(instance, Combination(), engine="auto")
    assert engine == "vector"
    loop = simulate(instance, Combination(), engine="loop")
    assert vector.schedule == loop.schedule
    assert vector.metrics == loop.metrics
    assert vector.policy_name == loop.policy_name == f"combination[{selected.name}]"


@pytest.mark.parametrize("spec", ["aggressive", "delay:d=2"])
def test_kernel_breaks_victim_ties_in_the_engine_order(spec):
    """The warm cache holds six blocks that are never requested, so the first
    six victims are all ties; both engines take them in descending ``str``
    order, the engine's native tie order."""
    warm = ["w5", "w0", "w3", "w1", "w4", "w2"]
    sequence = RequestSequence([f"b{i % 9}" for i in range(40)])
    instance = ProblemInstance.single_disk(
        sequence, cache_size=6, fetch_time=3, initial_cache=warm
    )
    vector, engine = simulate_with_engine(instance, make_algorithm(spec), engine="auto")
    assert engine == "vector"
    loop = simulate(instance, make_algorithm(spec), engine="loop")
    assert vector.schedule == loop.schedule
    assert vector.metrics == loop.metrics
    assert [f.victim for f in loop.schedule.fetches[:6]] == sorted(warm, reverse=True)


def _normalized_json(result_set):
    """Sorted-key record dumps with the engine provenance field normalized."""
    dumps = []
    for record in result_set.records:
        payload = record.to_json_dict()
        payload["engine"] = "<engine>"
        dumps.append(json.dumps(payload, sort_keys=True))
    return dumps


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_run_records_byte_identical_across_engines(warm):
    """Acceptance: vector RunRecords == loop RunRecords, byte for byte.

    All six algorithm specs over warm- and cold-cache instances; the
    ``engine`` field is the one permitted difference and is normalized on
    both sides before comparing.
    """
    labeled = []
    for seed in (2, 4, 11):
        instance = random_instance(seed if warm else seed + 1)
        if not warm:
            instance = ProblemInstance.single_disk(
                instance.sequence,
                cache_size=instance.cache_size,
                fetch_time=instance.fetch_time,
            )
        labeled.append((f"inst{seed}", instance))
    loop = evaluate_instances(labeled, ALL_SPECS, engine="loop")
    vector = evaluate_instances(labeled, ALL_SPECS, engine="auto")
    assert _normalized_json(vector) == _normalized_json(loop)
    engines = {record.engine for record in vector.records}
    assert "vector" in engines  # the covered families really took the kernel
    assert {record.engine for record in loop.records} == {"loop"}
