"""Boundary fuzzing: bad spec parameters and trace files raise typed errors.

Every registered workload and algorithm parameter is fed bounded bad values
— ``-1``, ``0``, NaN, infinities, non-numeric text and integers up to 10**4
in magnitude — through the same builders the CLI and the runner use.  Each
call must either build or raise a :class:`~repro.errors.ReproError` (which
the CLI reports as a one-line ``error:``); any other exception is a raw
traceback escaping the boundary.  A disk count below 1 is rejected for
every workload.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import ALGORITHM_REGISTRY, make_algorithm
from repro.errors import ConfigurationError, InvalidSequenceError, ReproError
from repro.workloads.spec import WORKLOAD_REGISTRY, build_workload_instance

BAD_VALUES = st.one_of(
    st.sampled_from(["-1", "0", "nan", "inf", "-inf", "abc"]),
    st.integers(min_value=-10**4, max_value=10**4).map(str),
)

WORKLOAD_PARAMS = [
    (name, param.name)
    for name, definition in sorted(WORKLOAD_REGISTRY.items())
    for param in definition.params
]

ALGORITHM_PARAMS = [
    (name, param.name)
    for name, definition in sorted(ALGORITHM_REGISTRY.items())
    for param in definition.params
]


#: Settings the algorithms no longer take, each with a value it once accepted:
#: Delay's ``d`` is the only algorithm parameter left.
REMOVED_ALGORITHM_PARAMS = [
    ("aggressive", "tiebreak", "low"),
    ("combination", "alt", "demand"),
    ("combination", "d", "5"),
    ("combination", "delay", "delay:d=5"),
    ("demand", "evict", "lru"),
    ("parallel-aggressive", "order", "desc"),
    ("parallel-aggressive", "tiebreak", "low"),
    ("parallel-conservative", "order", "desc"),
]


def _spec_id(pair) -> str:
    return f"{pair[0]}:{pair[1]}"


def _bad_values(test):
    """Always try the named bad values, then let hypothesis draw more."""
    for value in ("-1", "0", "nan", "inf", "abc"):
        test = example(value=value)(test)
    return settings(max_examples=10, deadline=None)(given(value=BAD_VALUES)(test))


@pytest.mark.parametrize("param", WORKLOAD_PARAMS, ids=_spec_id)
@_bad_values
def test_workload_parameter_builds_or_raises_a_repro_error(param, value):
    workload, name = param
    try:
        build_workload_instance(f"{workload}:{name}={value}", cache_size=4, fetch_time=3)
    except ReproError:
        pass


@pytest.mark.parametrize("param", ALGORITHM_PARAMS, ids=_spec_id)
@_bad_values
def test_algorithm_parameter_builds_or_raises_a_repro_error(param, value):
    algorithm, name = param
    try:
        make_algorithm(f"{algorithm}:{name}={value}")
    except ReproError:
        pass


@pytest.mark.parametrize("param", REMOVED_ALGORITHM_PARAMS, ids=_spec_id)
@_bad_values
def test_removed_algorithm_parameter_is_unknown(param, value):
    algorithm, name, accepted_once = param
    for setting in (accepted_once, value):
        with pytest.raises(
            ConfigurationError,
            match=f"unknown parameter\\(s\\) '{name}'; valid parameters: \\(none\\)",
        ):
            make_algorithm(f"{algorithm}:{name}={setting}")


@pytest.mark.parametrize("disks", [0, -1])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_REGISTRY))
def test_disk_count_below_one_is_a_configuration_error(workload, disks):
    with pytest.raises(ConfigurationError, match=f"disk count must be at least 1, got {disks}"):
        build_workload_instance(workload, cache_size=4, fetch_time=3, disks=disks)


@pytest.mark.parametrize(
    "case, error",
    [
        ("missing", ConfigurationError),
        ("directory", ConfigurationError),
        ("empty", InvalidSequenceError),
        ("non-utf8", ConfigurationError),
    ],
)
def test_bad_trace_file_is_a_typed_error_naming_the_path(tmp_path, case, error):
    path = tmp_path / "trace.txt"
    if case == "directory":
        path.mkdir()
    elif case == "empty":
        path.write_text("")
    elif case == "non-utf8":
        path.write_bytes(b"a\n\xff\xfe\nb\n")
    with pytest.raises(error, match="trace file"):
        build_workload_instance(f"trace:path={path}", cache_size=4, fetch_time=3)
