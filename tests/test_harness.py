"""Registry plumbing and determinism of the randomized check suite."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from weiljet.errors import DomainError
from weiljet.harness import (
    _REGISTRY,
    BATTERY,
    CHECK_NAMES,
    MUTATION_TARGETS,
    MUTATIONS,
    CheckReport,
    _worst_case,
    battery_algebra,
    default_ops,
    default_specs,
    run_suite,
)


def test_battery_shape():
    keys = [spec.key for spec in BATTERY]
    assert keys == ["dual", "t3", "t4", "m2", "m3"]
    assert battery_algebra("dual").dim == 2
    assert battery_algebra("m3").dim == 6
    with pytest.raises(ValueError):
        battery_algebra("unknown")


def test_check_names_are_sorted_and_complete():
    assert list(CHECK_NAMES) == sorted(CHECK_NAMES)
    assert len(CHECK_NAMES) == 21
    assert "prop6_interior_prolongation" in CHECK_NAMES


def test_mutation_registry_targets_known_checks():
    assert set(MUTATIONS) == set(MUTATION_TARGETS)
    for names in MUTATION_TARGETS.values():
        for name in names:
            assert name in CHECK_NAMES


def test_default_specs_filters():
    subset = default_specs(name_filter="prop")
    assert subset and all("prop" in spec.name for spec in subset)
    named = default_specs(names=("tau_calculus",), samples=3)
    assert [spec.name for spec in named] == ["tau_calculus"]
    assert named[0].samples == 3
    dual_only = default_specs(names=("morphism_function_lift",), algebras=("dual",))
    assert dual_only[0].algebras == ("dual",)
    with pytest.raises(ValueError):
        default_specs(names=("no_such_check",))


def test_run_suite_empty_and_unknown_mutation():
    assert run_suite(()) == []
    with pytest.raises(ValueError):
        run_suite((), mutation="no_such_mutation")


def test_report_serialization():
    report = CheckReport("demo", True, 1.5e-10, {"point": [0.0]}, elapsed=0.25)
    payload = report.to_json()
    assert list(payload) == ["name", "passed", "worst_residual", "witness"]
    timed = report.to_json(include_timing=True)
    assert "elapsed" in timed
    line = report.json_line()
    assert json.loads(line)["name"] == "demo"
    assert " " not in line.split('"witness"')[0]


def test_suite_is_deterministic():
    names = ("tau_calculus", "poisson_leibniz")
    first = [r.json_line() for r in run_suite(default_specs(names=names, seed=9))]
    second = [r.json_line() for r in run_suite(default_specs(names=names, seed=9))]
    assert first == second
    shifted = [r.json_line() for r in run_suite(default_specs(names=names, seed=10))]
    assert [json.loads(line)["name"] for line in shifted] == sorted(names)


def test_reports_come_back_sorted_and_passing():
    names = ("matrix_inverse_neumann", "dual_forward_derivative")
    reports = run_suite(default_specs(names=names))
    assert [r.name for r in reports] == sorted(names)
    for report in reports:
        assert report.passed
        assert report.worst_residual >= 0.0


def test_worst_case_keeps_the_first_of_tied_residuals():
    def cases(spec, ops, rng):
        yield 0.5, {"case": 0}
        yield 2.0, {"case": 1}
        yield 1.0, {"case": 2}
        yield 2.0, {"case": 3}

    assert _worst_case(cases, None, None, None) == (2.0, {"case": 1})


def test_worst_case_refuses_a_non_finite_residual():
    def cases(spec, ops, rng):
        yield 0.5, {"case": 0}
        yield float("nan"), {"case": 1}
        yield 1.0, {"case": 2}

    spec = default_specs(names=("tau_calculus",))[0]
    with pytest.raises(DomainError):
        _worst_case(cases, spec, None, None)


def test_run_suite_refuses_zero_samples():
    with pytest.raises(ValueError):
        run_suite(default_specs(names=("tau_calculus",), samples=0))


def test_worst_case_of_a_check_without_cases():
    def cases(spec, ops, rng):
        yield from ()

    assert _worst_case(cases, None, None, None) == (0.0, None)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_registered_callable_runs_the_whole_check(name):
    # timing wrappers around the registered callable must see the whole run
    check, spec = _REGISTRY[name]
    result = check(replace(spec, samples=1), default_ops(), np.random.default_rng(0))
    assert isinstance(result, tuple) and not inspect.isgenerator(result)
    residual, witness = result
    assert isinstance(residual, float)
    assert isinstance(witness, dict)
