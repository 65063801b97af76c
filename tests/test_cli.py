"""End-to-end coverage of the command line interface."""

import json

import numpy as np
import pytest

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import sample_near_point
from weiljet.cli import _emit, main
from weiljet.errors import ParseError
from weiljet.jsonio import (
    bundle_field_from_json,
    bundle_function_from_json,
    point_from_json,
)

T3 = make_truncated_algebra(1, 2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_describes_the_dual_numbers(capsys):
    code, out, err = run_cli(capsys, "algebra", "--algebra", "dual")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["height"] == 1
    assert payload["basis"] == ["1", "t"]
    assert payload["family"] == "truncated"
    assert payload["width"] == 1


def test_algebra_accepts_truncated_specs(capsys):
    code, out, _ = run_cli(capsys, "algebra", "--algebra", "truncated:2,1")
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_algebra_rejects_bad_specs(capsys):
    code, out, err = run_cli(capsys, "algebra", "--algebra", "septic")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    assert err.startswith("error:")


def test_prolong_square_at_a_jet(capsys):
    code, out, _ = run_cli(
        capsys,
        "prolong",
        "--algebra", "dual",
        "--expr", "x0^2",
        "--point", '{"coords": [{"coeffs": [2, 1]}]}',
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": [4.0, 4.0]}


def test_prolong_uses_the_embedded_algebra(capsys):
    point = '{"algebra": {"family": "truncated", "width": 1, "height": 1}, "coords": [{"coeffs": [2, 1]}]}'
    code, out, _ = run_cli(capsys, "prolong", "--expr", "x0^2", "--point", point)
    assert code == 0
    assert json.loads(out) == {"coeffs": [4.0, 4.0]}


def test_prolong_reports_parse_offsets(capsys):
    code, out, _ = run_cli(
        capsys,
        "prolong",
        "--algebra", "dual",
        "--expr", "x0 +",
        "--point", '{"coords": [{"coeffs": [0, 0]}]}',
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["offset"] == 4


def test_prolong_domain_error_is_exit_three(capsys):
    code, out, _ = run_cli(
        capsys,
        "prolong",
        "--algebra", "dual",
        "--expr", "log(x0)",
        "--point", '{"coords": [{"coeffs": [-1, 1]}]}',
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_bracket_of_coordinates_poisson(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket",
        "--algebra", "dual",
        "--poisson", "canonical:2",
        "--left", "x0",
        "--right", "x1",
        "--point", '{"coords": [{"coeffs": [0.3, 1]}, {"coeffs": [0.7, 0]}]}',
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": [1.0, 0.0]}


def test_bracket_of_coordinates_symplectic(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket",
        "--algebra", "dual",
        "--symplectic", "canonical:2",
        "--left", "x0",
        "--right", "x1",
        "--point", '{"coords": [{"coeffs": [0.3, 1]}, {"coeffs": [0.7, 0]}]}',
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": [-1.0, 0.0]}


def test_bracket_without_point_emits_a_readable_function(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket",
        "--algebra", "truncated:1,2",
        "--poisson", "rotational",
        "--left", "x0",
        "--right", "x1",
    )
    assert code == 0
    fn = bundle_function_from_json(json.loads(out), T3, 3)
    point = sample_near_point(T3, 3, np.random.default_rng(0))
    assert fn.evaluate(point).almost_equal(point.coords[2], tol=1e-10)


def test_hamfield_rotational(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamfield",
        "--algebra", "truncated:1,2",
        "--poisson", "rotational",
        "--fn", "x0",
    )
    assert code == 0
    field = bundle_field_from_json(json.loads(out), T3)
    point = sample_near_point(T3, 3, np.random.default_rng(1))
    values = [c.evaluate(point) for c in field.components]
    assert values[0].almost_equal(T3.zero(), tol=1e-10)
    assert values[1].almost_equal(point.coords[2], tol=1e-10)
    assert values[2].almost_equal(point.coords[1] * T3.from_real(-1.0), tol=1e-10)


def test_hamfield_at_a_point_with_sign(capsys):
    args = [
        "hamfield",
        "--algebra", "dual",
        "--symplectic", "canonical:2",
        "--fn", "(x0^2 + x1^2) / 2",
        "--point", '{"coords": [{"coeffs": [0.5, 0]}, {"coeffs": [0.25, 0]}]}',
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == 1
    assert payload["components"][0]["coeffs"] == [0.25, 0.0]
    assert payload["components"][1]["coeffs"] == [-0.5, 0.0]
    code, out, _ = run_cli(capsys, *args, "--sign", "-1")
    payload = json.loads(out)
    assert payload["sign"] == -1
    assert payload["components"][0]["coeffs"] == [-0.25, 0.0]


def test_hamcheck_symplectic_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--symplectic", "canonical:2",
        "--field", '["1", "0"]',
        "--witness", "x1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "globally": True,
        "locally": True,
        "sign": 1,
        "witness_checked": True,
    }


def test_hamcheck_flipped_sign(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--symplectic", "canonical:2",
        "--field", '["-1", "0"]',
        "--witness", "x1",
        "--sign", "-1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["globally"] is True
    assert payload["sign"] == -1


def test_hamcheck_without_witness_reports_unknown(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--poisson", "canonical:2",
        "--field", '["x0", "0"]',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["locally"] is False
    assert payload["globally"] == "unknown"
    assert payload["witness_checked"] is False


def test_hamcheck_arity_mismatch_is_exit_two(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--poisson", "canonical:2",
        "--field", '["x0", "x1", "x2"]',
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ArityError"


def test_invalid_structure_is_exit_four(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--poisson", '{"arity": 3, "bivector": {"01": "x0", "12": "x1"}}',
        "--field", '["x0", "x1", "x2"]',
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "InvalidPoissonStructure"


def test_lazy_field_serialization_is_exit_four(capsys):
    code, out, _ = run_cli(
        capsys,
        "hamfield",
        "--algebra", "dual",
        "--symplectic", '{"degree": 2, "arity": 2, "coeffs": {"0,1": "1 + x0^2"}}',
        "--fn", "x0 * x1",
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_verify_filtered_run(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "prop6")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [entry["name"] for entry in lines] == ["prop6_interior_prolongation"]
    assert lines[0]["passed"] is True
    assert "1/1 checks passed" in err


def test_verify_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--filter", "taylor", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--filter", "taylor", "--seed", "7")
    assert first == second
    _, timed, _ = run_cli(capsys, "verify", "--filter", "taylor", "--seed", "7", "--timings")
    assert "elapsed" in timed and "elapsed" not in first


def test_verify_mutation_is_exit_five(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "matrix", "--mutate", "neumann_skip"
    )
    assert code == 5
    report = json.loads(out.strip().splitlines()[0])
    assert report["passed"] is False
    assert report["witness"] is not None


def test_usage_errors_are_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bracket", "--algebra", "dual"]) == 2
    capsys.readouterr()
    assert main(["verify", "--mutate", "bogus"]) == 2
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_document(out):
    """The one strict-JSON document a call printed."""
    (line,) = out.strip().splitlines()
    return json.loads(line, parse_constant=_reject_constant)


DUAL_FIELD = ("--algebra", "dual", "--poisson", "canonical:2", "--field", '["x1", "-x0"]')


@pytest.mark.parametrize("argv", [
    ("hamcheck", *DUAL_FIELD, "--samples", "0"),
    ("hamcheck", *DUAL_FIELD, "--samples", "-3"),
    ("verify", "--filter", "taylor", "--samples", "0"),
])
def test_samples_below_one_is_a_parse_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_point_coefficients_are_parse_errors(capsys, value):
    point = '{"coords": [{"coeffs": [%s, 1.0]}]}' % value
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual", "--expr", "x0",
                           "--point", point)
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"
    with pytest.raises(ParseError):
        point_from_json(json.loads(point), make_truncated_algebra(1, 1))
    with pytest.raises(ParseError):
        bundle_function_from_json({"terms": [{"coeff": float(value.lower()),
                                              "pullbacks": ["x0"]}]}, T3, 1)


@pytest.mark.parametrize("algebra,expr,coeffs", [
    ("dual", "exp(x0)", [1000.0, 1.0]),
    ("dual", "x0^64", [1e10, 1.0]),
    ("truncated:1,2", "log(x0)", [1e-200, 1.0, 0.0]),
])
def test_overflow_is_a_domain_error(capsys, algebra, expr, coeffs):
    point = json.dumps({"coords": [{"coeffs": coeffs}]})
    code, out, _ = run_cli(capsys, "prolong", "--algebra", algebra, "--expr", expr,
                           "--point", point)
    assert code == 3
    assert strict_document(out)["error"]["type"] == "DomainError"


def test_deep_nesting_is_a_parse_error(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual",
                           "--expr", "(" * 3000 + "x0" + ")" * 3000,
                           "--point", '{"coords": [{"coeffs": [0.5, 1.0]}]}')
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"


def test_emit_refuses_non_finite_numbers(capsys):
    with pytest.raises(ValueError):
        _emit({"coeffs": [float("nan"), 1.0]})
    assert capsys.readouterr().out == ""
