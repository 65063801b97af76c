"""End-to-end coverage of the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import sample_near_point
from weiljet import cli
from weiljet.cli import MAX_SAMPLES, _emit, main
from weiljet.errors import ParseError
from weiljet.harness import MUTATIONS
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
    assert fn.evaluate(point).almost_equal(T3.element(point.coeffs[2]), tol=1e-10)


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
    assert values[1].almost_equal(T3.element(point.coeffs[2]), tol=1e-10)
    assert values[2].almost_equal(T3.element(point.coeffs[1]) * T3.from_real(-1.0), tol=1e-10)


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


def test_hamcheck_on_a_one_dimensional_poisson_base(capsys):
    # one coordinate gives no pair to sample, so every field is closed
    code, out, _ = run_cli(
        capsys,
        "hamcheck",
        "--algebra", "dual",
        "--poisson", '{"arity":1,"bivector":{}}',
        "--field", '[[{"coeff":[1.0,0.0],"pullbacks":["x0"]}]]',
    )
    assert code == 0
    assert json.loads(out)["locally"] is True


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
    for argv in ([],
                 ["bracket", "--algebra", "dual"],
                 ["verify", "--mutate", "bogus"],
                 ["hamcheck", *DUAL_FIELD, "--samples", "many"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert strict_document(out)["error"]["type"] == "ParseError", argv
        assert err.startswith("usage:"), argv
    # the --mutate choices are still read from the harness, in order
    _, out, err = run_cli(capsys, "verify", "--mutate", "bogus")
    choices = ", ".join(repr(name) for name in sorted(MUTATIONS))
    assert strict_document(out)["error"]["message"].endswith(
        f"invalid choice: 'bogus' (choose from {choices})")
    assert f"[--mutate {{{','.join(sorted(MUTATIONS))}}}]" in err


def test_leading_minus_expression_is_a_usage_error(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual", "--expr", "-x0",
                           "--point", '{"coords": [{"coeffs": [1, 1]}]}')
    assert code == 2
    error = strict_document(out)["error"]
    assert error["type"] == "ParseError"
    assert "--expr" in error["message"]
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual", "--expr=-x0",
                           "--point", '{"coords": [{"coeffs": [1, 1]}]}')
    assert code == 0
    assert strict_document(out) == {"coeffs": [-1.0, -1.0]}


def test_help_prints_usage_and_exits_zero(capsys):
    code, out, err = run_cli(capsys, "prolong", "--help")
    assert code == 0
    assert out.startswith("usage: weiljet prolong")
    assert err == ""
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert f"  --mutate {{{','.join(sorted(MUTATIONS))}}}\n" in out


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_document(out):
    """The one strict-JSON document a call printed."""
    (line,) = out.strip().splitlines()
    return json.loads(line, parse_constant=_reject_constant)


DUAL_FIELD = ("--algebra", "dual", "--poisson", "canonical:2", "--field", '["x1", "-x0"]')

SWAP_FIELD = ("--algebra", "dual", "--symplectic", "canonical:2", "--field", '["x1", "x0"]')


@pytest.mark.parametrize("argv, globally", [
    # rejected witnesses of globally hamiltonian fields prove nothing
    ((*SWAP_FIELD, "--witness", "x0"), "unknown"),
    ((*SWAP_FIELD, "--witness", "(x0^2 - x1^2)/2"), "unknown"),
    ((*DUAL_FIELD, "--witness", "(x0^2+x1^2)/2"), "unknown"),
    ((*SWAP_FIELD, "--witness", "(x1^2 - x0^2)/2", "--sign", "-1"), "unknown"),
    # their correct potentials
    ((*SWAP_FIELD, "--witness", "(x1^2 - x0^2)/2"), True),
    ((*DUAL_FIELD, "--witness", "(x0^2+x1^2)/2", "--sign", "-1"), True),
    ((*SWAP_FIELD, "--witness", "(x0^2 - x1^2)/2", "--sign", "-1"), True),
], ids=["swap-x0", "swap-wrong-sign", "poisson-sign-1", "swap-sign-minus-1",
        "swap-potential", "poisson-sign-minus-1", "swap-potential-sign-minus-1"])
def test_hamcheck_is_globally_true_only_for_a_passing_witness(capsys, argv, globally):
    code, out, _ = run_cli(capsys, "hamcheck", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["locally"] is True
    assert payload["globally"] == globally
    assert payload["witness_checked"] is True


@pytest.mark.parametrize("argv", [
    ("hamcheck", *DUAL_FIELD, "--samples", "0"),
    ("hamcheck", *DUAL_FIELD, "--samples", "-3"),
    ("verify", "--filter", "taylor", "--samples", "0"),
    ("hamcheck", *DUAL_FIELD, "--samples", str(MAX_SAMPLES + 1)),
    # rejected before the near-point batch is drawn
    ("hamcheck", *DUAL_FIELD, "--samples", "100000000000"),
    ("verify", "--filter", "dual_forward_derivative", "--samples", "100000000000"),
    # a tolerance that is not finite, or negative, decides nothing
    ("hamcheck", *DUAL_FIELD, "--tol", "nan"),
    ("hamcheck", *DUAL_FIELD, "--tol", "inf"),
    ("hamcheck", *DUAL_FIELD, "--tol", "-1"),
    ("hamcheck", *DUAL_FIELD, "--seed", "-1"),
    ("verify", "--filter", "taylor", "--seed", "-1"),
    ("verify", "--filter", "no_such_check"),
])
def test_samples_below_one_is_a_parse_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    error = strict_document(out)["error"]
    assert error["type"] == "ParseError"
    assert argv[-2] in error["message"]


def test_parser_reuse_keeps_no_state_between_calls(capsys, monkeypatch):
    """One process running a sequence of calls prints what a fresh process
    prints for each of them, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    sequence = [
        ("bracket", "--algebra", "dual"),
        ("bracket", "--algebra", "dual", "--poisson", "canonical:2",
         "--symplectic", "canonical:2", "-f", "x0", "-g", "x1"),
        ("prolong", "--help"),
        ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
         "--fn", "x0*x1", "--sign", "-1"),
        ("hamcheck", *DUAL_FIELD, "--witness", "x0*x1", "--sign", "-1",
         "--samples", "8", "--seed", "5"),
        ("hamcheck", *DUAL_FIELD, "--witness", "x0*x1"),
        ("verify", "--seed", "3", "--filter", "prop6"),
    ]
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "weiljet", *argv], cwd=root,
                               env=env, capture_output=True)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.encode(), err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser() is cli._build_parser()
    args = cli._build_parser().parse_args(["hamcheck", *DUAL_FIELD])
    assert (args.sign, args.samples, args.seed) == (1, 32, 42)


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


@pytest.mark.parametrize("seed", ["1", "4", "8"])
def test_hamcheck_with_an_overflowing_field_is_a_domain_error(capsys, seed):
    # the field is twice the hamiltonian field of the witness; where
    # x0^100000 overflows, both sides are inf and the residual is not finite
    code, out, _ = run_cli(capsys, "hamcheck", "--algebra", "dual",
                           "--poisson", "canonical:2",
                           "--field", '["0", "200002*x0^100000"]',
                           "--witness", "x0^100001", "--seed", seed)
    assert code == 3
    assert strict_document(out)["error"]["type"] == "DomainError"


def test_point_with_the_wrong_coefficient_count_is_a_parse_error(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--algebra",
                           '{"family":"truncated","width":2,"height":2}',
                           "--expr", "x0", "--point", '{"coords":[[1.0]]}')
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"
    with pytest.raises(ParseError):
        point_from_json({"coords": [[1.0, 0.0]]}, T3)


def test_deep_nesting_is_a_parse_error(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual",
                           "--expr", "(" * 3000 + "x0" + ")" * 3000,
                           "--point", '{"coords": [{"coeffs": [0.5, 1.0]}]}')
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ("algebra", "--algebra", DEEP_JSON),
    ("hamcheck", "--algebra", "dual", "--poisson", DEEP_JSON, "--field", '["x0", "x1"]'),
    ("hamcheck", "--algebra", "dual", "--symplectic", DEEP_JSON,
     "--field", '["x0", "x1"]'),
    ("hamcheck", "--algebra", "dual", "--poisson", "canonical:2", "--field", DEEP_JSON),
    ("prolong", "--algebra", "dual", "--expr", "x0",
     "--point", '{"coords": ' + DEEP_JSON + "}"),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
     "--fn", '{"terms": ' + DEEP_JSON + "}"),
], ids=["algebra", "poisson", "symplectic", "field", "point", "fn"])
def test_deeply_nested_json_is_a_parse_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    error = strict_document(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].endswith("nests too deeply")


@pytest.mark.parametrize("algebra, expr, coeffs, printed", [
    ("dual", "-1*x0", [2, 0], '{"coeffs":[-2.0,-0.0]}'),
    ("dual", "-1*x0", [2, -0.0], '{"coeffs":[-2.0,0.0]}'),
    ("dual", "x0*-1", [2, 0], '{"coeffs":[-2.0,-0.0]}'),
    ("dual", "-1*x0", [-3, 1], '{"coeffs":[3.0,-1.0]}'),
    ("truncated:2,2", "-1*x0", [2, 0, 0, 0, 0, 0],
     '{"coeffs":[-2.0,-0.0,-0.0,-0.0,-0.0,-0.0]}'),
])
def test_constant_factors_keep_signed_zeros(capsys, algebra, expr, coeffs, printed):
    # a constant factor on either side scales the other one, so -1*x0 and
    # x0*-1 agree bit for bit: the nilpotent slot of -1 * (2 + 0t) is -1 * 0
    point = json.dumps({"coords": [{"coeffs": coeffs}]})
    code, out, _ = run_cli(capsys, "prolong", "--algebra", algebra,
                           f"--expr={expr}", "--point", point)
    assert (code, out) == (0, printed + "\n")


_NINES = "9" * 400
_MISTYPED = [
    ("hamcheck", "--algebra", "dual", "--poisson", '{"arity":2,"bivector":[1]}',
     "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--poisson", '{"arity":[1],"bivector":{}}',
     "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--poisson", '{"arity":true,"bivector":{}}',
     "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--poisson", '{"arity":2,"bivector":{"01":[1]}}',
     "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--symplectic", '{"degree":2,"coeffs":[1]}',
     "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--symplectic",
     '{"degree":"2","arity":2,"coeffs":{}}', "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--symplectic",
     '{"degree":2,"arity":[2],"coeffs":{}}', "--field", '["x0","x1"]'),
    ("hamcheck", "--algebra", "dual", "--symplectic",
     '{"degree":2,"coeffs":{"0,1":null}}', "--field", '["x0","x1"]'),
    ("algebra", "--algebra", '{"family":"truncated","width":"1","height":1}'),
    ("algebra", "--algebra", '{"family":"truncated","width":1}'),
    ("algebra", "--algebra", '{"family":"table","constants":{"0":1}}'),
    ("algebra", "--algebra", '{"family":"table","constants":[[[1,0],[0]]]}'),
    # a table algebra's 'dim', when given, is an integer equal to its size
    ("algebra", "--algebra",
     '{"family":"table","dim":3,"constants":[[[1,0],[0,1]],[[0,1],[0,0]]]}'),
    ("algebra", "--algebra",
     '{"family":"table","dim":"two","constants":[[[1,0],[0,1]],[[0,1],[0,0]]]}'),
    ("prolong", "--algebra", "dual", "--expr", "x0", "--point", '{"coords":5}'),
    ("prolong", "--algebra", "dual", "--expr", "x0",
     "--point", '{"coords":[{"coeffs":[1,%s]}]}' % _NINES),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2", "--fn", '{"terms":5}'),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
     "--fn", '{"terms":[{"coeff":1,"pullbacks":"x0"}]}'),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
     "--fn", '{"terms":[{"coeff":1,"pullbacks":[5]}]}'),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
     "--fn", '{"terms":[{"coeff":%s,"pullbacks":["x0"]}]}' % _NINES),
    ("prolong", "--algebra", "dual", "--expr", "x0^" + _NINES,
     "--point", '{"coords":[{"coeffs":[1,1]}]}'),
    ("prolong", "--algebra", "dual", "--expr", "x0^11111111111111111111",
     "--point", '{"coords":[{"coeffs":[1,1]}]}'),
    # a JSON boolean is not a number, wherever a coefficient is read
    ("prolong", "--algebra", "dual", "--expr", "x0",
     "--point", '{"coords":[{"coeffs":[true,false]}]}'),
    ("hamfield", "--algebra", "dual", "--poisson", "canonical:2",
     "--fn", '{"terms":[{"coeff":true,"pullbacks":["x0"]}]}'),
    ("hamfield", "--algebra", "dual", "--poisson", '{"arity":2,"bivector":{"01":true}}',
     "--fn", "x0"),
    ("hamfield", "--algebra", "dual",
     "--symplectic", '{"degree":2,"arity":2,"coeffs":{"0,1":true}}', "--fn", "x0"),
    ("algebra", "--algebra",
     '{"family":"table","constants":[[[true,false],[false,true]],[[false,true],[false,false]]]}'),
    ("algebra", "--algebra",
     '{"family":"table","constants":[[[1,0],[0,1]],[[0,1],[0,1%s]]]}' % ("0" * 400)),
    # nor is a string that spells a number
    ("prolong", "--algebra", "dual", "--expr", "x0",
     "--point", '{"coords":[{"coeffs":["1","2"]}]}'),
    ("algebra", "--algebra",
     '{"family":"table","constants":[[[1,0],[0,1]],[[0,"1.0"],[0,0]]]}'),
]


@pytest.mark.parametrize("argv", _MISTYPED)
def test_mistyped_json_values_and_long_exponents_are_parse_errors(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert strict_document(out)["error"]["type"] == "ParseError"


def test_emit_refuses_non_finite_numbers(capsys):
    with pytest.raises(ValueError):
        _emit({"coeffs": [float("nan"), 1.0]})
    assert capsys.readouterr().out == ""


def test_deep_sum_prolongs_without_recursion(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--algebra", "dual",
                           "--expr", "+".join(["x0"] * 3000),
                           "--point", '{"coords":[{"coeffs":[1,1]}]}')
    assert code == 0
    assert strict_document(out) == {"coeffs": [3000.0, 3000.0]}


def test_deep_sum_hamfield_without_recursion(capsys):
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual",
                           "--poisson", "canonical:2",
                           "--fn", "+".join(["x0*x1"] * 3000))
    assert code == 0
    components = strict_document(out)
    # X = (df/dx1, -df/dx0): one pullback each, a 3000-term sum of x0 or x1
    assert [len(terms) for terms in components] == [1, 1]
    (first,), (second,) = (terms[0]["pullbacks"] for terms in components)
    assert first.count("x0") == 3000 and "x1" not in first
    assert second.count("x1") == 3000 and "x0" not in second


def test_deep_sum_hamfield_reads_back(capsys):
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual",
                           "--poisson", "canonical:2",
                           "--fn", "+".join(["x0*x1"] * 3000))
    assert code == 0
    field = bundle_field_from_json(strict_document(out), make_truncated_algebra(1, 1))
    point = sample_near_point(field.algebra, 2, np.random.default_rng(1))
    x0, x1 = point.coeffs
    np.testing.assert_allclose(field.components[0].evaluate(point).coeffs, -3000 * x0)
    np.testing.assert_allclose(field.components[1].evaluate(point).coeffs, 3000 * x1)


@pytest.mark.parametrize("coeff", [1.5, [1.5, 0.25]], ids=["real", "weighted"])
def test_hamfield_terms_round_trip_through_hamcheck(capsys, coeff):
    # 300 terms: with real coefficients the function is one real sum, which
    # is written as one pullback and must parse back
    terms = [{"coeff": coeff, "pullbacks": [f"x0*x1*x2^{k % 4 + 1}", f"x{k % 3} + {k}"]}
             for k in range(300)]
    fn = json.dumps({"terms": terms})
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual",
                           "--poisson", "rotational", "--fn", fn)
    assert code == 0
    code, verdict, _ = run_cli(capsys, "hamcheck", "--algebra", "dual",
                               "--poisson", "rotational", "--field", out.strip(),
                               "--witness", fn, "--samples", "4", "--tol", "1e-6")
    assert code == 0
    assert strict_document(verdict)["locally"] is True
    assert strict_document(verdict)["globally"] is True


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_non_finite_algebra_table_is_a_validation_error(capsys, entry):
    table = '{"family":"table","constants":[[[1,0],[0,1]],[[0,1],[0,%s]]]}' % entry
    code, out, _ = run_cli(capsys, "algebra", "--algebra", table)
    assert code == 4
    error = strict_document(out)["error"]
    assert error["type"] == "AlgebraValidationError"
    assert "table" in error["message"]


# -- the README contract under generated input ------------------------------------

_LEAVES = st.sampled_from(["x0", "x1", "-x0", "2", "-1.5", "0", "1e308", "1e999"])


def _compound(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    calls = st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), children).map(
        lambda t: f"{t[0]}({t[1]})")
    powers = st.tuples(children, st.integers(-3000, 3000)).map(
        lambda t: f"({t[0]})^{t[1]}")
    return binary | calls | powers


_EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=10) | st.tuples(
    st.sampled_from(["x0", "-x1", "x0*x1", "exp(x0)"]), st.integers(1, 3000)).map(
    lambda t: "+".join([t[0]] * t[1]))

_NAN_TABLE = '{"family":"table","constants":[[[1,0],[0,1]],[[0,1],[0,NaN]]]}'
# (spec, dimension); the valid algebras are listed twice to be drawn more often
_ALGEBRAS = st.sampled_from([
    ("dual", 2), ("dual", 2), ("truncated:1,3", 4), ("truncated:1,3", 4),
    ("truncated:2,2", 6), ("truncated:2,2", 6), ("truncated:0,1", 2),
    ("truncated:1,600", 601), ("septic", 2), (_NAN_TABLE, 2)])
# (flag, spec, arity)
_STRUCTURES = st.sampled_from([("--poisson", "canonical:2", 2), ("--poisson", "rotational", 3),
                               ("--symplectic", "canonical:2", 2)])
_FINITE = st.floats(-3.0, 3.0).map(repr)
_ANY_NUMBER = _FINITE | st.sampled_from(["NaN", "Infinity", "1e308", '"x"', "true", "false"])
# a bivector entry or a form coefficient: an expression string or a JSON number
_ENTRY = _EXPRESSIONS.map(json.dumps) | _ANY_NUMBER
_TABLE_ALGEBRAS = [make_truncated_algebra(w, h) for w, h in ((1, 1), (1, 2), (2, 1), (1, 3))]


@st.composite
def _table_algebra(draw):
    """A table algebra of dimension at most 4, as (spec, dimension): the
    constants of a truncated one, sometimes with one entry redrawn."""
    algebra = draw(st.sampled_from(_TABLE_ALGEBRAS))
    constants = [[[repr(v) for v in row] for row in plane]
                 for plane in algebra.structure_constants.tolist()]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, algebra.dim - 1)) for _ in range(3))
        constants[i][j][k] = draw(_ANY_NUMBER | st.just(_NINES))
    nested = "[%s]" % ", ".join("[%s]" % ", ".join("[%s]" % ", ".join(row) for row in plane)
                                for plane in constants)
    return '{"family": "table", "constants": %s}' % nested, algebra.dim


@st.composite
def _poisson_json(draw):
    """A JSON Poisson spec of arity at most 4, as (flag, spec, arity); some
    keys are out of range, diagonal or malformed."""
    arity = draw(st.integers(1, 4))
    keys = draw(st.lists(st.sampled_from(["01", "02", "12", "13", "23", "10", "00", "0,3",
                                          "14", "x"]), max_size=3, unique=True))
    bivector = ", ".join('"%s": %s' % (key, draw(_ENTRY)) for key in keys)
    return "--poisson", '{"arity": %d, "bivector": {%s}}' % (arity, bivector), arity


@st.composite
def _form_json(draw):
    """A JSON symplectic form spec, as (flag, spec, arity): mostly a 2-form
    on two or four coordinates; sometimes odd, of degree 1, or with keys
    out of order or range, and sometimes without its arity."""
    arity = draw(st.sampled_from([2, 2, 4, 3]))
    degree = draw(st.sampled_from([2, 2, 2, 1]))
    keys = draw(st.lists(st.sampled_from(["0,1", "2,3", "0,2", "1,3", "1,0", "0", "0,5"]),
                         min_size=1, max_size=3, unique=True))
    coeffs = ", ".join('"%s": %s' % (key, draw(_ENTRY)) for key in keys)
    given_arity = ' "arity": %d,' % arity if draw(st.booleans()) else ""
    return "--symplectic", '{"degree": %d,%s "coeffs": {%s}}' % (
        degree, given_arity, coeffs), arity


@st.composite
def _coefficients(draw, dim):
    """Mostly ``dim`` finite numbers; sometimes a wrong count or a bad entry."""
    size = draw(st.sampled_from([dim, dim, dim, 1, 3]))
    numbers = _FINITE if draw(st.integers(0, 3)) else _ANY_NUMBER
    return draw(st.lists(numbers, min_size=size, max_size=size))


@st.composite
def _field(draw, arity, dim):
    """A field as expression strings or as term lists, sometimes with a wrong
    component count."""
    size = draw(st.sampled_from([arity, arity, arity, 1, arity + 1]))
    if draw(st.booleans()):
        return json.dumps([draw(_EXPRESSIONS) for _ in range(size)])
    element = _coefficients(dim).map(lambda c: '{"coeffs": [%s]}' % ", ".join(c))

    def term():
        return '{"coeff": %s, "pullbacks": %s}' % (
            draw(_ANY_NUMBER | element), json.dumps(draw(st.lists(_EXPRESSIONS, max_size=2))))

    return "[%s]" % ", ".join(
        "[%s]" % ", ".join(term() for _ in range(draw(st.integers(0, 2))))
        for _ in range(size))


@st.composite
def _argv(draw):
    spec, dim = draw(_ALGEBRAS | _table_algebra())
    command = draw(st.sampled_from(["algebra", "prolong", "hamfield", "bracket", "hamcheck"]))

    def point(arity):
        return '{"coords": [%s]}' % ", ".join(
            '{"coeffs": [%s]}' % ", ".join(draw(_coefficients(dim)))
            for _ in range(arity))

    if command == "algebra":
        return ["algebra", "--algebra", spec]
    if command == "prolong":
        return ["prolong", "--algebra", spec, "--expr", draw(_EXPRESSIONS),
                "--point", point(draw(st.integers(1, 3)))]
    flag, structure, arity = draw(_STRUCTURES | _poisson_json() | _form_json())
    if command == "hamcheck":
        witness = ["--witness", draw(_EXPRESSIONS)] if draw(st.booleans()) else []
        return ["hamcheck", "--algebra", spec, flag, structure,
                "--field", draw(_field(arity, dim)), *witness]
    at = ["--point", point(arity)] if draw(st.booleans()) else []
    if command == "hamfield":
        return ["hamfield", "--algebra", spec, flag, structure,
                "--fn", draw(_EXPRESSIONS), *at]
    return ["bracket", "--algebra", spec, flag, structure,
            "--left", draw(_EXPRESSIONS), "--right", draw(_EXPRESSIONS), *at]


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(_argv())
def test_cli_contract_holds_for_generated_input(argv):
    """The README contract: exit 0, 2, 3, 4 or 5 with exactly one strict-JSON
    document, within the deadline, whatever the arguments."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    strict_document(out.getvalue())


def test_algebra_at_the_dimension_cap():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "weiljet", "algebra", "--algebra", "truncated:1,511"],
        cwd=root, env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert strict_document(result.stdout)["dim"] == 512


@pytest.mark.parametrize("spec", [
    "truncated:100000,100000",
    "truncated:4000000,4000000",
    '{"family":"truncated","width":600,"height":600}',
    '{"family":"truncated","width":1,"height":' + "9" * 4000 + "}",
])
def test_truncated_specs_past_the_cap_are_refused_at_once(capsys, spec):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "algebra", "--algebra", spec)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    error = strict_document(out)["error"]
    assert error["type"] == "CapacityError"
    assert len(error["message"]) < 100


@pytest.mark.parametrize("spec, width", [
    ("truncated:600,0", 600),
    ("truncated:1000000000000,0", 10 ** 12),
    ('{"family":"truncated","width":600,"height":0}', 600),
])
def test_height_zero_gives_the_reals_at_any_width(capsys, spec, width):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "algebra", "--algebra", spec)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert strict_document(out) == {"basis": ["1"], "dim": 1, "family": "truncated",
                                    "height": 0, "width": width}
    assert make_truncated_algebra(width, 0).compatible_with(make_truncated_algebra(1, 0))


@pytest.mark.parametrize("spec, arity", [('{"arity":50,"bivector":{}}', 50),
                                         ('{"arity":512,"bivector":{}}', 512),
                                         ('{"arity":512,"bivector":{"0,1":"x2"}}', 512),
                                         ("canonical:512", 512)])
def test_poisson_structures_up_to_the_arity_cap_validate_at_once(capsys, spec, arity):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual", "--poisson", spec,
                           "--fn", "x0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(strict_document(out)) == arity


@pytest.mark.parametrize("flag, spec", [
    ("--poisson", '{"arity":513,"bivector":{}}'),
    ("--poisson", "canonical:100000"),
    ("--symplectic", "canonical:100000"),
    ("--symplectic", '{"degree":2,"arity":514,"coeffs":{}}'),
])
def test_structures_past_the_arity_cap_are_refused_at_once(capsys, flag, spec):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual", flag, spec,
                           "--fn", "x0")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert strict_document(out)["error"] == {
        "type": "CapacityError", "message": "a structure's arity is capped at 512"}


# The Jacobi check samples one group, one case per triple with a non-constant
# entry, and names the triple and point of the worst residual.
@pytest.mark.parametrize("bivector, message, arity", [
    ('{"13":"x4^2","04":"x1","23":"sin(x0)"}',
     "Jacobi identity fails on coordinates (0, 1, 3): residual 6.045e+00 at "
     "(0.7988, 1.8767, 0.8676, -0.911, 1.6104)", 5),
    ('{"01":"1","23":"x5","45":"x2"}',
     "Jacobi identity fails on coordinates (3, 4, 5): residual 1.721e+00 at "
     "(1.0973, -0.4397, -1.2296, -0.3088, 1.7316, -1.7214)", 6),
    ('{"01":"1","23":"x0*x1","67":"x3*x4"}',
     "Jacobi identity fails on coordinates (2, 6, 7): residual 2.274e+00 at "
     "(1.404, -1.0894, 1.4697, 0.4757, -1.4868, 1.754, -0.2351, 0.1098)", 8),
])
def test_jacobi_failures_name_the_worst_triple_and_point(capsys, bivector, message,
                                                         arity):
    spec = f'{{"arity":{arity},"bivector":{bivector}}}'
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual", "--poisson", spec,
                           "--fn", "x0")
    assert code == 4
    assert strict_document(out)["error"] == {"type": "InvalidPoissonStructure",
                                             "message": message}


def test_an_infinite_bivector_entry_is_a_domain_error(capsys):
    # pi_01 = inf * x2 gives Jacobi defects that are not finite
    spec = '{"arity":5,"bivector":{"01":"1e308*10*x2"}}'
    code, out, _ = run_cli(capsys, "hamfield", "--algebra", "dual", "--poisson", spec,
                           "--fn", "x0")
    assert code == 3
    assert strict_document(out)["error"] == {
        "type": "DomainError", "message": "a sampled residual is not finite"}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Runs one command through the given entry point, then prints the BLAS
# variables the process ended with on stderr.
ENTRY_PROBE = """
import json, os, sys
{entry}
code = main()
print(json.dumps({{v: os.environ.get(v) for v in {variables!r}}}), file=sys.stderr)
sys.exit(code)
"""


def run_entry(entry: str, argv, **preset):
    """``argv`` through ``entry`` in a fresh process whose environment has
    none of the BLAS variables but ``preset``; the process result and the
    variables it ended with."""
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env.update(preset)
    code = ENTRY_PROBE.format(entry=entry, variables=BLAS_THREADS)
    result = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env,
                            capture_output=True, text=True, timeout=120)
    return result, json.loads(result.stderr.splitlines()[-1])


PINNED = "from weiljet.__main__ import run as main"
UNPINNED = "from weiljet.cli import main"


def test_the_entry_point_pins_unset_blas_pools_to_one_thread():
    result, variables = run_entry(PINNED, ["algebra", "--algebra", "dual"])
    assert result.returncode == 0, result.stderr
    assert variables == dict.fromkeys(BLAS_THREADS, "1")
    result, variables = run_entry(PINNED, ["algebra", "--algebra", "dual"],
                                  OPENBLAS_NUM_THREADS="4")
    assert result.returncode == 0, result.stderr
    assert variables == {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
                         "MKL_NUM_THREADS": "1"}
    # the CLI module itself sets nothing
    result, variables = run_entry(UNPINNED, ["algebra", "--algebra", "dual"])
    assert result.returncode == 0, result.stderr
    assert variables == dict.fromkeys(BLAS_THREADS)


def test_the_blas_pin_leaves_verify_output_unchanged():
    pinned, _ = run_entry(PINNED, ["verify", "--seed", "42"])
    unpinned, _ = run_entry(UNPINNED, ["verify", "--seed", "42"])
    assert pinned.returncode == unpinned.returncode == 0
    assert pinned.stdout == unpinned.stdout
    # stderr less the probe's own last line
    assert pinned.stderr.splitlines()[:-1] == unpinned.stderr.splitlines()[:-1]
