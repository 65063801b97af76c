"""End-to-end coverage of the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
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
    x0, x1 = (c.coeffs for c in point.coords)
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
_ANY_NUMBER = _FINITE | st.sampled_from(["NaN", "Infinity", "1e308", '"x"'])


@st.composite
def _coefficients(draw, dim):
    """Mostly ``dim`` finite numbers; sometimes a wrong count or a bad entry."""
    size = draw(st.sampled_from([dim, dim, dim, 1, 3]))
    numbers = _FINITE if draw(st.integers(0, 3)) else _ANY_NUMBER
    return draw(st.lists(numbers, min_size=size, max_size=size))


@st.composite
def _argv(draw):
    spec, dim = draw(_ALGEBRAS)
    command = draw(st.sampled_from(["algebra", "prolong", "hamfield", "bracket"]))

    def point(arity):
        return '{"coords": [%s]}' % ", ".join(
            '{"coeffs": [%s]}' % ", ".join(draw(_coefficients(dim)))
            for _ in range(arity))

    if command == "algebra":
        return ["algebra", "--algebra", spec]
    if command == "prolong":
        return ["prolong", "--algebra", spec, "--expr", draw(_EXPRESSIONS),
                "--point", point(draw(st.integers(1, 3)))]
    flag, structure, arity = draw(_STRUCTURES)
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
