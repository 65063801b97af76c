"""Parser, calculus, and truncated evaluation for scalar expressions.

Derivatives and jet coefficients are checked against sympy, which knows
nothing about this package's evaluation code.
"""

import gc
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from weiljet import expression
from weiljet.algebra import NotInvertible, make_truncated_algebra
from weiljet.errors import ArityError, DomainError, ParseError, UnknownIdentifier
from weiljet.expression import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    _taylor_lift,
    add,
    call,
    compose,
    const,
    differentiate,
    div,
    eval_real,
    eval_weil,
    mul,
    neg,
    parse_expr,
    pow_,
    sub,
)
from weiljet.sampling import random_expression

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)
T4 = make_truncated_algebra(1, 3)
M2 = make_truncated_algebra(2, 1)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def to_sympy(expr, symbols):
    """Mirror an expression tree into sympy for an independent oracle."""
    if isinstance(expr, Const):
        return sp.Float(expr.value, 17)
    if isinstance(expr, Var):
        return symbols[expr.index]
    if isinstance(expr, Add):
        return to_sympy(expr.a, symbols) + to_sympy(expr.b, symbols)
    if isinstance(expr, Sub):
        return to_sympy(expr.a, symbols) - to_sympy(expr.b, symbols)
    if isinstance(expr, Mul):
        return to_sympy(expr.a, symbols) * to_sympy(expr.b, symbols)
    if isinstance(expr, Div):
        return to_sympy(expr.a, symbols) / to_sympy(expr.b, symbols)
    if isinstance(expr, Pow):
        return to_sympy(expr.base, symbols) ** expr.exponent
    if isinstance(expr, Call):
        return getattr(sp, expr.fn)(to_sympy(expr.arg, symbols))
    raise TypeError(type(expr).__name__)


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("-x0^2", [2.0], -4.0),
        ("2*x0 + 1", [3.0], 7.0),
        ("x0 - x1 - x2", [10.0, 3.0, 2.0], 5.0),
        ("x0 / x1 / x2", [12.0, 3.0, 2.0], 2.0),
        ("2 + 3 * 4", [0.0], 14.0),
        ("(2 + 3) * 4", [0.0], 20.0),
        ("-2^2", [0.0], -4.0),
        ("2 * x0^3", [2.0], 16.0),
        ("x0^0", [5.0], 1.0),
        ("x0^-2", [2.0], 0.25),
        ("sin(0) + cos(0)", [0.0], 1.0),
    ],
)
def test_precedence_oracles(text, point, expected):
    f = parse_expr(text, len(point))
    assert eval_real(f, point) == pytest.approx(expected, abs=1e-12)


@given(st.integers(1, 3), seeds)
def test_parse_print_roundtrip(arity, seed):
    rng = np.random.default_rng(seed)
    f = random_expression(arity, rng)
    g = parse_expr(f.text, arity)
    assert g is f
    point = rng.uniform(-1.5, 1.5, arity)
    assert eval_real(g, point) == pytest.approx(eval_real(f, point), rel=1e-12, abs=1e-12)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as excinfo:
        parse_expr("x0 +", 1)
    assert excinfo.value.offset == 4
    with pytest.raises(ParseError) as excinfo:
        parse_expr("x0 + * x1", 2)
    assert excinfo.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_expr("foo(x0)", 1)


def test_variable_beyond_arity():
    with pytest.raises(ArityError):
        parse_expr("x5", 2)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expr("x0^1.5", 1)
    with pytest.raises(ParseError):
        parse_expr("x0^x1", 2)


def test_constant_folding_guards_domains():
    with pytest.raises(DomainError):
        parse_expr("log(-1)", 1)
    with pytest.raises(DomainError):
        parse_expr("x0 / 0", 1)


def test_eval_real_domain_errors():
    with pytest.raises(DomainError):
        eval_real(parse_expr("log(x0)", 1), [-1.0])
    with pytest.raises(DomainError):
        eval_real(parse_expr("x0 / x1", 2), [1.0, 0.0])


def test_eval_weil_log_needs_positive_augmentation():
    f = parse_expr("log(x0)", 1)
    with pytest.raises(DomainError):
        eval_weil(f, [DUAL.element([-1.0, 1.0])])


def test_eval_weil_division_by_nilpotent():
    f = parse_expr("x0 / x1", 2)
    with pytest.raises(NotInvertible):
        eval_weil(f, [DUAL.unit(), DUAL.basis_element(1)])


@given(st.integers(1, 3), seeds)
def test_differentiate_matches_sympy(arity, seed):
    rng = np.random.default_rng(seed)
    f = random_expression(arity, rng)
    symbols = sp.symbols(f"x0:{arity}")
    index = int(rng.integers(arity))
    g = differentiate(f, index)
    oracle = sp.diff(to_sympy(f, symbols), symbols[index])
    for _ in range(3):
        point = rng.uniform(-1.2, 1.2, arity)
        want = float(oracle.subs(dict(zip(symbols, point))).evalf())
        assert eval_real(g, point) == pytest.approx(want, rel=1e-8, abs=1e-8)


@given(seeds)
def test_eval_weil_carries_taylor_coefficients(seed):
    # f(a + t) on R[t]/t^4 lists f^(k)(a)/k! along the powers of t
    rng = np.random.default_rng(seed)
    f = random_expression(1, rng)
    a = float(rng.uniform(-1.0, 1.0))
    got = eval_weil(f, [T4.element([a, 1.0, 0.0, 0.0])]).coeffs
    x = sp.symbols("x0:1")[0]
    oracle = to_sympy(f, (x,))
    for k in range(4):
        want = float(sp.diff(oracle, x, k).subs(x, a).evalf()) / math.factorial(k)
        assert got[k] == pytest.approx(want, rel=1e-7, abs=1e-7)


@given(seeds)
def test_eval_weil_composite_jets(seed):
    # coordinates may carry arbitrary nilpotent parts, not just a single t
    rng = np.random.default_rng(seed)
    f = random_expression(1, rng)
    a, b, c = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
    got = eval_weil(f, [T3.element([a, b, c])]).coeffs
    x, s = sp.symbols("x s")
    curve = to_sympy(f, (x,)).subs(x, a + b * s + c * s**2)
    poly = sp.series(curve, s, 0, 3).removeO()
    for k in range(3):
        want = float(sp.expand(poly).coeff(s, k).evalf())
        assert got[k] == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_eval_weil_multivariate_gradient():
    f = parse_expr("sin(x0) * x1 + x1^2", 2)
    a, b = 0.7, -0.4
    point = [M2.element([a, 1.0, 0.0]), M2.element([b, 0.0, 1.0])]
    got = eval_weil(f, point).coeffs
    assert got[0] == pytest.approx(math.sin(a) * b + b * b)
    assert got[1] == pytest.approx(math.cos(a) * b)
    assert got[2] == pytest.approx(math.sin(a) + 2 * b)


def test_eval_weil_log_and_division_jets():
    f = parse_expr("log(x0) / (1 + x0)", 1)
    a = 2.0
    got = eval_weil(f, [T3.element([a, 1.0, 0.0])]).coeffs
    x = sp.Symbol("x")
    oracle = sp.log(x) / (1 + x)
    for k in range(3):
        want = float(sp.diff(oracle, x, k).subs(x, a).evalf()) / math.factorial(k)
        assert got[k] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_compose_substitutes():
    f = parse_expr("x0^2 + sin(x0)", 1)
    g = parse_expr("x1 + x2", 3)
    h = compose(f, [g])
    assert h.arity == 3
    assert eval_real(h, [9.0, 0.3, 0.1]) == pytest.approx(eval_real(f, [0.4]))


def test_compose_arity_mismatch():
    f = parse_expr("x0 + x1", 2)
    with pytest.raises(ArityError):
        compose(f, [parse_expr("x0", 1)])


def test_equal_expressions_are_one_node():
    first = parse_expr("sin(x0) * x1 + x1^2 / 3", 2)
    second = add(mul(call("sin", parse_expr("x0", 2)), parse_expr("x1", 2)),
                 div(pow_(parse_expr("x1", 2), 2), const(3, 2)))
    assert first is second
    assert differentiate(first, 0) is differentiate(second, 0)
    assert const(0.0, 1) is const(0, 1)
    assert const(0.0, 1) is not const(-0.0, 1)
    assert const(-0.0, 1).text == "-0.0"
    assert const(float("nan"), 1) is const(float("nan"), 1)
    assert const(1.0, 1) is not const(1.0, 2)


def test_intern_table_holds_only_live_nodes():
    gc.collect()
    baseline = len(expression._NODES)
    f = parse_expr(" + ".join(f"{k}.125 * x0^{k + 2}" for k in range(50)), 1)
    g = differentiate(f, 0)
    assert g.text and len(expression._NODES) > baseline + 100
    # partials are kept on their nodes: asking again builds nothing
    built = len(expression._NODES)
    assert differentiate(f, 0) is g
    assert len(expression._NODES) == built
    # kept partials refer back to their nodes (d exp(u) = exp(u) * u', and a
    # sum of exp(x0) is its own partial), so only the collector frees them
    h = parse_expr("exp(x0*x1) * sin(x0) + cos(x1)^2 / (1 + x0^2)", 2)
    third = differentiate(differentiate(differentiate(h, 0), 1), 0)
    assert third.text
    chain = parse_expr("+".join(["exp(x0)"] * 200), 2)
    assert differentiate(chain, 0) is chain
    del f, g, h, third, chain
    gc.collect()
    assert len(expression._NODES) == baseline


def _tree_eval_weil(f, point):
    """Recursive tree walk over a Weil algebra, every occurrence evaluated
    again: the reference the DAG evaluator must match bit for bit."""
    algebra = point[0].algebra
    if isinstance(f, Const):
        return algebra.from_real(f.value)
    if isinstance(f, Var):
        return point[f.index]
    if isinstance(f, Add):
        return _tree_eval_weil(f.a, point) + _tree_eval_weil(f.b, point)
    if isinstance(f, Sub):
        return _tree_eval_weil(f.a, point) - _tree_eval_weil(f.b, point)
    if isinstance(f, Mul):
        return _tree_eval_weil(f.a, point) * _tree_eval_weil(f.b, point)
    if isinstance(f, Div):
        return _tree_eval_weil(f.a, point) * _tree_eval_weil(f.b, point).inverse()
    if isinstance(f, Pow):
        return _tree_eval_weil(f.base, point) ** f.exponent
    arg = _tree_eval_weil(f.arg, point)
    return algebra.element(_taylor_lift(f.fn, algebra, arg.coeffs, None))


def _tree_diff(f, i):
    """Recursive symbolic derivative, the reference for ``differentiate``."""
    if isinstance(f, (Const, Var)):
        return const(1.0 if isinstance(f, Var) and f.index == i else 0.0, f.arity)
    if isinstance(f, Add):
        return add(_tree_diff(f.a, i), _tree_diff(f.b, i))
    if isinstance(f, Sub):
        return sub(_tree_diff(f.a, i), _tree_diff(f.b, i))
    if isinstance(f, Mul):
        return add(mul(_tree_diff(f.a, i), f.b), mul(f.a, _tree_diff(f.b, i)))
    if isinstance(f, Div):
        num = sub(mul(_tree_diff(f.a, i), f.b), mul(f.a, _tree_diff(f.b, i)))
        return div(num, mul(f.b, f.b))
    if isinstance(f, Pow):
        scale = mul(const(float(f.exponent), f.arity), pow_(f.base, f.exponent - 1))
        return mul(scale, _tree_diff(f.base, i))
    darg = _tree_diff(f.arg, i)
    if f.fn == "log":
        return div(darg, f.arg)
    outer = {"sin": call("cos", f.arg), "cos": neg(call("sin", f.arg)),
             "exp": call("exp", f.arg)}[f.fn]
    return mul(outer, darg)


DEEP_BASE = "sin(0.3*x0) * cos(0.7*x1) * exp(0.5*x0*x1) * x0^3"


def test_dag_walks_match_recursive_tree_walks_on_deep_partials():
    algebra = make_truncated_algebra(2, 2)
    rng = np.random.default_rng(11)
    f = parse_expr(DEEP_BASE, 2)
    for order, index in enumerate((0, 1, 0, 1, 0), start=1):
        expected = _tree_diff(f, index)
        f = differentiate(f, index)
        assert f is expected, order
        point = [algebra.element(np.concatenate(([rng.uniform(-1, 1)],
                                                 rng.uniform(-1, 1, algebra.dim - 1))))
                 for _ in range(2)]
        got = eval_weil(f, point).coeffs
        assert np.array_equal(got, _tree_eval_weil(f, point).coeffs), order
        cache = {}
        assert np.array_equal(eval_weil(f, point, cache=cache).coeffs, got)
        shared = f.children[0]
        assert eval_weil(shared, point, cache=cache).coeffs is cache[shared]


def test_deep_nesting_evaluates_without_recursion():
    n = 5000
    f = parse_expr("+".join(["x0*x1"] * n), 2)
    g = differentiate(f, 0)
    assert g.text == "(" * (n - 1) + "x1" + " + x1)" * (n - 1)
    assert eval_real(g, [0.5, 2.0]) == 2.0 * n
    point = [DUAL.element([1.0, 1.0]), DUAL.element([2.0, 0.0])]
    assert eval_weil(f, point).coeffs.tolist() == [2.0 * n, 2.0 * n]
    h = compose(f, [parse_expr("x2", 3), parse_expr("x0", 3)])
    assert eval_real(h, [2.0, 0.0, 0.5]) == 1.0 * n
