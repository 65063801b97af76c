"""Parser, calculus, and truncated evaluation for scalar expressions.

Derivatives and jet coefficients are checked against sympy, which knows
nothing about this package's evaluation code.
"""

import gc
import math
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from weiljet import expression
from weiljet.algebra import (
    NotInvertible,
    _add_live,
    _inverse,
    _live,
    _product,
    make_truncated_algebra,
)
from weiljet.bundle import NearPoint
from weiljet.errors import (
    ArityError,
    DomainError,
    ParseError,
    UnknownIdentifier,
    WeilError,
)
from weiljet.expression import (
    PRIMITIVES,
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
    var,
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


# (text, error type, message, offset) at arity 2.  Construction folds
# constants, so a quotient by zero raises as soon as its right operand is
# complete, before any later syntax error.
MALFORMED = [
    ("1.5e-2/0 log", DomainError, "division by the constant zero", None),
    ("x0^1.5", ParseError, "exponent must be an integer", 3),
    ("sin x0", ParseError, "expected '(' after sin", 4),
    ("(x0", ParseError, "expected ')'", 3),
    ("x0)", ParseError, "unexpected trailing input ')'", 2),
    ("x0^2^3", ParseError, "unexpected trailing input '^'", 4),
    ("$", ParseError, "unexpected character '$'", 0),
    ("x5", ArityError, "variable x5 out of range for arity 2", None),
    ("foo(x0)", UnknownIdentifier, "unknown identifier 'foo'", 0),
    ("", ParseError, "expected a number, identifier, or '('", 0),
    ("   ", ParseError, "expected a number, identifier, or '('", 3),
    ("x0 * * x1", ParseError, "expected a number, identifier, or '('", 5),
    ("-", ParseError, "expected a number, identifier, or '('", 1),
    ("sin()", ParseError, "expected a number, identifier, or '('", 4),
    ("((x0) + )", ParseError, "expected a number, identifier, or '('", 8),
    ("cos", ParseError, "expected '(' after cos", 3),
    ("sin(x0", ParseError, "expected ')'", 6),
    ("log(0", ParseError, "expected ')'", 5),
    ("log(0))", DomainError, "log of a nonpositive constant", None),
    ("exp(1000)", DomainError, "exp is out of range at 1000.0", None),
    ("sin(1e308*10)", DomainError, "sin is out of range at inf", None),
    ("2^5000", DomainError, "2.0 ^ 5000 overflows", None),
    ("0^-1", DomainError, "division by the constant zero", None),
    ("x0^-x1", ParseError, "exponent must be an integer", 4),
    ("x0^-", ParseError, "exponent must be an integer", 4),
    ("1/0^x0", ParseError, "exponent must be an integer", 4),
    ("1/(0)^x0", ParseError, "exponent must be an integer", 6),
    ("(x0)^2^3", ParseError, "unexpected trailing input '^'", 6),
    ("(x0 + x1))", ParseError, "unexpected trailing input ')'", 9),
    ("2x0", ParseError, "unexpected trailing input 'x0'", 1),
    ("sin(x0)(x1)", ParseError, "unexpected trailing input '('", 7),
    ("x0 @ 1", ParseError, "unexpected character '@'", 3),
    ("log(0) $", ParseError, "unexpected character '$'", 7),
    ("x_1", UnknownIdentifier, "unknown identifier 'x_1'", 0),
]


@pytest.mark.parametrize("text, kind, message, offset", MALFORMED)
def test_malformed_text_is_refused_exactly(text, kind, message, offset):
    with pytest.raises(WeilError) as excinfo:
        parse_expr(text, 2)
    error = excinfo.value
    assert type(error) is kind
    suffix = "" if offset is None else f" (at offset {offset})"
    assert str(error) == message + suffix
    assert getattr(error, "offset", None) == offset


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
        eval_weil(f, NearPoint([DUAL.element([-1.0, 1.0])]))


def test_eval_weil_division_by_nilpotent():
    f = parse_expr("x0 / x1", 2)
    with pytest.raises(NotInvertible):
        eval_weil(f, NearPoint([DUAL.unit(), DUAL.basis_element(1)]))


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
    got = eval_weil(f, NearPoint([T4.element([a, 1.0, 0.0, 0.0])]))
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
    got = eval_weil(f, NearPoint([T3.element([a, b, c])]))
    x, s = sp.symbols("x s")
    curve = to_sympy(f, (x,)).subs(x, a + b * s + c * s**2)
    poly = sp.series(curve, s, 0, 3).removeO()
    for k in range(3):
        want = float(sp.expand(poly).coeff(s, k).evalf())
        assert got[k] == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_eval_weil_multivariate_gradient():
    f = parse_expr("sin(x0) * x1 + x1^2", 2)
    a, b = 0.7, -0.4
    point = NearPoint([M2.element([a, 1.0, 0.0]), M2.element([b, 0.0, 1.0])])
    got = eval_weil(f, point)
    assert got[0] == pytest.approx(math.sin(a) * b + b * b)
    assert got[1] == pytest.approx(math.cos(a) * b)
    assert got[2] == pytest.approx(math.sin(a) + 2 * b)


def test_eval_weil_log_and_division_jets():
    f = parse_expr("log(x0) / (1 + x0)", 1)
    a = 2.0
    got = eval_weil(f, NearPoint([T3.element([a, 1.0, 0.0])]))
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


def _fresh_nodes(arity):
    """One node of each kind under keys no other test builds, in the order
    the constructors build them."""
    c = const(0.3779296875, arity)
    x = var(arity - 1, arity)
    return [c, x, add(c, x), sub(x, c), mul(c, x), div(x, c), pow_(x, 5),
            call("cos", x)]


def test_every_route_returns_the_one_live_node_for_a_key():
    arity = 13
    c, x, *rest = nodes = _fresh_nodes(arity)
    # an int, a NumPy float and a parsed float give the one constant
    assert const(np.float64(0.3779296875), arity) is c
    assert const(float("0.3779296875"), arity) is c
    assert const(1, arity) is const(1.0, arity) is parse_expr("1", arity)
    assert var(arity - 1, arity) is x
    assert all(a is b for a, b in zip(_fresh_nodes(arity), nodes))
    for node in nodes:
        assert parse_expr(node.text, arity) is node
    assert [type(node) for node in nodes] == [Const, Var, Add, Sub, Mul, Div,
                                              Pow, Call]
    # signed zeros stay apart on every route, and every NaN is one node
    assert const(-0.0, arity) is parse_expr("-0.0", arity)
    assert const(0.0, arity) is parse_expr("0.0", arity)
    assert add(const(-0.0, arity), const(0.0, arity)) is const(0.0, arity)
    assert add(const(-0.0, arity), const(-0.0, arity)) is const(-0.0, arity)
    assert const(-0.0, arity) is not const(0.0, arity)
    assert (const(float("nan"), arity) is const(-math.nan, arity)
            is const(np.float64("nan"), arity))


def test_only_a_new_node_runs_the_base_initializer(monkeypatch):
    built = []
    init = expression.ScalarExpr.__init__

    def counted(node, *args):
        built.append(node)
        init(node, *args)

    monkeypatch.setattr(expression.ScalarExpr, "__init__", counted)
    nodes = _fresh_nodes(11)
    assert built == nodes and len(set(map(id, built))) == len(nodes)
    built.clear()
    c, x = nodes[:2]
    assert _fresh_nodes(11) == nodes
    assert [const(0.3779296875, 11), var(10, 11), add(c, x), call("cos", x)] == [
        nodes[0], nodes[1], nodes[2], nodes[7]]
    assert [parse_expr(node.text, 11) for node in nodes] == nodes
    assert built == []


def test_every_node_built_enters_the_intern_table(monkeypatch, capsys):
    """``_intern`` is the one place a node is built: on the routes that build
    every node kind, each run of ``ScalarExpr.__init__`` comes with one new
    table reference."""
    from weiljet.bundle import BundleFunction
    from weiljet.cli import main

    built, refs = [], []
    init = expression.ScalarExpr.__init__

    def counted(node, *args):
        built.append(type(node))
        init(node, *args)

    class CountedRef(expression._NodeRef):
        __slots__ = ()

        def __new__(cls, *args):
            refs.append(None)
            return super().__new__(cls, *args)

    monkeypatch.setattr(expression.ScalarExpr, "__init__", counted)
    monkeypatch.setattr(expression, "_NodeRef", CountedRef)
    # thm2 solves for hamiltonian fields, tau_calculus scales by A-valued
    # constants
    for name in ("thm", "tau_calculus"):
        assert main(["verify", "--seed", "42", "--filter", name]) == 0
    assert main(["hamfield", "--algebra", "dual", "--symplectic",
                 '{"degree": 2, "arity": 2, "coeffs": {"0,1": "1 + x0^2"}}',
                 "--fn", "x0 * x1", "--point",
                 '{"coords": [{"coeffs": [0.5, 1.0]}, {"coeffs": [0.25, -1.0]}]}']) == 0
    capsys.readouterr()
    zero = BundleFunction.zero(DUAL, 17)
    constant = BundleFunction.constant(0.4609375, DUAL, 17)
    scaled = constant * 2.5
    assert zero.root is const(0.0, 17) and scaled.root is const(1.15234375, 17)
    assert {Const, Mul, expression._Solved, expression._Weight} <= set(built)
    assert len(built) == len(refs)
    # equal coefficients and an equal solve give one node
    first, second = DUAL.element([0.4609375, 1.0]), DUAL.element([0.4609375, 1.0])
    assert expression._weight(first, 3) is expression._weight(second, 3)
    solve = object()
    assert expression._solved(solve, 1, 3) is expression._solved(solve, 1, 3)


def test_differentiate_builds_only_the_missing_partials(monkeypatch):
    u = parse_expr("x0 * x1 + 0.4140625 * sin(x1)", 2)
    v = parse_expr("exp(0.2734375 * x0) * x1 ^ 3", 2)
    du, dv = differentiate(u, 0), differentiate(v, 0)
    kept = {node: node._derivs[0] for child in (u, v)
            for node in expression._topological(child)}
    root = add(mul(u, v), mul(v, v))
    products = []
    rule = expression._product_rule

    def counted(a, b, da, db):
        products.append((a, b))
        return rule(a, b, da, db)

    monkeypatch.setattr(expression, "_product_rule", counted)
    partial = differentiate(root, 0)
    # the two new products are the only nodes without the partial
    assert products == [(u, v), (v, v)]
    assert all(node._derivs[0] is kept[node] for node in kept)
    assert u._derivs[0] is du and v._derivs[0] is dv
    assert all(0 in node._derivs for node in expression._topological(root))
    # built afresh, with no partial kept anywhere, it is the same node
    expression._forget_partials()
    assert differentiate(root, 0) is partial
    assert len(products) == 2 + sum(type(node) is Mul
                                    for node in expression._topological(root))


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


class _Unnamed:
    """A weakly referable object that is not a node."""


def test_a_stale_reference_leaves_the_live_entry():
    # during a collection a node can die after a node with its key was
    # rebuilt; the dead node's callback must not remove the new entry
    node = var(0, 2)
    key = (Var, 0, 2)
    live = expression._NODES[key]
    stale = expression._NodeRef(_Unnamed())
    stale.key = key
    assert stale() is None
    expression._drop(stale)
    assert expression._NODES[key] is live and live() is node


def test_an_acyclic_expression_leaves_the_table_without_the_collector():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        baseline = len(expression._NODES)
        f = parse_expr("sin(2.875 * x0) + x1 ^ 3 / (x0 + 4.0625)", 2)
        assert f.text and len(expression._NODES) > baseline
        del f
        assert len(expression._NODES) == baseline
    finally:
        if enabled:
            gc.enable()


def test_forget_partials_skips_dead_entries():
    f = parse_expr("exp(x0) * x1 + 1.0625", 2)
    differentiate(f, 0)
    assert f._derivs is not None
    key = ("a dead entry",)
    dead = expression._NodeRef(_Unnamed())
    expression._NODES[key] = dead
    try:
        expression._forget_partials()
    finally:
        del expression._NODES[key]
    assert f._derivs is None


def _counting_products(monkeypatch):
    """Count the kernel's products in ``_taylor_lift`` from here on."""
    calls = []

    def counted(*args):
        calls.append(1)
        return product(*args)

    product = expression._product
    monkeypatch.setattr(expression, "_product", counted)
    return calls


def _closed_form_derivative(fn, k, x):
    """The k-th derivative of a primitive at a real point."""
    if fn == "sin":
        return (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x))[k % 4]
    if fn == "cos":
        return (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))[k % 4]
    if fn == "exp":
        return math.exp(x)
    return math.log(x) if k == 0 else ((-1.0) ** (k - 1)) * math.factorial(k - 1) / x ** k


def _row_by_row_lift(fn, algebra, a, order=None):
    """The Taylor lift with every derivative taken one row and one order at
    a time, the rows whose series has ended skipped: the reference the
    vectorised lift must match bit for bit."""
    order = algebra.height if order is None else min(algebra.height, order)
    xs = a[..., 0].ravel().tolist()
    acc = np.zeros(a.shape)
    acc[..., 0] = np.reshape([_closed_form_derivative(fn, 0, x) for x in xs],
                             a.shape[:-1])
    nil = a.copy()
    nil[..., 0] = 0.0
    power, live, factorial = nil, True, 1.0
    for k in range(1, order + 1):
        if k > 1:
            power = _product(algebra, power, nil)
        live = _live(power, live)
        if live is False:
            break
        factorial *= k
        going = [True] * len(xs) if live is True else live.ravel().tolist()
        scale = np.reshape([_closed_form_derivative(fn, k, x) / factorial if alive
                            else 0.0 for x, alive in zip(xs, going)],
                           a.shape[:-1] + (1,))
        acc = _add_live(acc, power * scale, live)
    return acc


@pytest.mark.parametrize("order", [None, 1])
@pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
@pytest.mark.parametrize("fn", PRIMITIVES)
def test_the_lift_keeps_the_bits_of_a_row_by_row_lift(fn, shape, order):
    """sin, cos and exp take their derivatives once per row and build each
    order's scale as one array; log keeps its per-order path.  Both keep the
    bits of the row-by-row lift, signed zeros included, on single points and
    on batches with rows whose series ends early."""
    for algebra in (make_truncated_algebra(1, 3), make_truncated_algebra(2, 2)):
        a = np.random.default_rng(8).uniform(-2.0, 2.0, shape + (algebra.dim,))
        if fn == "log":
            a[..., 0] = np.abs(a[..., 0]) + 0.1
        flat = a.reshape(-1, algebra.dim)
        if shape:
            flat[0, 1:] = 0.0  # a real point: the series ends at once
            flat[1, 1:] = -0.0
            flat[-1, 2:] = 0.0  # a shorter series
        got = _taylor_lift(fn, algebra, a, order)
        want = _row_by_row_lift(fn, algebra, a, order)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("fn, bad", [("sin", math.inf), ("cos", -math.inf),
                                     ("exp", 800.0)])
def test_a_lift_out_of_range_names_the_first_bad_row(fn, bad):
    a = np.array([[0.5, 1.0, 0.0], [bad, 1.0, 0.0], [math.inf, 0.0, 0.0]])
    with pytest.raises(DomainError, match=f"^derivative 0 of {fn} is out of "
                                          f"range at {bad!r}$"):
        _taylor_lift(fn, T3, a)


@pytest.mark.parametrize("height", [1, 2, 5])
@pytest.mark.parametrize("fn", PRIMITIVES)
def test_a_lift_at_a_general_point_costs_height_minus_one_products(
        monkeypatch, fn, height):
    algebra = make_truncated_algebra(1, height)
    a = np.arange(1.0, algebra.dim + 1.0)
    calls = _counting_products(monkeypatch)
    lift = _taylor_lift(fn, algebra, a)
    assert len(calls) == height - 1
    nil = a.copy()
    nil[0] = 0.0
    expected = np.zeros(algebra.dim)
    expected[0] = getattr(math, fn)(a[0])
    power = np.eye(algebra.dim)[0]
    for k in range(1, height + 1):
        power = (algebra.element(power) * algebra.element(nil)).coeffs
        scale = _closed_form_derivative(fn, k, a[0]) / math.factorial(k)
        expected = expected + power * scale
    assert np.array_equal(lift, expected)


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
        at = NearPoint(point)
        got = eval_weil(f, at)
        assert np.array_equal(got, _tree_eval_weil(f, point).coeffs), order
        cache = {}
        assert np.array_equal(eval_weil(f, at, cache=cache), got)
        shared = f.children[0]
        assert eval_weil(shared, at, cache=cache) is cache[shared]


def test_deep_nesting_evaluates_without_recursion():
    n = 5000
    f = parse_expr("+".join(["x0*x1"] * n), 2)
    g = differentiate(f, 0)
    assert g.text == "(" + " + ".join(["x1"] * n) + ")"
    assert parse_expr(g.text, 2) is g
    assert parse_expr(f.text, 2) is f
    assert eval_real(g, [0.5, 2.0]) == 2.0 * n
    point = NearPoint([DUAL.element([1.0, 1.0]), DUAL.element([2.0, 0.0])])
    assert eval_weil(f, point).tolist() == [2.0 * n, 2.0 * n]
    h = compose(f, [parse_expr("x2", 3), parse_expr("x0", 3)])
    assert eval_real(h, [2.0, 0.0, 0.5]) == 1.0 * n


def _call_near_the_stack_limit(fn, headroom=50):
    """fn() called with only ``headroom`` frames left below the recursion
    limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def descend(n):
        return fn() if n == 0 else descend(n - 1)

    return descend(sys.getrecursionlimit() - headroom - depth)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", "")])
def test_nesting_cap_does_not_depend_on_the_callers_stack(opening, closing):
    text = opening * 150 + "x0" + closing * 150
    expected = parse_expr(text, 1)
    assert _call_near_the_stack_limit(lambda: parse_expr(text, 1)) is expected


def test_nesting_cap():
    cap = expression.MAX_NESTING
    assert parse_expr("(" * cap + "x0" + ")" * cap, 1) is parse_expr("x0", 1)
    negated = var(0, 1)
    for _ in range(cap):
        negated = neg(negated)
    assert parse_expr("-" * cap + "x0", 1) is negated
    for text in ("(" * (cap + 1) + "x0" + ")" * (cap + 1), "-" * (cap + 1) + "x0"):
        with pytest.raises(ParseError, match="^expression nests too deeply$"):
            parse_expr(text, 1)


def test_exponent_cap():
    cap = expression.MAX_EXPONENT
    assert cap == 2 ** 53
    for sign in ("", "-"):
        text = f"x0^{sign}{cap}"
        f = parse_expr(text, 1)
        assert parse_expr(f.text, 1) is f
        assert f" ^ {cap})" in f.text
        # leading zeros do not count towards the size
        assert parse_expr(f"x0^{sign}000{cap}", 1) is f
    for body in (str(cap + 1), "11111111111111111111", "9" * 400, "9" * 5000):
        with pytest.raises(ParseError, match="^exponent out of range"):
            parse_expr("x0^" + body, 1)


def _const_array(value, batch, dim):
    out = np.zeros(batch + (dim,))
    out[..., 0] = value
    return out


_CONSTANT_READERS = [
    # a constant factor, on either side, scales the other one
    ("c*x", lambda c, x: mul(c, x), lambda alg, c, x: x * c[..., :1]),
    ("x*c", lambda c, x: mul(x, c), lambda alg, c, x: x * c[..., :1]),
    ("c", lambda c, x: c, lambda alg, c, x: c),
    ("c+x", lambda c, x: add(c, x), lambda alg, c, x: c + x),
    ("x-c", lambda c, x: sub(x, c), lambda alg, c, x: x - c),
    ("c-x", lambda c, x: sub(c, x), lambda alg, c, x: c - x),
    ("x/c", lambda c, x: div(x, c), lambda alg, c, x: _product(alg, x, _inverse(alg, c))),
    ("c/x", lambda c, x: div(c, x), lambda alg, c, x: _product(alg, c, _inverse(alg, x))),
]


@pytest.mark.parametrize("rows", ["single", "single-real", "general", "real", "mixed"])
@pytest.mark.parametrize("label, build, kernel", _CONSTANT_READERS,
                         ids=[r[0] for r in _CONSTANT_READERS])
def test_constants_evaluate_as_the_kernel_on_a_built_constant(label, build, kernel, rows):
    """Constants may be left unbuilt.  A product by a constant has the bits
    of the other value scaled by it, signbit included, on either side; every
    other reader keeps the bits of the kernel on the built constant array,
    signed zeros of real points included."""
    algebra = make_truncated_algebra(2, 2)
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.5, 2.0, (4, 1, algebra.dim)) * rng.choice([-1.0, 1.0], (4, 1, 1))
    if rows in ("real", "mixed"):
        coords[1:3, :, 1:] = [0.0, -0.0, 0.0, -0.0, 0.0]
        if rows == "real":
            coords[:, :, 1:] = coords[1, :, 1:]
    if rows.startswith("single"):
        coords = coords[0]
        if rows == "single-real":
            coords[:, 1:] = -0.0
    x = coords[..., 0, :]
    for value in (-1.0, 2.5, -0.5, np.inf):
        f = build(const(value, 1), var(0, 1))
        with np.errstate(invalid="ignore"):  # inf * 0
            got = eval_weil(f, NearPoint.from_coeffs(algebra, coords))
            want = kernel(algebra, _const_array(value, x.shape[:-1], algebra.dim), x)
        assert np.array_equal(got, want, equal_nan=True), (label, value)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (label, value)


@pytest.mark.parametrize(
    "text, printed",
    [
        ("x0 + x1 - x2 + 1", "(x0 + x1 - x2 + 1.0)"),
        ("x0 - (x1 - x2)", "(x0 - (x1 - x2))"),
        ("x0 * x1 / x2 * 2", "(x0 * x1 / x2 * 2.0)"),
        ("x0 / (x1 * x2)", "(x0 / (x1 * x2))"),
        ("x0 * x1 + x2 * x0 * x1 - x2", "((x0 * x1) + (x2 * x0 * x1) - x2)"),
        ("(x0 + x1) * x2 * (x0 - x1)", "((x0 + x1) * x2 * (x0 - x1))"),
        ("-x0 * x1 - -2", "((-1.0 * x0 * x1) - -2.0)"),
        ("sin(x0 + x1 + x2)^2 + x0", "((sin((x0 + x1 + x2)) ^ 2) + x0)"),
    ],
)
def test_same_level_chains_print_flat(text, printed):
    e = parse_expr(text, 3)
    assert e.text == printed
    assert parse_expr(printed, 3) is e


def test_real_walkers_refuse_algebra_valued_nodes():
    from weiljet.bundle import BundleFunction, prolong_function
    from weiljet.errors import AlgebraMismatch
    from weiljet.symplectic import SymplecticStructure, hamiltonian_field

    f = prolong_function(parse_expr("x0 * x1", 2), DUAL)
    weighted = f * DUAL.element([1.0, 2.0]) + f
    solved = hamiltonian_field(f, SymplecticStructure.canonical(2)).components[0]
    assert isinstance(BundleFunction.constant(DUAL.element([1.0, 2.0]), DUAL, 2).root,
                      expression._Weight)
    for fn in (weighted, solved, solved * f):
        with pytest.raises(AlgebraMismatch,
                           match=r"^eval_real takes real expressions; <.*> is A-valued$"):
            eval_real(fn.root, [0.5, 1.0])
        with pytest.raises(AlgebraMismatch,
                           match=r"^compose takes real expressions; <.*> is A-valued$"):
            compose(fn.root, [parse_expr("x0", 1), parse_expr("x0", 1)])


def test_a_warm_cache_evaluates_as_a_cold_one():
    """Over a cache that already holds part of the DAG, the walk stops at the
    finished nodes and keeps no tape; the values keep the bits of a cold
    evaluation, which still keeps its tape on the root."""
    algebra = make_truncated_algebra(2, 2)
    shared = parse_expr("exp(0.3141 * x0) * (x0 * x1)", 2)
    root = parse_expr("sin(x0 * x1) + exp(0.3141 * x0) * (x0 * x1)"
                      " - log(x1^2 + 1.2718) / (x0^2 + 2)", 2)
    coords = np.random.default_rng(12).uniform(-2.0, 2.0, (5, 2, algebra.dim))
    coords[1:3, :, 1:] = [0.0, -0.0, 0.0, -0.0, 0.0]
    warm = NearPoint.from_coeffs(algebra, coords)
    warm.pulled(shared)
    assert root._tape is None
    got = warm.pulled(root)
    assert root._tape is None
    want = eval_weil(root, NearPoint.from_coeffs(algebra, coords))
    assert root._tape is not None
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("a", [0.0, -0.0, 2.5, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("b", [0.0, -0.0, 2.5])
def test_constant_folds_give_the_constant_of_float_arithmetic(a, b):
    assert add(const(a, 1), const(b, 1)) is const(a + b, 1)
    assert add(const(b, 1), const(a, 1)) is const(b + a, 1)
    x = var(0, 1)
    if a == 0.0:
        assert mul(const(a, 1), x) is const(0.0, 1)
        assert mul(x, const(a, 1)) is const(0.0, 1)
