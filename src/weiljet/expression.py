"""Expression trees for smooth scalar functions on R^n.

Nodes: coordinates x0..x{n-1}, float constants, the binary operations
+ - * /, integer powers, and the primitives sin, cos, exp, log.  Every node
carries the ambient arity.  Trees are immutable; identity is the fully
parenthesized text, which doubles as the wire format because
``parse_expr(e.text, e.arity)`` reproduces ``e``.

Evaluation over a Weil algebra replaces each primitive g by its truncated
Taylor expansion g(a0 + nu) = sum_{k<=h} g^(k)(a0)/k! * nu^k, where a0 is the
augmentation and nu the nilpotent part of the argument; the expansion is exact
because nu^(h+1) = 0.  No simplification is performed beyond constant folding.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

from .algebra import WeilElement
from .errors import (
    AlgebraMismatch,
    ArityError,
    DomainError,
    ParseError,
    UnknownIdentifier,
)

PRIMITIVES = ("sin", "cos", "exp", "log")


class ScalarExpr:
    """Base node.  Subclasses add their payload; comparisons go by text."""

    __slots__ = ("arity", "text", "_hash")

    def __init__(self, arity: int, text: str):
        self.arity = arity
        self.text = text
        self._hash = hash((arity, text))

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.arity == other.arity and self.text == other.text

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.text


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value: float, arity: int):
        value = float(value)
        super().__init__(arity, repr(value))
        self.value = value


class Var(ScalarExpr):
    __slots__ = ("index",)

    def __init__(self, index: int, arity: int):
        super().__init__(arity, f"x{index}")
        self.index = index


class Add(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity, f"({a.text} + {b.text})")
        self.a, self.b = a, b


class Sub(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity, f"({a.text} - {b.text})")
        self.a, self.b = a, b


class Mul(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity, f"({a.text} * {b.text})")
        self.a, self.b = a, b


class Div(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity, f"({a.text} / {b.text})")
        self.a, self.b = a, b


class Pow(ScalarExpr):
    """Integer power with exponent >= 2; smaller and negative exponents are
    folded away or rewritten as division by the constructors."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: int):
        super().__init__(base.arity, f"({base.text} ^ {exponent})")
        self.base, self.exponent = base, exponent


class Call(ScalarExpr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: ScalarExpr):
        super().__init__(arg.arity, f"{fn}({arg.text})")
        self.fn, self.arg = fn, arg


# -- smart constructors (constant folding only) ------------------------------

def const(value: float, arity: int) -> Const:
    return Const(value, arity)


def var(index: int, arity: int) -> Var:
    if index < 0 or index >= arity:
        raise ArityError(f"variable x{index} out of range for arity {arity}")
    return Var(index, arity)


def _is_const(e: ScalarExpr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value, a.arity)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value, a.arity)
    if _is_const(b, 0.0):
        return a
    return Sub(a, b)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value, a.arity)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0, a.arity)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def neg(a: ScalarExpr) -> ScalarExpr:
    return mul(Const(-1.0, a.arity), a)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(b, Const):
        if b.value == 0.0:
            raise DomainError("division by the constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value, a.arity)
        if b.value == 1.0:
            return a
    return Div(a, b)


def pow_(base: ScalarExpr, exponent: int) -> ScalarExpr:
    if exponent < 0:
        return div(Const(1.0, base.arity), pow_(base, -exponent))
    if exponent == 0:
        return Const(1.0, base.arity)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent, base.arity)
    return Pow(base, exponent)


def call(fn: str, arg: ScalarExpr) -> ScalarExpr:
    if fn not in PRIMITIVES:
        raise ValueError(f"unknown primitive {fn!r}")
    if isinstance(arg, Const):
        if fn == "log" and arg.value <= 0.0:
            raise DomainError("log of a nonpositive constant")
        return Const(getattr(math, fn)(arg.value), arg.arity)
    return Call(fn, arg)


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)

_VAR_NAME = re.compile(r"^x(\d+)$")


class _Token:
    __slots__ = ("kind", "text", "offset", "value", "is_int")

    def __init__(self, kind, text, offset, value=None, is_int=False):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.value = value
        self.is_int = is_int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            body = m.group()
            tokens.append(_Token("num", body, pos, float(body),
                                 is_int=("." not in body and "e" not in body and "E" not in body)))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(_Token("op", m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for
        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-' factor | atom ['^' integer]
        atom   := number | ident | ident '(' expr ')' | '(' expr ')'
    which gives the precedence ^  >  unary -  >  * /  >  + -.
    """

    def __init__(self, text: str, arity: int):
        self.tokens = _tokenize(text)
        self.arity = arity
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> ScalarExpr:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.offset)
        return node

    def expr(self) -> ScalarExpr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.take().text
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> ScalarExpr:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.take().text
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self) -> ScalarExpr:
        if self.at_op("-"):
            self.take()
            return neg(self.factor())
        node = self.atom()
        if self.at_op("^"):
            self.take()
            sign = 1
            if self.at_op("-"):
                self.take()
                sign = -1
            tok = self.peek()
            if tok.kind != "num" or not tok.is_int:
                raise ParseError("exponent must be an integer", tok.offset)
            self.take()
            return pow_(node, sign * int(tok.value))
        return node

    def atom(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(tok.value, self.arity)
        if tok.kind == "ident":
            self.take()
            m = _VAR_NAME.match(tok.text)
            if m:
                index = int(m.group(1))
                if index >= self.arity:
                    raise ArityError(
                        f"variable {tok.text} out of range for arity {self.arity}")
                return Var(index, self.arity)
            if tok.text in PRIMITIVES:
                if not self.at_op("("):
                    raise ParseError(f"expected '(' after {tok.text}", self.peek().offset)
                self.take()
                arg = self.expr()
                if not self.at_op(")"):
                    raise ParseError("expected ')'", self.peek().offset)
                self.take()
                return call(tok.text, arg)
            raise UnknownIdentifier(f"unknown identifier {tok.text!r}", tok.offset)
        if self.at_op("("):
            self.take()
            node = self.expr()
            if not self.at_op(")"):
                raise ParseError("expected ')'", self.peek().offset)
            self.take()
            return node
        raise ParseError("expected a number, identifier, or '('", tok.offset)


def parse_expr(text: str, arity: int) -> ScalarExpr:
    """Parse expression text against a fixed arity.

    Variables are x0..x{arity-1}; ^ takes a literal integer exponent, with
    negative exponents rewritten as division and fractional ones rejected.
    """
    if arity < 0:
        raise ArityError("arity must be nonnegative")
    try:
        return _Parser(text, arity).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


# -- calculus ----------------------------------------------------------------

def differentiate(f: ScalarExpr, index: int) -> ScalarExpr:
    """Symbolic partial derivative with respect to x{index}."""
    if index < 0 or index >= f.arity:
        raise ArityError(f"derivative index {index} out of range for arity {f.arity}")
    return _diff(f, index)


def _diff(f: ScalarExpr, i: int) -> ScalarExpr:
    arity = f.arity
    if isinstance(f, Const):
        return Const(0.0, arity)
    if isinstance(f, Var):
        return Const(1.0 if f.index == i else 0.0, arity)
    if isinstance(f, Add):
        return add(_diff(f.a, i), _diff(f.b, i))
    if isinstance(f, Sub):
        return sub(_diff(f.a, i), _diff(f.b, i))
    if isinstance(f, Mul):
        return add(mul(_diff(f.a, i), f.b), mul(f.a, _diff(f.b, i)))
    if isinstance(f, Div):
        num = sub(mul(_diff(f.a, i), f.b), mul(f.a, _diff(f.b, i)))
        return div(num, mul(f.b, f.b))
    if isinstance(f, Pow):
        scale = mul(Const(float(f.exponent), arity), pow_(f.base, f.exponent - 1))
        return mul(scale, _diff(f.base, i))
    if isinstance(f, Call):
        darg = _diff(f.arg, i)
        if f.fn == "sin":
            outer = call("cos", f.arg)
        elif f.fn == "cos":
            outer = neg(call("sin", f.arg))
        elif f.fn == "exp":
            outer = call("exp", f.arg)
        else:  # log
            return div(darg, f.arg)
        return mul(outer, darg)
    raise TypeError(f"unknown node {type(f).__name__}")


def compose(f: ScalarExpr, replacements: Sequence[ScalarExpr]) -> ScalarExpr:
    """Substitute replacements[i] for x{i}; the result lives in the
    replacements' arity."""
    if len(replacements) != f.arity:
        raise ArityError("replacement count does not match the arity")
    if f.arity == 0:
        raise ArityError("cannot compose with an empty replacement list")
    target = replacements[0].arity
    for r in replacements:
        if r.arity != target:
            raise ArityError("replacements disagree on arity")
    return _compose(f, tuple(replacements), target)


def _compose(f, reps, target):
    if isinstance(f, Const):
        return Const(f.value, target)
    if isinstance(f, Var):
        return reps[f.index]
    if isinstance(f, Add):
        return add(_compose(f.a, reps, target), _compose(f.b, reps, target))
    if isinstance(f, Sub):
        return sub(_compose(f.a, reps, target), _compose(f.b, reps, target))
    if isinstance(f, Mul):
        return mul(_compose(f.a, reps, target), _compose(f.b, reps, target))
    if isinstance(f, Div):
        return div(_compose(f.a, reps, target), _compose(f.b, reps, target))
    if isinstance(f, Pow):
        return pow_(_compose(f.base, reps, target), f.exponent)
    if isinstance(f, Call):
        return call(f.fn, _compose(f.arg, reps, target))
    raise TypeError(f"unknown node {type(f).__name__}")


def eval_real(f: ScalarExpr, point: Sequence[float]) -> float:
    """Evaluate at a real point."""
    if len(point) != f.arity:
        raise ArityError("point length does not match the arity")
    return _eval_real(f, point)


def _eval_real(f, xs):
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return float(xs[f.index])
    if isinstance(f, Add):
        return _eval_real(f.a, xs) + _eval_real(f.b, xs)
    if isinstance(f, Sub):
        return _eval_real(f.a, xs) - _eval_real(f.b, xs)
    if isinstance(f, Mul):
        return _eval_real(f.a, xs) * _eval_real(f.b, xs)
    if isinstance(f, Div):
        denom = _eval_real(f.b, xs)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _eval_real(f.a, xs) / denom
    if isinstance(f, Pow):
        return _eval_real(f.base, xs) ** f.exponent
    if isinstance(f, Call):
        inner = _eval_real(f.arg, xs)
        if f.fn == "log" and inner <= 0.0:
            raise DomainError("log of a nonpositive value")
        return getattr(math, f.fn)(inner)
    raise TypeError(f"unknown node {type(f).__name__}")


# closed-form k-th derivatives of the primitives at a real point
def _primitive_derivative(fn: str, k: int, x: float) -> float:
    try:
        if fn == "sin":
            return (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x))[k % 4]
        if fn == "cos":
            return (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))[k % 4]
        if fn == "exp":
            return math.exp(x)
        # log: k = 0 handled by the caller; x ** k underflows to zero when the
        # derivative overflows
        return ((-1.0) ** (k - 1)) * math.factorial(k - 1) / x ** k
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"derivative {k} of {fn} overflows at {x!r}") from None


def eval_weil(f: ScalarExpr, point: Sequence[WeilElement], *,
              order_cap: int | None = None) -> WeilElement:
    """Evaluate over a Weil algebra; this is the algebra morphism that sends
    x_i to point[i].

    ``order_cap`` truncates the primitives' Taylor expansions below the
    algebra height; it exists so the verification harness can demonstrate that
    dropping the top order is caught.  Leave it at None for correct results.
    """
    if len(point) != f.arity:
        raise ArityError("point length does not match the arity")
    if not point:
        raise ArityError("evaluation over an algebra needs at least one coordinate")
    algebra = point[0].algebra
    for elem in point:
        if not algebra.compatible_with(elem.algebra):
            raise AlgebraMismatch("point coordinates live in different algebras")
    return _eval_weil(f, tuple(point), algebra, order_cap)


def _eval_weil(f, point, algebra, cap):
    if isinstance(f, Const):
        return algebra.from_real(f.value)
    if isinstance(f, Var):
        return point[f.index]
    if isinstance(f, Add):
        return _eval_weil(f.a, point, algebra, cap) + _eval_weil(f.b, point, algebra, cap)
    if isinstance(f, Sub):
        return _eval_weil(f.a, point, algebra, cap) - _eval_weil(f.b, point, algebra, cap)
    if isinstance(f, Mul):
        return _eval_weil(f.a, point, algebra, cap) * _eval_weil(f.b, point, algebra, cap)
    if isinstance(f, Div):
        return _eval_weil(f.a, point, algebra, cap) * _eval_weil(f.b, point, algebra, cap).inverse()
    if isinstance(f, Pow):
        return _eval_weil(f.base, point, algebra, cap) ** f.exponent
    if isinstance(f, Call):
        return _taylor_lift(f.fn, _eval_weil(f.arg, point, algebra, cap), cap)
    raise TypeError(f"unknown node {type(f).__name__}")


def _taylor_lift(fn: str, a: WeilElement, cap: int | None) -> WeilElement:
    algebra = a.algebra
    order = algebra.height if cap is None else min(algebra.height, cap)
    a0 = a.augmentation
    if fn == "log":
        if a0 <= 0.0:
            raise DomainError("log needs a positive augmentation")
        head = math.log(a0)
    else:
        head = _primitive_derivative(fn, 0, a0)
    acc = algebra.from_real(head)
    power = algebra.unit()
    factorial = 1.0
    nil = a.nilpotent_part()
    for k in range(1, order + 1):
        power = power * nil
        if power.is_zero():
            break
        factorial *= k
        acc = acc + power * (_primitive_derivative(fn, k, a0) / factorial)
    return acc
