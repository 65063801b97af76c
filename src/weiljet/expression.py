"""Expressions for smooth scalar functions on R^n, as hash-consed DAGs.

Nodes: coordinates x0..x{n-1}, float constants, the binary operations
+ - * /, integer powers, and the primitives sin, cos, exp, log.  Every node
carries the ambient arity.  Nodes are immutable and hash-consed: every
constructor call goes through one intern table keyed on the node's kind,
payload, children and arity, so equal expressions are the same object and
equality is identity.  The table holds its nodes weakly, so it never
outgrows the live expressions.  A constant is keyed on the ``repr`` of its
value, which keeps 0.0 and -0.0 apart and makes every NaN one node.

``text`` is the fully parenthesized form, rendered on first use in one pass;
it is the wire format, because ``parse_expr(e.text, e.arity)`` returns ``e``
itself.  Evaluation, differentiation and composition visit the DAG in a
topological order, found once per root and kept on it, with no Python
recursion; each handles a distinct node once per call, so shared
subexpressions cost nothing extra and nesting depth is bounded by memory
only.  Differentiation goes further and keeps each node's partials on the
node.  Only the parser recurses, so it refuses text nested too deeply.

Evaluation over a Weil algebra replaces each primitive g by its truncated
Taylor expansion g(a0 + nu) = sum_{k<=h} g^(k)(a0)/k! * nu^k, where a0 is the
augmentation and nu the nilpotent part of the argument; the expansion is exact
because nu^(h+1) = 0.  It runs on coefficient arrays, at one point or at a
batch of points at once.  No simplification is performed beyond constant
folding.
"""

from __future__ import annotations

import math
import re
import weakref
from typing import Sequence

import numpy as np

from .algebra import (
    WeilAlgebra,
    WeilElement,
    _add_live,
    _inverse,
    _live,
    _power,
    _product,
    _unit,
    _wrap,
)
from .errors import (
    AlgebraMismatch,
    ArityError,
    DomainError,
    ParseError,
    UnknownIdentifier,
)

PRIMITIVES = ("sin", "cos", "exp", "log")

# The intern table: key -> the one live node with that key.  Keys name
# child nodes by id, so the table holds no node strongly: a live node keeps
# its children alive, so the ids in a live key are never reused, and a dead
# node's children can be collected with it in one pass of the collector.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Calling a node class returns the live node with the same key, and
    builds (and registers) a new one only when there is none."""

    def __call__(cls, *args):
        key = (cls, *args) if cls._key is None else cls._key(*args)
        node = _NODES.get(key)
        if node is None:
            node = super().__call__(*args)
            _NODES[key] = node
        return node


class ScalarExpr(metaclass=_Interned):
    """Base node.  ``children`` lists the operand nodes left to right;
    nodes compare and hash by identity."""

    __slots__ = ("arity", "_text", "_tape", "_derivs", "__weakref__")
    children: tuple = ()
    # builds the intern key from the constructor arguments where
    # (class, *args) would not do
    _key = None

    def __init__(self, arity: int, text: str | None = None):
        self.arity = arity
        self._text = text
        self._tape = None
        # index -> partial derivative, filled by differentiate
        self._derivs = None

    @property
    def text(self) -> str:
        """Fully parenthesized text, rendered once and kept."""
        if self._text is None:
            self._text = _render(self)
        return self._text

    def __repr__(self):
        return self.text


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value: float, arity: int):
        value = float(value)
        super().__init__(arity, repr(value))
        self.value = value

    @staticmethod
    def _key(value, arity):
        # repr keeps 0.0 and -0.0 apart and makes every NaN one node
        return (Const, repr(float(value)), arity)


class Var(ScalarExpr):
    __slots__ = ("index",)

    def __init__(self, index: int, arity: int):
        super().__init__(arity, f"x{index}")
        self.index = index


class _Binary(ScalarExpr):
    __slots__ = ("a", "b")
    op = ""

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity)
        self.a, self.b = a, b

    @classmethod
    def _key(cls, a, b):
        return (cls, id(a), id(b))

    @property
    def children(self):
        return (self.a, self.b)

    def _pieces(self):
        return ("(", self.a, f" {self.op} ", self.b, ")")


class Add(_Binary):
    __slots__ = ()
    op = "+"


class Sub(_Binary):
    __slots__ = ()
    op = "-"


class Mul(_Binary):
    __slots__ = ()
    op = "*"


class Div(_Binary):
    __slots__ = ()
    op = "/"


class Pow(ScalarExpr):
    """Integer power with exponent >= 2; smaller and negative exponents are
    folded away or rewritten as division by the constructors."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: int):
        super().__init__(base.arity)
        self.base, self.exponent = base, exponent

    @classmethod
    def _key(cls, base, exponent):
        return (cls, id(base), exponent)

    @property
    def children(self):
        return (self.base,)

    def _pieces(self):
        return ("(", self.base, f" ^ {self.exponent})")


class Call(ScalarExpr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: ScalarExpr):
        super().__init__(arg.arity)
        self.fn, self.arg = fn, arg

    @classmethod
    def _key(cls, fn, arg):
        return (cls, fn, id(arg))

    @property
    def children(self):
        return (self.arg,)

    def _pieces(self):
        return (f"{self.fn}(", self.arg, ")")


def _render(root: ScalarExpr) -> str:
    """Text of ``root`` in one pass, O(len(text)) and no recursion.  A node
    without text lists its ``_pieces``, strings and child nodes; a node with
    text is spliced in whole."""
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item._text is not None:
            out.append(item._text)
        else:
            stack.extend(reversed(item._pieces()))
    return "".join(out)


def _topological(root: ScalarExpr) -> tuple[ScalarExpr, ...]:
    """The distinct nodes under ``root``, children before parents and left
    before right (the order of a recursive walk, repeats dropped), ending
    with ``root``.  Found once without recursion and kept on the root, less
    the root itself, which would make a reference cycle."""
    tape = root._tape
    if tape is None:
        order = []
        seen = {root}
        stack = [(root, iter(root.children))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(child.children)))
                    break
            else:
                stack.pop()
                order.append(node)
        tape = root._tape = tuple(order[:-1])
    return (*tape, root)


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
        return Const(_real_power(base.value, exponent), base.arity)
    return Pow(base, exponent)


def call(fn: str, arg: ScalarExpr) -> ScalarExpr:
    if fn not in PRIMITIVES:
        raise ValueError(f"unknown primitive {fn!r}")
    if isinstance(arg, Const):
        if fn == "log" and arg.value <= 0.0:
            raise DomainError("log of a nonpositive constant")
        return Const(_real_primitive(fn, arg.value), arg.arity)
    return Call(fn, arg)


def _real_power(x: float, exponent: int) -> float:
    try:
        return x ** exponent
    except OverflowError:
        raise DomainError(f"{x!r} ^ {exponent} overflows") from None


def _real_primitive(fn: str, x: float) -> float:
    """fn(x) for a primitive; log's domain is the caller's to check."""
    try:
        return getattr(math, fn)(x)
    except (OverflowError, ValueError):
        raise DomainError(f"{fn} is out of range at {x!r}") from None


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
    """Symbolic partial derivative with respect to x{index}.

    Every node keeps its partials by index once they are built, so a repeated
    call returns at once and a call on an expression that shares nodes with
    earlier ones builds only what is new.  A derivative can refer back to its
    node (d exp(u) = exp(u) * u'), so the kept partials form reference cycles
    that the garbage collector frees with the expression.
    """
    if index < 0 or index >= f.arity:
        raise ArityError(f"derivative index {index} out of range for arity {f.arity}")
    if f._derivs is not None and index in f._derivs:
        return f._derivs[index]
    arity = f.arity
    zero, one = Const(0.0, arity), Const(1.0, arity)
    for node in _topological(f):
        derivs = node._derivs
        if derivs is None:
            derivs = node._derivs = {}
        elif index in derivs:
            continue
        kind = type(node)
        if kind is Const:
            out = zero
        elif kind is Var:
            out = one if node.index == index else zero
        elif kind is Add:
            out = add(node.a._derivs[index], node.b._derivs[index])
        elif kind is Sub:
            out = sub(node.a._derivs[index], node.b._derivs[index])
        elif kind is Mul:
            out = add(mul(node.a._derivs[index], node.b),
                      mul(node.a, node.b._derivs[index]))
        elif kind is Div:
            num = sub(mul(node.a._derivs[index], node.b),
                      mul(node.a, node.b._derivs[index]))
            out = div(num, mul(node.b, node.b))
        elif kind is Pow:
            scale = mul(Const(float(node.exponent), arity),
                        pow_(node.base, node.exponent - 1))
            out = mul(scale, node.base._derivs[index])
        else:  # Call
            darg = node.arg._derivs[index]
            if node.fn == "sin":
                out = mul(call("cos", node.arg), darg)
            elif node.fn == "cos":
                out = mul(neg(call("sin", node.arg)), darg)
            elif node.fn == "exp":
                out = mul(node, darg)
            else:  # log
                out = div(darg, node.arg)
        derivs[index] = out
    return f._derivs[index]


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
    out: dict[ScalarExpr, ScalarExpr] = {}
    for node in _topological(f):
        kind = type(node)
        if kind is Const:
            value = Const(node.value, target)
        elif kind is Var:
            value = replacements[node.index]
        elif kind is Add:
            value = add(out[node.a], out[node.b])
        elif kind is Sub:
            value = sub(out[node.a], out[node.b])
        elif kind is Mul:
            value = mul(out[node.a], out[node.b])
        elif kind is Div:
            value = div(out[node.a], out[node.b])
        elif kind is Pow:
            value = pow_(out[node.base], node.exponent)
        else:  # Call
            value = call(node.fn, out[node.arg])
        out[node] = value
    return out[f]


def eval_real(f: ScalarExpr, point: Sequence[float]) -> float:
    """Evaluate at a real point."""
    if len(point) != f.arity:
        raise ArityError("point length does not match the arity")
    values: dict[ScalarExpr, float] = {}
    for node in _topological(f):
        kind = type(node)
        if kind is Const:
            value = node.value
        elif kind is Var:
            value = float(point[node.index])
        elif kind is Add:
            value = values[node.a] + values[node.b]
        elif kind is Sub:
            value = values[node.a] - values[node.b]
        elif kind is Mul:
            value = values[node.a] * values[node.b]
        elif kind is Div:
            denom = values[node.b]
            if denom == 0.0:
                raise DomainError("division by zero")
            value = values[node.a] / denom
        elif kind is Pow:
            value = _real_power(values[node.base], node.exponent)
        else:  # Call
            inner = values[node.arg]
            if node.fn == "log" and inner <= 0.0:
                raise DomainError("log of a nonpositive value")
            value = _real_primitive(node.fn, inner)
        values[node] = value
    return values[f]


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
    except (OverflowError, ZeroDivisionError, ValueError):
        # ValueError: sin and cos of an infinite augmentation
        raise DomainError(f"derivative {k} of {fn} is out of range at {x!r}") from None


def eval_weil(f: ScalarExpr, point, *, order_cap: int | None = None,
              cache: dict | None = None) -> WeilElement | np.ndarray:
    """Evaluate over a Weil algebra; this is the algebra morphism that sends
    x_i to the i-th coordinate of the point.

    ``point`` is either a sequence of n WeilElements, and the value is a
    WeilElement, or near-points given as an object with an ``algebra`` and a
    coefficient array ``coeffs`` of shape (..., n, d) (a ``bundle.NearPoint``
    or a ``bundle.NearPoints`` batch), and the value is the (..., d) array.
    A batch runs the DAG once, each node over all of its points at once, and
    gives every point the bits a single evaluation would.

    ``cache`` maps nodes to their coefficient arrays at this same point; it is
    read and extended, so evaluations at one point share their
    subexpressions.  ``order_cap`` truncates the primitives' Taylor
    expansions below the algebra height; it exists so the verification
    harness can demonstrate that dropping the top order is caught.  Leave it
    at None for correct results.  A capped evaluation neither reads nor
    writes ``cache``.
    """
    elements = not hasattr(point, "coeffs")
    if elements:
        if len(point) != f.arity:
            raise ArityError("point length does not match the arity")
        if not point:
            raise ArityError("evaluation over an algebra needs at least one coordinate")
        algebra = point[0].algebra
        for elem in point:
            if not algebra.compatible_with(elem.algebra):
                raise AlgebraMismatch("point coordinates live in different algebras")
        coords = [elem.coeffs for elem in point]
        batch = ()
    else:
        algebra, array = point.algebra, point.coeffs
        if array.shape[-2] != f.arity:
            raise ArityError("point length does not match the arity")
        coords = [array[..., i, :] for i in range(f.arity)]
        batch = array.shape[:-2]
    values = {} if cache is None or order_cap is not None else cache
    for node in _topological(f):
        if node in values:
            # the cache only ever holds whole sub-DAGs
            continue
        kind = type(node)
        if kind is Const:
            value = np.zeros(batch + (algebra.dim,))
            value[..., 0] = node.value
        elif kind is Var:
            value = coords[node.index]
        elif kind is Add:
            value = values[node.a] + values[node.b]
        elif kind is Sub:
            value = values[node.a] - values[node.b]
        elif kind is Mul:
            value = _product(algebra, values[node.a], values[node.b])
        elif kind is Div:
            value = _product(algebra, values[node.a],
                             _inverse(algebra, values[node.b]))
        elif kind is Pow:
            value = _power(algebra, values[node.base], node.exponent)
        else:  # Call
            value = _taylor_lift(node.fn, algebra, values[node.arg], order_cap)
        values[node] = value
    return _wrap(algebra, values[f]) if elements else values[f]


def _taylor_lift(fn: str, algebra: WeilAlgebra, a: np.ndarray,
                 cap: int | None) -> np.ndarray:
    """fn over coefficient arrays of shape (..., d), point by point: the
    Taylor series at the augmentation, up to the first vanishing power of
    the nilpotent part."""
    order = algebra.height if cap is None else min(algebra.height, cap)
    xs = a[..., 0].ravel().tolist()
    if fn == "log":
        if any(x <= 0.0 for x in xs):
            raise DomainError("log needs a positive augmentation")
        heads = [math.log(x) for x in xs]
    else:
        heads = [_primitive_derivative(fn, 0, x) for x in xs]
    acc = np.zeros(a.shape)
    acc[..., 0] = heads[0] if a.ndim == 1 else np.reshape(heads, a.shape[:-1])
    power = _unit(algebra)
    nil = a.copy()
    nil[..., 0] = 0.0
    live = True
    factorial = 1.0
    for k in range(1, order + 1):
        power = _product(algebra, power, nil)
        live = _live(power, live)
        if live is False:
            break
        factorial *= k
        if a.ndim == 1:
            scale = _primitive_derivative(fn, k, xs[0]) / factorial
        else:
            going = [True] * len(xs) if live is True else live.ravel().tolist()
            scale = np.reshape([_primitive_derivative(fn, k, x) / factorial
                                if alive else 0.0 for x, alive in zip(xs, going)],
                               a.shape[:-1] + (1,))
        acc = _add_live(acc, power * scale, live)
    return acc
