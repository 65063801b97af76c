"""Expressions for smooth scalar functions on R^n, as hash-consed DAGs.

Nodes: coordinates x0..x{n-1}, float constants, the binary operations
+ - * /, integer powers, and the primitives sin, cos, exp, log.  Every node
carries the ambient arity.  Nodes are immutable and hash-consed: they are
made only by the constructor functions (``const``, ``var``, ``add`` ...,
``call``, and the private ``_weight`` and ``_solved``), each of which writes
its kind's key once, from the node's kind, payload, children and arity, and
passes it to the one intern table.  Equal expressions are therefore the same
object and equality is identity; the node classes serve ``type`` and
``isinstance`` checks only.  The table maps each key to a weak reference to
its node, and a node's death removes its entry, so the table never outgrows
the live expressions.  A constant is keyed on the ``repr`` of its value,
which keeps 0.0 and -0.0 apart and makes every NaN one node.

Two private leaf kinds make the same DAG hold A-valued functions on the
near-point space (``bundle.BundleFunction``): an A-valued constant, and one
component of a pointwise linear solve over the algebra.  Sums, products and
partials of such functions are nodes like any other; the real value
domains (``eval_real``, ``compose``) refuse them.

``text`` is parenthesized except along same-precedence chains, where
((a + b) - c) prints as (a + b - c); it is rendered on first use in one
pass, and it is the wire format, because ``parse_expr(e.text, e.arity)``
returns ``e`` itself.  The parser reads a text in one loop over an explicit
stack, so it refuses nesting deeper than ``MAX_NESTING`` wherever it is
called from; a long sum or product prints one level deep and parses flat.

Differentiation, composition and evaluation over the reals and over a Weil
algebra sweep one tape with a table of rules by node kind per value domain
(Griewank & Walther, *Evaluating Derivatives*, 2008).  A sweep visits the
DAG children first, in a topological order found once per root and kept on
it, with no Python recursion, and handles each distinct node once per call,
so shared subexpressions cost nothing extra and nesting depth is bounded by
memory only.  Composition and evaluation are one loop, ``_walk``.
Differentiation keeps each node's partials on the node and runs a rule only
where one is missing.  Evaluation over a cache that already holds part of
the DAG walks only the nodes still to do and keeps no tape.

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
)
from .errors import (
    AlgebraMismatch,
    ArityError,
    DomainError,
    ParseError,
    UnknownIdentifier,
)

PRIMITIVES = ("sin", "cos", "exp", "log")

# The intern table: key -> a weak reference to the one live node with that
# key.  Keys name child nodes by id, so the table holds no node strongly: a
# live node keeps its children alive, so the ids in a live key are never
# reused, and a dead node's children can be collected with it in one pass of
# the collector.  ``_intern`` is the one place a node is built: a
# constructor function builds its key tuple and calls it, and a hit costs
# that tuple, one dict lookup and one dereference.  A miss also calls the
# class (``ScalarExpr.__init__`` runs once) and adds one weak reference and
# one dict entry; a node's death runs ``_drop``.
_NODES: dict = {}


class _NodeRef(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _drop(ref: _NodeRef) -> None:
    """The callback of every reference in the table: remove the dead
    node's entry, unless its key already maps to another reference (a node
    can be rebuilt under the key after the collector cleared ``ref`` and
    before it ran this)."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _intern(key: tuple, cls: type, *args) -> "ScalarExpr":
    """The live node with ``key``, or a new ``cls(*args)`` registered."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = cls(*args)
    ref = _NODES[key] = _NodeRef(node, _drop)
    ref.key = key
    return node


class ScalarExpr:
    """Base node.  ``children`` lists the operand nodes left to right;
    nodes compare and hash by identity."""

    __slots__ = ("arity", "_text", "_tape", "_derivs", "__weakref__")
    children: tuple = ()

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
        super().__init__(arity, repr(value))
        self.value = value


class Var(ScalarExpr):
    __slots__ = ("index",)

    def __init__(self, index: int, arity: int):
        super().__init__(arity, f"x{index}")
        self.index = index


class _Binary(ScalarExpr):
    __slots__ = ("a", "b", "children")
    op = ""
    # binding strength: + and - share one level, * and / the next
    level = 0

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        super().__init__(a.arity)
        self.a, self.b = a, b
        self.children = (a, b)

    def _pieces(self):
        # a left operand of the same level prints without its own
        # parentheses, so ((a + b) - c) is (a + b - c); the left spine is
        # walked, not recursed into
        rights = []
        node = self
        while True:
            rights += (node.b, f" {node.op} ")
            left = node.a
            if not (isinstance(left, _Binary) and left.level == self.level):
                break
            node = left
        return ("(", left, *reversed(rights), ")")


class Add(_Binary):
    __slots__ = ()
    op = "+"
    level = 1


class Sub(_Binary):
    __slots__ = ()
    op = "-"
    level = 1


class Mul(_Binary):
    __slots__ = ()
    op = "*"
    level = 2


class Div(_Binary):
    __slots__ = ()
    op = "/"
    level = 2


class Pow(ScalarExpr):
    """Integer power with exponent >= 2; smaller and negative exponents are
    folded away or rewritten as division by the constructors."""

    __slots__ = ("base", "exponent", "children")

    def __init__(self, base: ScalarExpr, exponent: int):
        super().__init__(base.arity)
        self.base, self.exponent = base, exponent
        self.children = (base,)

    def _pieces(self):
        return ("(", self.base, f" ^ {self.exponent})")


class Call(ScalarExpr):
    __slots__ = ("fn", "arg", "children")

    def __init__(self, fn: str, arg: ScalarExpr):
        super().__init__(arg.arity)
        self.fn, self.arg = fn, arg
        self.children = (arg,)

    def _pieces(self):
        return (f"{self.fn}(", self.arg, ")")


class _Weight(ScalarExpr):
    """An A-valued constant: a fixed element of a Weil algebra whose
    nilpotent part is not zero (a real multiple of the unit is a Const).
    Its partials are 0 and it evaluates to its coefficient vector."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: np.ndarray, arity: int):
        super().__init__(arity, "<" + ", ".join(repr(float(c)) for c in coeffs) + ">")
        self.algebra = algebra
        self.coeffs = coeffs


class _Solved(ScalarExpr):
    """Component ``index`` of a pointwise linear solve over a Weil algebra.
    The solve gives ``solution(point)``, the (..., m, d) solution at a
    near-point or a batch, and ``derivative(i)``, the solve whose solution is
    the partial along x_i; the node keeps its solve alive."""

    __slots__ = ("solve", "index")

    def __init__(self, solve, index: int, arity: int):
        super().__init__(arity, f"<solved {index}>")
        self.solve = solve
        self.index = index


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
        tape = root._tape = tuple(_unfinished(root)[:-1])
    return (*tape, root)


def _unfinished(root: ScalarExpr, finished=None) -> list[ScalarExpr]:
    """The nodes under ``root`` in the order of ``_topological``, without a
    tape.  ``finished(node)`` marks a node whose whole sub-DAG is done; the
    walk lists no such node and does not descend into it, so it costs only
    the nodes still to do."""
    order = []
    seen = {root}
    stack = [(root, iter(root.children))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen and (finished is None or not finished(child)):
                seen.add(child)
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


# -- smart constructors (constant folding only) ------------------------------

def const(value: float, arity: int) -> Const:
    value = float(value)
    # repr keeps 0.0 and -0.0 apart and makes every NaN one node
    return _intern((Const, repr(value), arity), Const, value, arity)


def var(index: int, arity: int) -> Var:
    if index < 0 or index >= arity:
        raise ArityError(f"variable x{index} out of range for arity {arity}")
    return _intern((Var, index, arity), Var, index, arity)


def _weight(element: WeilElement, arity: int) -> ScalarExpr:
    """The A-valued constant ``element`` in the given arity; a real multiple
    of the unit is a Const."""
    coeffs = element.coeffs
    if not np.count_nonzero(coeffs[1:]):
        return const(coeffs[0], arity)
    return _intern((_Weight, element.algebra._fingerprint, coeffs.tobytes(), arity),
                   _Weight, element.algebra, coeffs, arity)


def _solved(solve, index: int, arity: int) -> _Solved:
    """Component ``index`` of the pointwise solve ``solve``."""
    return _intern((_Solved, id(solve), index, arity), _Solved, solve, index, arity)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if type(a) is Const:
        if type(b) is Const:
            # c + 0.0 is c itself, but -0.0 + 0.0 is +0.0; the texts tell the
            # signed zeros apart
            if b._text == "0.0" and a._text != "-0.0":
                return a
            if a._text == "0.0" and b._text != "-0.0":
                return b
            return const(a.value + b.value, a.arity)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return _intern((Add, id(a), id(b)), Add, a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if type(b) is Const:
        if type(a) is Const:
            return const(a.value - b.value, a.arity)
        if b.value == 0.0:
            return a
    return _intern((Sub, id(a), id(b)), Sub, a, b)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if type(a) is Const:
        if type(b) is Const:
            return const(a.value * b.value, a.arity)
        if a.value == 0.0:
            return a if a._text == "0.0" else const(0.0, a.arity)
        if a.value == 1.0:
            return b
    elif type(b) is Const:
        if b.value == 0.0:
            return b if b._text == "0.0" else const(0.0, a.arity)
        if b.value == 1.0:
            return a
    return _intern((Mul, id(a), id(b)), Mul, a, b)


def neg(a: ScalarExpr) -> ScalarExpr:
    return mul(const(-1.0, a.arity), a)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(b, Const):
        if b.value == 0.0:
            raise DomainError("division by the constant zero")
        if isinstance(a, Const):
            return const(a.value / b.value, a.arity)
        if b.value == 1.0:
            return a
    return _intern((Div, id(a), id(b)), Div, a, b)


def pow_(base: ScalarExpr, exponent: int) -> ScalarExpr:
    if exponent < 0:
        return div(const(1.0, base.arity), pow_(base, -exponent))
    if exponent == 0:
        return const(1.0, base.arity)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return const(_real_power(base.value, exponent), base.arity)
    return _intern((Pow, id(base), exponent), Pow, base, exponent)


def call(fn: str, arg: ScalarExpr) -> ScalarExpr:
    if fn not in PRIMITIVES:
        raise ValueError(f"unknown primitive {fn!r}")
    if isinstance(arg, Const):
        if fn == "log" and arg.value <= 0.0:
            raise DomainError("log of a nonpositive constant")
        return const(_real_primitive(fn, arg.value), arg.arity)
    return _intern((Call, fn, id(arg)), Call, fn, arg)


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

# The deepest stack of pending operations a text may build: open parentheses
# and calls, negations, and operators waiting for their right operand.
MAX_NESTING = 1000
# The largest exponent literal: up to it every integer is a float, so the
# power rule's coefficient float(exponent) is exact.
MAX_EXPONENT = 2 ** 53

_SCAN = re.compile(r"""
    \s+
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_VAR_NAME = re.compile(r"^x(\d+)$")


def parse_expr(text: str, arity: int) -> ScalarExpr:
    """Parse expression text against a fixed arity.

    Variables are x0..x{arity-1}; ^ takes a literal integer exponent of at
    most ``MAX_EXPONENT`` in size, with negative exponents rewritten as
    division and fractional ones rejected.
    The grammar is
        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-' factor | atom ['^' ['-'] integer]
        atom   := number | ident | ident '(' expr ')' | '(' expr ')'
    which gives the precedence ^  >  unary -  >  * /  >  + -.  One loop reads
    it over an explicit stack at most ``MAX_NESTING`` deep.  Negations,
    products and quotients are built as soon as their right operand is
    complete, and sums and differences when the next term ends, so constant
    folding raises where a recursive descent would.
    """
    if arity < 0:
        raise ArityError("arity must be nonnegative")
    # (kind, text, offset), an operator's kind being its text; the whole
    # text is scanned before parsing starts
    tokens = []
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind is not None:
            tokens.append((m.group() if kind == "op" else kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    # pending (operation, left operand): "(" or a primitive opens a group,
    # "neg" negates, and a binary operator holds its left operand
    stack = []
    pos = 0
    while True:
        # operand position: a negation, an opening group, or an atom
        if len(stack) > MAX_NESTING:
            raise ParseError("expression nests too deeply")
        kind, body, offset = tokens[pos]
        pos += 1
        if kind == "-" or kind == "(" or body in PRIMITIVES:
            if kind == "ident":
                if tokens[pos][0] != "(":
                    raise ParseError(f"expected '(' after {body}", tokens[pos][2])
                pos += 1
            stack.append(("neg" if kind == "-" else body, None))
            continue
        if kind == "num":
            value = const(float(body), arity)
        elif kind == "ident":
            m = _VAR_NAME.match(body)
            if m is None:
                raise UnknownIdentifier(f"unknown identifier {body!r}", offset)
            if int(m.group(1)) >= arity:
                raise ArityError(f"variable {body} out of range for arity {arity}")
            value = var(int(m.group(1)), arity)
        else:
            raise ParseError("expected a number, identifier, or '('", offset)
        # operator position, after an atom or a closed group: at most one
        # power, then a closing parenthesis, a binary operator or the end
        while True:
            kind, body, offset = tokens[pos]
            if kind == "^":
                pos += 1
                sign = 1
                if tokens[pos][0] == "-":
                    sign = -1
                    pos += 1
                kind, body, offset = tokens[pos]
                # a number is an integer when it has no point and no exponent
                if kind != "num" or not body.isdigit():
                    raise ParseError("exponent must be an integer", offset)
                # the length test comes first, so no long literal is converted
                digits = body.lstrip("0") or "0"
                if (len(digits) > len(str(MAX_EXPONENT))
                        or int(digits) > MAX_EXPONENT):
                    raise ParseError("exponent out of range", offset)
                value = pow_(value, sign * int(digits))
                pos += 1
                kind, body, offset = tokens[pos]
            while stack and stack[-1][0] in ("neg", "*", "/"):
                op, left = stack.pop()
                if op == "neg":
                    value = neg(value)
                elif op == "*":
                    value = mul(left, value)
                else:
                    value = div(left, value)
            if kind == "*" or kind == "/":
                break
            # the term ends here
            while stack and stack[-1][0] in ("+", "-"):
                op, left = stack.pop()
                value = add(left, value) if op == "+" else sub(left, value)
            if kind != ")" or not stack:
                break
            op = stack.pop()[0]
            if op != "(":
                value = call(op, value)
            pos += 1
        if kind in ("+", "-", "*", "/"):
            stack.append((kind, value))
            pos += 1
            continue
        if stack:
            raise ParseError("expected ')'", offset)
        if kind != "end":
            raise ParseError(f"unexpected trailing input {body!r}", offset)
        return value


def _coerce(value, arity: int, what: str) -> ScalarExpr:
    """An expression in the given arity from an expression, its text or a
    number; ``what`` names the value in the errors."""
    if isinstance(value, ScalarExpr):
        if value.arity != arity:
            raise ArityError(f"{what} has arity {value.arity}, not {arity}")
        return value
    if isinstance(value, str):
        return parse_expr(value, arity)
    if isinstance(value, (int, float)):
        return const(float(value), arity)
    raise TypeError(f"cannot read a {what} from {type(value).__name__}")


# -- calculus: one rule table per value domain -------------------------------

def _walk(nodes, rules: dict, values: dict, env, walker: str = "") -> dict:
    """Give each of ``nodes``, children first, that ``values`` lacks the
    value ``rules[type(node)](node, values, env)``, and return ``values``.
    A rule reads the children's values in ``values`` and the walk's
    argument ``env``, and the seam ``_taylor_lift``.  A kind mapped to None
    gets no value (its readers build one); a kind missing from a real
    domain's table is A-valued, refused in the name of ``walker``."""
    for node in nodes:
        if node not in values:
            try:
                rule = rules[type(node)]
            except KeyError:
                raise AlgebraMismatch(f"{walker} takes real expressions; "
                                      f"{node.text} is A-valued") from None
            if rule is not None:
                values[node] = rule(node, values, env)
    return values


def differentiate(f: ScalarExpr, index: int) -> ScalarExpr:
    """Symbolic partial derivative with respect to x{index}.

    Every node keeps its partials by index once they are built, so a repeated
    call returns at once and a call on an expression that shares nodes with
    earlier ones builds only what is new.  A derivative can refer back to its
    node (d exp(u) = exp(u) * u'), so the kept partials form reference cycles
    that the garbage collector frees with the expression.  The rules are
    ``_PARTIAL``'s, which read the seam ``_product_rule`` when they run.
    """
    if index < 0 or index >= f.arity:
        raise ArityError(f"derivative index {index} out of range for arity {f.arity}")
    if f._derivs is not None and index in f._derivs:
        return f._derivs[index]
    # one pass: a node that keeps the partial lends it to the rules through
    # ``partials``, and a node that lacks it gets it from its rule
    env = (index, const(0.0, f.arity), const(1.0, f.arity))
    partials = {}
    for node in _topological(f):
        derivs = node._derivs
        if derivs is None:
            derivs = node._derivs = {}
        elif index in derivs:
            partials[node] = derivs[index]
            continue
        partials[node] = derivs[index] = _PARTIAL[type(node)](node, partials, env)
    return partials[f]


def _product_rule(a: ScalarExpr, b: ScalarExpr, da: ScalarExpr,
                  db: ScalarExpr) -> ScalarExpr:
    """The partial of a * b from the factors and their partials; the
    harness's ``leibniz_drop`` mutation replaces it."""
    return add(mul(da, b), mul(a, db))


def _partial_call(n, d, e):
    if n.fn == "log":
        return div(d[n.arg], n.arg)
    outer = (n if n.fn == "exp" else call("cos", n.arg) if n.fn == "sin"
             else neg(call("sin", n.arg)))
    return mul(outer, d[n.arg])


# e: (index, 0.0, 1.0) in the root's arity
_PARTIAL = {
    Const: lambda n, d, e: e[1],
    _Weight: lambda n, d, e: e[1],
    Var: lambda n, d, e: e[2] if n.index == e[0] else e[1],
    Add: lambda n, d, e: add(d[n.a], d[n.b]),
    Sub: lambda n, d, e: sub(d[n.a], d[n.b]),
    Mul: lambda n, d, e: _product_rule(n.a, n.b, d[n.a], d[n.b]),
    Div: lambda n, d, e: div(sub(mul(d[n.a], n.b), mul(n.a, d[n.b])), mul(n.b, n.b)),
    Pow: lambda n, d, e: mul(mul(const(float(n.exponent), n.arity),
                                 pow_(n.base, n.exponent - 1)), d[n.base]),
    Call: _partial_call,
    _Solved: lambda n, d, e: _solved(n.solve.derivative(e[0]), n.index, n.arity),
}


def _forget_partials():
    """Drop the partials kept on every live node, and the derived solves
    behind solved components, so that later calls build them anew; the
    harness does this where a mutation starts and ends."""
    for ref in list(_NODES.values()):
        node = ref()
        if node is None:
            continue
        node._derivs = None
        if type(node) is _Solved:
            node.solve._derived.clear()


def compose(f: ScalarExpr, replacements: Sequence[ScalarExpr]) -> ScalarExpr:
    """Substitute replacements[i] for x{i}; the result lives in the
    replacements' arity."""
    if len(replacements) != f.arity:
        raise ArityError("replacement count does not match the arity")
    if f.arity == 0:
        raise ArityError("cannot compose with an empty replacement list")
    if any(r.arity != replacements[0].arity for r in replacements):
        raise ArityError("replacements disagree on arity")
    return _walk(_topological(f), _SUBSTITUTION, {}, replacements, "compose")[f]


# e: the replacements
_SUBSTITUTION = {
    Const: lambda n, v, e: const(n.value, e[0].arity),
    Var: lambda n, v, e: e[n.index],
    Add: lambda n, v, e: add(v[n.a], v[n.b]),
    Sub: lambda n, v, e: sub(v[n.a], v[n.b]),
    Mul: lambda n, v, e: mul(v[n.a], v[n.b]),
    Div: lambda n, v, e: div(v[n.a], v[n.b]),
    Pow: lambda n, v, e: pow_(v[n.base], n.exponent),
    Call: lambda n, v, e: call(n.fn, v[n.arg]),
}


def eval_real(f: ScalarExpr, point: Sequence[float]) -> float:
    """Evaluate at a real point."""
    if len(point) != f.arity:
        raise ArityError("point length does not match the arity")
    return _walk(_topological(f), _REAL, {}, point, "eval_real")[f]


def _real_div(n, v, e):
    if v[n.b] == 0.0:
        raise DomainError("division by zero")
    return v[n.a] / v[n.b]


def _real_call(n, v, e):
    if n.fn == "log" and v[n.arg] <= 0.0:
        raise DomainError("log of a nonpositive value")
    return _real_primitive(n.fn, v[n.arg])


# e: the point
_REAL = {
    Const: lambda n, v, e: n.value,
    Var: lambda n, v, e: float(e[n.index]),
    Add: lambda n, v, e: v[n.a] + v[n.b],
    Sub: lambda n, v, e: v[n.a] - v[n.b],
    Mul: lambda n, v, e: v[n.a] * v[n.b],
    Div: _real_div,
    Pow: lambda n, v, e: _real_power(v[n.base], n.exponent),
    Call: _real_call,
}


def eval_weil(f: ScalarExpr, point, *, cache: dict | None = None) -> np.ndarray:
    """Evaluate over a Weil algebra; this is the algebra morphism that sends
    x_i to the i-th coordinate of the point.

    ``point`` is a ``bundle.NearPoint``: an ``algebra`` and a coefficient
    array ``coeffs`` of shape (..., n, d), one point or a batch of them, and
    the value is the (..., d) array.  A batch runs the DAG once, each node
    over all of its points at once, and gives every point the bits a single
    evaluation would.  A solved component reads its solve from the point's
    own cache.

    ``cache`` maps nodes to their coefficient arrays at this same point; it is
    read and extended, so evaluations at one point share their
    subexpressions.
    """
    if point.coeffs.shape[-2] != f.arity:
        raise ArityError("point length does not match the arity")
    values = {} if cache is None else cache
    # the cache only ever holds whole sub-DAGs, so over a warm cache the
    # walk stops at its nodes and keeps no tape; a cold one takes the tape
    # kept on the root, which evaluations at fresh points reuse
    _walk(_unfinished(f, values.__contains__) if values else _topological(f),
          _WEIL, values, point)
    return values[f] if f in values else _weil_array(f, values, point)


def _weil_array(n, v, point):
    """A constant's value, which the walk leaves out: it becomes an array
    only when a node other than a product reads it, or it is the root."""
    if n not in v:
        v[n] = _const_array(n.value, point.coeffs.shape[:-2], point.algebra.dim)
    return v[n]


def _weil_sum(n, v, e):
    x = v[n.a] if n.a in v else _weil_array(n.a, v, e)
    y = v[n.b] if n.b in v else _weil_array(n.b, v, e)
    return x + y if type(n) is Add else x - y


def _weil_mul(n, v, e):
    # a constant factor, on either side, scales the other value: the kernel
    # gives the same nonzero coefficients on the built constant
    if type(n.b) is Const:
        return v[n.a] * n.b.value
    if type(n.a) is Const:
        return v[n.b] * n.a.value
    return _product(e.algebra, v[n.a], v[n.b])


def _weil_weight(n, v, e):
    if not e.algebra.compatible_with(n.algebra):
        raise AlgebraMismatch("an A-valued constant lives in another algebra")
    return np.broadcast_to(n.coeffs, e.coeffs.shape[:-2] + n.coeffs.shape)


# e: the near-point
_WEIL = {
    Const: None,
    Var: lambda n, v, e: e.coeffs[..., n.index, :],
    Add: _weil_sum,
    Sub: _weil_sum,
    Mul: _weil_mul,
    Div: lambda n, v, e: _product(e.algebra, _weil_array(n.a, v, e),
                                  _inverse(e.algebra, _weil_array(n.b, v, e))),
    Pow: lambda n, v, e: _power(e.algebra, v[n.base], n.exponent),
    Call: lambda n, v, e: _taylor_lift(n.fn, e.algebra, v[n.arg]),
    _Weight: _weil_weight,
    _Solved: lambda n, v, e: n.solve.solution(e)[..., n.index, :],
}


def _const_array(value: float, batch: tuple, dim: int) -> np.ndarray:
    """The real ``value`` times the unit, at every point of ``batch``."""
    out = np.zeros(batch + (dim,))
    out[..., 0] = value
    return out


def _taylor_lift(fn: str, algebra: WeilAlgebra, a: np.ndarray,
                 order: int | None = None) -> np.ndarray:
    """fn over coefficient arrays of shape (..., d), point by point: the
    Taylor series at the augmentation, up to the first vanishing power of
    the nilpotent part.  ``order`` caps the series below the algebra height,
    which gives a wrong lift; only the harness's ``taylor_truncate``
    mutation sets it."""
    order = algebra.height if order is None else min(algebra.height, order)
    xs = a[..., 0].ravel().tolist()
    # per-point values: a float at one point, an (..., 1) array on a batch
    column = ((lambda values: values[0]) if a.ndim == 1 else
              (lambda values: np.reshape(values, a.shape[:-1] + (1,))))
    if fn == "log":
        if any(x <= 0.0 for x in xs):
            raise DomainError("log needs a positive augmentation")
        cycle = [column([math.log(x) for x in xs])]
    else:
        cycle = [column(values) for values in _derivative_cycle(fn, xs)]
    acc = np.zeros(a.shape)
    acc[..., :1] = cycle[0]
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
        if fn == "log":
            # its k-th derivative can overflow where a series has ended, so
            # it is taken only at the points still going on
            going = [True] * len(xs) if live is True else live.ravel().tolist()
            scale = column([_log_derivative(k, x) / factorial if alive else 0.0
                            for x, alive in zip(xs, going)])
        else:
            scale = cycle[k % len(cycle)] / factorial
            if live is not True:
                scale = np.where(live[..., None], scale, 0.0)
        acc = _add_live(acc, power * scale, live)
    return acc


def _derivative_cycle(fn: str, xs: list) -> list:
    """The derivatives of sin, cos or exp at the points ``xs``, one sequence
    over the points per derivative, derivative k being entry k modulo the
    count: from one math.sin and math.cos, or one math.exp, per point."""
    values = []
    for x in xs:
        try:
            if fn == "exp":
                values.append((math.exp(x),))
            else:
                s, c = math.sin(x), math.cos(x)
                values.append((s, c, -s, -c) if fn == "sin" else (c, -s, -c, s))
        except (OverflowError, ValueError):
            # ValueError: sin and cos of an infinite augmentation
            raise DomainError(f"derivative 0 of {fn} is out of range at {x!r}") from None
    return list(zip(*values)) or [()] * (1 if fn == "exp" else 4)


def _log_derivative(k: int, x: float) -> float:
    """The k-th derivative of log at x, k >= 1; x ** k underflows to zero
    when the derivative overflows."""
    try:
        return ((-1.0) ** (k - 1)) * math.factorial(k - 1) / x ** k
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"derivative {k} of log is out of range at {x!r}") from None
