"""JSON readers for the public object kinds, and writers for those the CLI
prints (algebras, elements, functions and fields).

Schemas:
  algebra     {"family":"truncated","width":k,"height":h}
              {"family":"table","dim":d,"constants":[[[...]]]}
  element     {"coeffs":[...]}
  near point  {"algebra":{...}, "coords":[{"coeffs":[...]} ,...]}
  vector field  ["expr", ...]                       (prolonged base field)
                [[{"coeff":..., "pullbacks":[...]}], ...]   (terms per component)
  function    "expr" or {"terms":[{"coeff":..., "pullbacks":[...]}]}
  poisson     {"arity":n, "bivector":{"01":"expr", ...}}   (upper triangle)
  form        {"degree":p, "arity":n, "coeffs":{"0,1":"expr", ...}}

Term coefficients are a plain number (a real multiple of the unit) or a full
coefficient vector.  A function read from terms is their sum, each term its
coefficient times its pullbacks in order.  A function is written by
expanding its A-valued sums and products into terms whose pullbacks are its
maximal real subexpressions, so a real product stays one pullback.
Bivector keys accept both the two-digit and the comma-separated spellings.
Everything emitted here parses back through the matching reader.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import (
    WeilAlgebra,
    WeilElement,
    _product,
    _unit,
    make_truncated_algebra,
    validate_algebra,
)
from .bundle import (
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    prolong_function,
    prolong_vector_field,
)
from .errors import DomainError, ParseError
from .expression import (
    Add,
    Const,
    Mul,
    Sub,
    _Solved,
    _topological,
    _Weight,
    parse_expr,
)
from .poisson import PoissonStructure
from .symplectic import BaseForm, SymplecticStructure


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` when it is a JSON value of ``kind``, a boolean not counting
    as an integer; a ParseError naming ``what`` otherwise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{what} must be {_KINDS[kind]}")
    return value


def _expr_entry(raw, what: str):
    """An expression string, or a number read as a finite constant."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (int, float)):
        return _coeffs_from_json([raw])[0]
    raise ParseError(f"{what} must be an expression string or a number")


def load_json(text: str, what: str):
    """The JSON document in ``text``, one command-line argument; ``what``
    names it in the errors.  The decoder recurses once per level of
    nesting, so a document nested past the interpreter's stack is refused
    as a parse error, like a malformed one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} nests too deeply") from None


# -- algebras -------------------------------------------------------------------

def algebra_to_json(algebra: WeilAlgebra) -> dict:
    family = algebra.family
    if family[0] == "truncated":
        return {"family": "truncated", "width": family[1], "height": family[2]}
    return {"family": "table", "dim": algebra.dim,
            "constants": algebra.structure_constants.tolist()}


def algebra_from_json(obj: dict) -> WeilAlgebra:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError("an algebra object needs a 'family' key")
    if obj["family"] == "truncated":
        return make_truncated_algebra(
            _typed(obj.get("width"), int, "a truncated algebra's 'width'"),
            _typed(obj.get("height"), int, "a truncated algebra's 'height'"))
    if obj["family"] == "table":
        constants = _typed(obj.get("constants"), list, "a table algebra's 'constants'")
        # ragged nesting leaves lists among the entries, which are no numbers
        shaped = np.array(constants, dtype=object)
        try:
            table = np.reshape(_numbers_from_json(shaped.ravel()), shaped.shape)
        except ParseError:
            raise ParseError("a table algebra's 'constants' must be nested "
                             "lists of numbers") from None
        dim = _typed(obj.get("dim", len(constants)), int, "a table algebra's 'dim'")
        if dim != len(constants):
            raise ParseError(f"a table algebra's 'dim' must equal the size of its "
                             f"'constants', {len(constants)}")
        return validate_algebra(table)
    raise ParseError(f"unknown algebra family {obj['family']!r}")


def parse_algebra_spec(text: str) -> WeilAlgebra:
    """Read an algebra from a compact spec: 'dual', 'truncated:k,h', or the
    JSON object form."""
    text = text.strip()
    if text == "dual":
        return make_truncated_algebra(1, 1)
    if text.startswith("truncated:"):
        body = text[len("truncated:"):]
        try:
            width, height = (int(part) for part in body.split(","))
        except ValueError:
            raise ParseError(f"expected 'truncated:k,h', got {text!r}") from None
        return make_truncated_algebra(width, height)
    return algebra_from_json(load_json(text, "algebra spec"))


# -- elements and points ----------------------------------------------------------

def _coeffs_to_json(coeffs) -> list[float]:
    """Coefficients as JSON numbers; a result that overflowed has none."""
    values = [float(c) for c in coeffs]
    if not all(math.isfinite(v) for v in values):
        raise DomainError("result has a non-finite coefficient")
    return values


def _numbers_from_json(values) -> list[float]:
    """Floats from JSON numbers; a boolean or a string that spells a number
    is not one."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        raise ParseError("coefficients must be numbers")
    try:
        return [float(v) for v in values]
    except OverflowError:
        # an integer literal beyond the float range
        raise ParseError("coefficients must be numbers") from None


def _coeffs_from_json(values) -> list[float]:
    """Finite floats from JSON numbers (``_numbers_from_json``)."""
    out = _numbers_from_json(values)
    if not all(math.isfinite(v) for v in out):
        raise ParseError("coefficients must be finite")
    return out


def element_to_json(element: WeilElement) -> dict:
    return {"coeffs": _coeffs_to_json(element.coeffs)}


def element_from_json(obj, algebra: WeilAlgebra) -> WeilElement:
    if isinstance(obj, dict):
        obj = obj.get("coeffs")
    if not isinstance(obj, (list, tuple)):
        raise ParseError("an element needs a 'coeffs' list")
    if len(obj) != algebra.dim:
        raise ParseError(f"an element of this algebra needs {algebra.dim} "
                         f"coefficients, got {len(obj)}")
    return algebra.element(_coeffs_from_json(obj))


def point_from_json(obj: dict, algebra: WeilAlgebra | None = None) -> NearPoint:
    if not isinstance(obj, dict) or "coords" not in obj:
        raise ParseError("a near-point object needs a 'coords' list")
    if algebra is None:
        if "algebra" not in obj:
            raise ParseError("a near-point needs an embedded or provided algebra")
        algebra = algebra_from_json(obj["algebra"])
    coords = _typed(obj["coords"], list, "a near-point's 'coords'")
    return NearPoint([element_from_json(c, algebra) for c in coords])


# -- functions and fields ----------------------------------------------------------

def _term_from_json(obj: dict, algebra: WeilAlgebra, arity: int) -> BundleFunction:
    if not isinstance(obj, dict):
        raise ParseError("a term must be an object with 'coeff' and 'pullbacks'")
    raw = obj.get("coeff", 1.0)
    if isinstance(raw, (int, float)):
        coeff = algebra.from_real(_coeffs_from_json([raw])[0])
    else:
        coeff = element_from_json(raw, algebra)
    term = BundleFunction.constant(coeff, algebra, arity)
    for text in _typed(obj.get("pullbacks", []), list, "a term's 'pullbacks'"):
        if not isinstance(text, str):
            raise ParseError("each pullback must be an expression string")
        term = term * prolong_function(parse_expr(text, arity), algebra)
    return term


def _terms_from_json(entries, algebra: WeilAlgebra, arity: int) -> BundleFunction:
    total = BundleFunction.zero(algebra, arity)
    for obj in _typed(entries, list, "a function's 'terms'"):
        total = total + _term_from_json(obj, algebra, arity)
    return total


def _expanded_terms(fn: BundleFunction) -> list[dict]:
    """The terms of a function as written: A-valued sums, differences and
    products expanded, each maximal real subtree one pullback (a real
    product is never distributed), terms with the same pullbacks added in
    the order they come, and zero sums dropped."""
    algebra, unit = fn.algebra, _unit(fn.algebra)
    # node with an A-valued constant below it -> its terms,
    # {pullback multiset: (pullbacks, coefficient array)}
    expanded: dict = {}

    def terms_of(node):
        if node in expanded:
            return expanded[node]
        if isinstance(node, Const):
            return {(): ((), node.value * unit)} if node.value != 0.0 else {}
        return {(node,): ((node,), unit)}

    for node in _topological(fn.root):
        kind = type(node)
        if kind is _Solved:
            raise ValueError("solved components have no serialized form")
        if kind is _Weight:
            expanded[node] = {(): ((), node.coeffs)}
            continue
        if not any(child in expanded for child in node.children):
            continue
        if kind not in (Add, Sub, Mul):
            raise ValueError(f"{node.text} has no serialized form")
        left, right = terms_of(node.a), terms_of(node.b)
        if kind is Mul:
            out: dict = {}
            for pulls_a, coeff_a in left.values():
                for pulls_b, coeff_b in right.values():
                    _accumulate(out, pulls_a + pulls_b,
                                _product(algebra, coeff_a, coeff_b))
        else:
            out = dict(left)
            for pulls, coeff in right.values():
                _accumulate(out, pulls, coeff if kind is Add else -coeff)
        expanded[node] = out
    return [{"coeff": _coeffs_to_json(coeff),
             "pullbacks": sorted(p.text for p in pulls)}
            for pulls, coeff in terms_of(fn.root).values()
            if np.count_nonzero(coeff)]


def _accumulate(terms: dict, pulls: tuple, coeff):
    """Add coeff * pulls into terms, keyed on the pullbacks as a multiset."""
    key = tuple(sorted(pulls, key=id))
    if key in terms:
        coeff = terms[key][1] + coeff
    terms[key] = (pulls, coeff)


def bundle_function_to_json(fn: BundleFunction) -> dict:
    return {"terms": _expanded_terms(fn)}


def bundle_function_from_json(obj, algebra: WeilAlgebra, arity: int) -> BundleFunction:
    if isinstance(obj, str):
        return prolong_function(parse_expr(obj, arity), algebra)
    if isinstance(obj, dict) and "terms" in obj:
        return _terms_from_json(obj["terms"], algebra, arity)
    raise ParseError("a function is an expression string or a terms object")


def field_to_json(field: BundleVectorField) -> list:
    return [bundle_function_to_json(c)["terms"] for c in field.components]


def bundle_field_from_json(obj, algebra: WeilAlgebra) -> BundleVectorField:
    """Read a prolonged field: expression strings prolong componentwise;
    term lists build each component directly."""
    if not isinstance(obj, list) or not obj:
        raise ParseError("a vector field is a nonempty list")
    n = len(obj)
    if all(isinstance(c, str) for c in obj):
        return prolong_vector_field(
            BaseVectorField([parse_expr(text, n) for text in obj]), algebra)
    comps = []
    for entry in obj:
        if not isinstance(entry, list):
            raise ParseError("each component is an expression string or a term list")
        comps.append(_terms_from_json(entry, algebra, n))
    return BundleVectorField(comps)


# -- structures ---------------------------------------------------------------------

def _pair_key_from_json(key: str) -> tuple[int, int]:
    if "," in key:
        parts = key.split(",")
    else:
        parts = list(key)
    if len(parts) != 2:
        raise ParseError(f"bivector key {key!r} must name two indices")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bivector key {key!r} must name two indices") from None


def poisson_from_json(obj: dict) -> PoissonStructure:
    if not isinstance(obj, dict) or "arity" not in obj or "bivector" not in obj:
        raise ParseError("a Poisson object needs 'arity' and 'bivector'")
    arity = _typed(obj["arity"], int, "a Poisson object's 'arity'")
    bivector = {_pair_key_from_json(k): _expr_entry(v, "a bivector entry")
                for k, v in _typed(obj["bivector"], dict,
                                   "a Poisson object's 'bivector'").items()}
    return PoissonStructure(arity, bivector)


def parse_poisson_spec(text: str) -> PoissonStructure:
    """'canonical:n', 'rotational', or the JSON object form."""
    text = text.strip()
    if text.startswith("canonical:"):
        try:
            arity = int(text[len("canonical:"):])
        except ValueError:
            raise ParseError(f"expected 'canonical:n', got {text!r}") from None
        return PoissonStructure.canonical(arity)
    if text == "rotational":
        return PoissonStructure.rotational()
    return poisson_from_json(load_json(text, "Poisson spec"))


def form_from_json(obj: dict) -> BaseForm:
    if not isinstance(obj, dict) or "degree" not in obj:
        raise ParseError("a form object needs 'degree' and 'coeffs'")
    coeffs = {}
    top = -1
    for key, raw in _typed(obj.get("coeffs", {}), dict, "a form's 'coeffs'").items():
        try:
            idx = tuple(int(p) for p in key.split(",")) if key else ()
        except ValueError:
            raise ParseError(f"bad coefficient key {key!r}") from None
        coeffs[idx] = _expr_entry(raw, "a form coefficient")
        top = max(top, max(idx, default=-1))
    arity = obj.get("arity")
    if arity is None:
        arity = top + 1
    if _typed(arity, int, "a form's 'arity'") < 1:
        raise ParseError("cannot infer the form arity; provide one")
    return BaseForm(_typed(obj["degree"], int, "a form's 'degree'"), arity, coeffs)


def parse_symplectic_spec(text: str) -> SymplecticStructure:
    """'canonical:n' or a form JSON object; returns a SymplecticStructure."""
    text = text.strip()
    if text.startswith("canonical:"):
        try:
            size = int(text[len("canonical:"):])
        except ValueError:
            raise ParseError(f"expected 'canonical:n', got {text!r}") from None
        return SymplecticStructure.canonical(size)
    return SymplecticStructure(form_from_json(load_json(text, "symplectic spec")))


__all__ = [
    "load_json",
    "algebra_to_json", "algebra_from_json", "parse_algebra_spec",
    "element_to_json", "element_from_json",
    "point_from_json",
    "bundle_function_to_json", "bundle_function_from_json",
    "bundle_field_from_json", "field_to_json",
    "poisson_from_json", "parse_poisson_spec",
    "form_from_json", "parse_symplectic_spec",
]
