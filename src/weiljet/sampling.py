"""Seeded random generators for elements, expressions, fields, and forms.

Everything here takes an explicit numpy Generator so test shards and the
verification suite replay bit-identically.  Generic expressions are degree<=3
polynomials with one damped transcendental factor; log and division are
excluded here because the fixed sampling box ``DEFAULT_BOX`` reaches outside
their domains.
"""

from __future__ import annotations

import numpy as np

from .algebra import WeilAlgebra, WeilElement
from .bundle import (
    DEFAULT_BOX,
    DEFAULT_SEED,
    BaseVectorField,
    BundleFunction,
    prolong_function,
)
from .expression import ScalarExpr, add, call, const, mul, pow_, var
from .symplectic import BaseForm, increasing_tuples


def sample_element(algebra: WeilAlgebra, rng: np.random.Generator) -> WeilElement:
    """Random element: augmentation in ``DEFAULT_BOX``, nilpotent
    coefficients in [-1, 1]."""
    coeffs = rng.uniform(-1.0, 1.0, size=algebra.dim)
    coeffs[0] = rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1])
    return algebra.element(coeffs)


def _coefficient(rng: np.random.Generator) -> float:
    # short reprs keep expression texts readable in witnesses; the draw is
    # rng.uniform(-2.0, 2.0)'s own formula, without a NumPy scalar
    value = round(-2.0 + 4.0 * rng.random(), 3)
    return value if value != 0.0 else 0.5


def _monomial(arity: int, rng: np.random.Generator, max_degree: int) -> ScalarExpr:
    degree = int(rng.integers(0, max_degree + 1))
    out: ScalarExpr = const(_coefficient(rng), arity)
    exponents = [0] * arity
    for _ in range(degree):
        exponents[int(rng.integers(0, arity))] += 1
    for i, e in enumerate(exponents):
        if e:
            out = mul(out, pow_(var(i, arity), e))
    return out


def random_polynomial(arity: int, rng: np.random.Generator, *,
                      max_degree: int = 3, max_terms: int = 4) -> ScalarExpr:
    """Polynomial with a handful of random monomials of degree <= max_degree."""
    n_terms = int(rng.integers(1, max_terms + 1))
    out = _monomial(arity, rng, max_degree)
    for _ in range(n_terms - 1):
        out = add(out, _monomial(arity, rng, max_degree))
    return out


def _damped_linear(arity: int, rng: np.random.Generator, scale: float) -> ScalarExpr:
    out: ScalarExpr = const(round(float(rng.uniform(-0.5, 0.5)), 3), arity)
    for i in range(arity):
        out = add(out, mul(const(round(float(rng.uniform(-scale, scale)), 3), arity),
                           var(i, arity)))
    return out


def random_expression(arity: int, rng: np.random.Generator) -> ScalarExpr:
    """Degree<=3 polynomial combined with one transcendental factor
    sin/cos/exp of a damped linear argument."""
    poly = random_polynomial(arity, rng)
    fn = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
    arg = _damped_linear(arity, rng, 0.3 if fn == "exp" else 0.8)
    factor = call(fn, arg)
    if rng.uniform() < 0.5:
        return add(poly, factor)
    return mul(poly, factor)


def random_base_field(arity: int, rng: np.random.Generator, *,
                      max_degree: int = 2) -> BaseVectorField:
    """Vector field with random polynomial components."""
    comps = [random_polynomial(arity, rng, max_degree=max_degree, max_terms=3)
             for _ in range(arity)]
    return BaseVectorField(comps)


def random_base_form(arity: int, degree: int, rng: np.random.Generator) -> BaseForm:
    """Differential form with random polynomial coefficients on every
    increasing index tuple."""
    coeffs = {}
    for idx in increasing_tuples(arity, degree):
        coeffs[idx] = random_polynomial(arity, rng, max_degree=2, max_terms=2)
    return BaseForm(degree, arity, coeffs)


def random_bundle_function(algebra: WeilAlgebra, arity: int,
                           rng: np.random.Generator) -> BundleFunction:
    """A sum of one or two terms, each an algebra-element coefficient times
    one or two prolonged polynomials."""
    total = BundleFunction.zero(algebra, arity)
    for _ in range(int(rng.integers(1, 3))):
        term = BundleFunction.constant(sample_element(algebra, rng), algebra, arity)
        for _ in range(int(rng.integers(1, 3))):
            term = term * prolong_function(
                random_polynomial(arity, rng, max_degree=2, max_terms=2), algebra)
        total = total + term
    return total


__all__ = [
    "DEFAULT_SEED",
    "sample_element",
    "random_polynomial",
    "random_expression",
    "random_base_field",
    "random_base_form",
    "random_bundle_function",
]
