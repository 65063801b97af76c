"""Near-points, prolonged functions, and vector fields.

A near-point of R^n for a Weil algebra A is an n-tuple of A elements; its
origin is the tuple of augmentations.  A smooth map h between base opens
prolongs to near-points by evaluating each component over A, and a scalar
function f prolongs to the A-valued function f^A acting the same way.  A
batch of near-points (``NearPoints``) holds S of them as one coefficient
array, and functions evaluate over all of them at once; sampled comparisons
draw and evaluate their points that way.

A-valued functions on the near-point space are stored as sums of terms

    coeff * f1^A * ... * fk^A * L1 * ... * Lm

with coeff in A, each f an expression on the base, and each L an opaque
pointwise factor that knows how to evaluate itself and how to differentiate
itself (used for hamiltonian fields of non-representable functions, whose
components come from solving a linear system at each point).  Functions with
no opaque factors are called representable; structural operations that need
to inspect the integrand (like the prolonged Poisson derivation) require
representability, while evaluation and derivatives work for every term.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .algebra import WeilAlgebra, WeilElement, _product, _wrap
from .errors import AlgebraMismatch, ArityError, DomainError
from .expression import Const, ScalarExpr, add, differentiate, eval_weil, mul, sub

DEFAULT_BOX = (-2.0, 2.0)


class NearPoint:
    """A point of the prolonged space: one A element per base coordinate.

    ``coeffs`` stacks the coordinates' coefficients as an (n, d) array.
    Evaluation of expressions at the point is memoized node by node, so
    functions evaluated at one NearPoint share their subexpressions there.
    """

    __slots__ = ("algebra", "coords", "coeffs", "_eval_cache", "_hash")

    def __init__(self, coords: Sequence[WeilElement]):
        coords = tuple(coords)
        if not coords:
            raise ArityError("a near-point needs at least one coordinate")
        algebra = coords[0].algebra
        for c in coords:
            if not algebra.compatible_with(c.algebra):
                raise AlgebraMismatch("near-point coordinates disagree on the algebra")
        self.algebra = algebra
        self.coords = coords
        self.coeffs = np.array([c.coeffs for c in coords])
        self.coeffs.setflags(write=False)
        self._eval_cache = {}
        self._hash = hash((algebra._fingerprint, coords))

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def origin(self) -> tuple[float, ...]:
        """The underlying base point (coordinate augmentations)."""
        return tuple(c.augmentation for c in self.coords)

    def pulled(self, expr: ScalarExpr) -> np.ndarray:
        """Coefficients of the prolonged function expr^A at this point."""
        cached = self._eval_cache.get(expr)
        if cached is None:
            cached = eval_weil(expr, self, cache=self._eval_cache)
        return cached

    def _factor(self, lazy: "LazyFactor") -> np.ndarray:
        return lazy.evaluate(self).coeffs

    def __eq__(self, other):
        if not isinstance(other, NearPoint):
            return NotImplemented
        return (self.algebra.compatible_with(other.algebra)
                and self.coords == other.coords)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coords)
        return f"NearPoint({inner})"


class NearPoints:
    """A batch of S near-points, held as one (S, n, d) coefficient array.

    Expressions evaluate over the whole batch at once, memoized node by node
    in one cache for the batch.  Lazy factors evaluate point by point, through
    the NearPoint of each sample (``batch[s]``), built on first use and kept,
    so every function evaluated on the batch shares it.
    """

    __slots__ = ("algebra", "coeffs", "_eval_cache", "_points")

    def __init__(self, algebra: WeilAlgebra, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] < 1 or coeffs.shape[2] != algebra.dim:
            raise ArityError(f"expected an (S, n, {algebra.dim}) coefficient array, "
                             f"got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        self.algebra = algebra
        self.coeffs = coeffs
        self._eval_cache = {}
        self._points = [None] * coeffs.shape[0]

    @property
    def arity(self) -> int:
        return self.coeffs.shape[1]

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, index: int) -> NearPoint:
        point = self._points[index]
        if point is None:
            point = self._points[index] = NearPoint(
                [WeilElement(self.algebra, c) for c in self.coeffs[index]])
        return point

    pulled = NearPoint.pulled

    def _factor(self, lazy: "LazyFactor") -> np.ndarray:
        return np.array([lazy.evaluate(self[s]).coeffs for s in range(len(self))])


def sample_near_points(algebra: WeilAlgebra, arity: int, rng: np.random.Generator,
                       samples: int, box: tuple[float, float] = DEFAULT_BOX) -> NearPoints:
    """``samples`` random near-points from one draw: augmentations uniform in
    ``box``, the remaining coefficients uniform in [-1, 1].  The points and
    the generator's final state are those of drawing the points one by one,
    each coordinate as ``rng.uniform(-1, 1, d)`` with slot 0 then replaced
    by ``rng.uniform(*box)``."""
    lo, hi = box
    u = rng.random((samples, arity, algebra.dim + 1))
    # per coordinate: d values for [-1, 1], of which slot 0 is then replaced
    # by the last value scaled to the box
    coeffs = -1.0 + 2.0 * u[..., :-1]
    coeffs[..., 0] = lo + (hi - lo) * u[..., -1]
    return NearPoints(algebra, coeffs)


def sample_near_point(algebra: WeilAlgebra, arity: int, rng: np.random.Generator,
                      box: tuple[float, float] = DEFAULT_BOX) -> NearPoint:
    """Random near-point: augmentations uniform in ``box``, the remaining
    coefficients uniform in [-1, 1]."""
    return sample_near_points(algebra, arity, rng, 1, box)[0]


@runtime_checkable
class LazyFactor(Protocol):
    """A pointwise A-valued factor that can evaluate and differentiate itself.

    ``partial`` returns a full function (not another factor) because the
    derivative of a solved quantity is generally a combination of factors.
    """

    def evaluate(self, point: NearPoint) -> WeilElement: ...

    def partial(self, index: int) -> "BundleFunction": ...


class Term:
    """One product term of an A-valued function."""

    __slots__ = ("coeff", "pullbacks", "lazies")

    def __init__(self, coeff: WeilElement, pullbacks: Iterable[ScalarExpr] = (),
                 lazies: Iterable[LazyFactor] = ()):
        self.coeff = coeff
        pullbacks = tuple(pullbacks)
        if len(pullbacks) > 1:
            # sorting reads the texts, which a lone pullback never needs
            pullbacks = tuple(sorted(pullbacks, key=lambda e: e.text))
        self.pullbacks = pullbacks
        self.lazies = tuple(lazies)

    def key(self):
        return (self.pullbacks, self.lazies)

    def __repr__(self):
        parts = [repr(self.coeff)]
        parts.extend(f"({p.text})^A" for p in self.pullbacks)
        parts.extend(f"<{type(l).__name__}>" for l in self.lazies)
        return " * ".join(parts)


class BundleFunction:
    """A-valued function on the prolonged space, a compacted sum of terms."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra: WeilAlgebra, arity: int, terms: Iterable[Term] = ()):
        if arity < 1:
            raise ArityError("functions need at least one base coordinate")
        merged: dict = {}
        order: list = []
        for term in terms:
            if not algebra.compatible_with(term.coeff.algebra):
                raise AlgebraMismatch("term coefficient lives in a different algebra")
            coeff = term.coeff
            kept = []
            for p in term.pullbacks:
                if p.arity != arity:
                    raise ArityError("pullback arity does not match the function")
                if isinstance(p, Const):
                    # constant pullbacks are real multiples of the unit
                    coeff = coeff * p.value
                else:
                    kept.append(p)
            reduced = Term(coeff, kept, term.lazies)
            key = reduced.key()
            if key in merged:
                merged[key] = Term(merged[key].coeff + coeff, kept, reduced.lazies)
            else:
                merged[key] = reduced
                order.append(key)
        self.algebra = algebra
        self.arity = arity
        self.terms = tuple(merged[k] for k in order if not merged[k].coeff.is_zero())

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra: WeilAlgebra, arity: int) -> "BundleFunction":
        return cls(algebra, arity)

    @classmethod
    def constant(cls, value, algebra: WeilAlgebra, arity: int) -> "BundleFunction":
        if isinstance(value, WeilElement):
            coeff = value
        else:
            coeff = algebra.from_real(float(value))
        return cls(algebra, arity, [Term(coeff)])

    @classmethod
    def from_expr(cls, expr: ScalarExpr, algebra: WeilAlgebra) -> "BundleFunction":
        """Prolongation of a base expression: one pullback with unit weight."""
        return cls(algebra, expr.arity, [Term(algebra.unit(), (expr,))])

    @classmethod
    def sum(cls, algebra: WeilAlgebra, arity: int,
            parts: Iterable["BundleFunction"]) -> "BundleFunction":
        """The sum of functions, merging all their terms in one pass."""
        terms = []
        for part in parts:
            if not algebra.compatible_with(part.algebra):
                raise AlgebraMismatch("functions live over different algebras")
            if part.arity != arity:
                raise ArityError("functions disagree on the base arity")
            terms.extend(part.terms)
        return cls(algebra, arity, terms)

    # -- structure -----------------------------------------------------------

    @property
    def is_representable(self) -> bool:
        """True when every term is a weighted product of pullbacks."""
        return all(not t.lazies for t in self.terms)

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def _check_mate(self, other: "BundleFunction"):
        if not self.algebra.compatible_with(other.algebra):
            raise AlgebraMismatch("functions live over different algebras")
        if self.arity != other.arity:
            raise ArityError("functions disagree on the base arity")

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, point):
        """Value at a NearPoint, or at every point of a NearPoints batch as
        an (S, d) coefficient array, in one pass over the terms."""
        if not self.algebra.compatible_with(point.algebra):
            raise AlgebraMismatch("point algebra does not match the function")
        if point.arity != self.arity:
            raise ArityError("point arity does not match the function")
        algebra = self.algebra
        total = np.zeros(point.coeffs.shape[:-2] + (algebra.dim,))
        for term in self.terms:
            value = term.coeff.coeffs
            for p in term.pullbacks:
                value = _product(algebra, value, point.pulled(p))
            for lz in term.lazies:
                value = _product(algebra, value, point._factor(lz))
            total = total + value
        return total if isinstance(point, NearPoints) else _wrap(algebra, total)

    def partial(self, index: int) -> "BundleFunction":
        """Partial derivative along base coordinate ``index`` (product rule
        across pullbacks and opaque factors; pullbacks differentiate
        symbolically)."""
        if index < 0 or index >= self.arity:
            raise ArityError(f"derivative index {index} out of range")
        parts = []
        for term in self.terms:
            for j, p in enumerate(term.pullbacks):
                rest = term.pullbacks[:j] + term.pullbacks[j + 1:]
                dp = differentiate(p, index)
                parts.append(BundleFunction(
                    self.algebra, self.arity,
                    [Term(term.coeff, rest + (dp,), term.lazies)]))
            for k, lz in enumerate(term.lazies):
                rest_lz = term.lazies[:k] + term.lazies[k + 1:]
                base = BundleFunction(
                    self.algebra, self.arity,
                    [Term(term.coeff, term.pullbacks, rest_lz)])
                parts.append(base * lz.partial(index))
        return BundleFunction.sum(self.algebra, self.arity, parts)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        self._check_mate(other)
        return BundleFunction(self.algebra, self.arity, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, BundleFunction):
            self._check_mate(other)
            products = []
            for s in self.terms:
                for t in other.terms:
                    products.append(Term(s.coeff * t.coeff,
                                         s.pullbacks + t.pullbacks,
                                         s.lazies + t.lazies))
            return BundleFunction(self.algebra, self.arity, products)
        if isinstance(other, WeilElement):
            if not self.algebra.compatible_with(other.algebra):
                raise AlgebraMismatch("scalar lives in a different algebra")
            scaled = [Term(t.coeff * other, t.pullbacks, t.lazies) for t in self.terms]
            return BundleFunction(self.algebra, self.arity, scaled)
        if isinstance(other, (int, float)):
            scaled = [Term(t.coeff * float(other), t.pullbacks, t.lazies)
                      for t in self.terms]
            return BundleFunction(self.algebra, self.arity, scaled)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "BundleFunction(0)"
        return "BundleFunction(" + " + ".join(repr(t) for t in self.terms) + ")"


def prolong_function(f: ScalarExpr, algebra: WeilAlgebra) -> BundleFunction:
    """The A-valued prolongation f^A, acting on near-points by evaluating f
    over the algebra."""
    return BundleFunction.from_expr(f, algebra)


def pushforward_map(components: Sequence[ScalarExpr], point):
    """Apply the prolongation of the smooth map with the given component
    expressions to a near-point, or to every point of a batch."""
    if not components:
        raise ArityError("a map needs at least one component")
    for h in components:
        if h.arity != point.arity:
            raise ArityError("map components disagree with the point arity")
    coeffs = np.stack([point.pulled(h) for h in components], axis=-2)
    if isinstance(point, NearPoints):
        return NearPoints(point.algebra, coeffs)
    return NearPoint([WeilElement(point.algebra, c) for c in coeffs])


# -- vector fields ------------------------------------------------------------

class BaseVectorField:
    """Vector field on a base open, one expression per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[ScalarExpr]):
        components = tuple(components)
        if not components:
            raise ArityError("a vector field needs at least one component")
        arity = len(components)
        for c in components:
            if c.arity != arity:
                raise ArityError("component arity must equal the component count")
        self.components = components

    @property
    def arity(self) -> int:
        return len(self.components)

    def apply_to(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f) as an expression."""
        if f.arity != self.arity:
            raise ArityError("function arity does not match the field")
        total: ScalarExpr = Const(0.0, self.arity)
        for i, comp in enumerate(self.components):
            total = add(total, mul(comp, differentiate(f, i)))
        return total

    def bracket(self, other: "BaseVectorField") -> "BaseVectorField":
        if other.arity != self.arity:
            raise ArityError("fields disagree on arity")
        comps = []
        for i in range(self.arity):
            comps.append(sub(self.apply_to(other.components[i]),
                             other.apply_to(self.components[i])))
        return BaseVectorField(comps)

    def __repr__(self):
        inner = ", ".join(c.text for c in self.components)
        return f"BaseVectorField({inner})"


class BundleVectorField:
    """Vector field on the prolonged space, one A-valued function per base
    coordinate direction."""

    __slots__ = ("algebra", "components")

    def __init__(self, components: Sequence[BundleFunction]):
        components = tuple(components)
        if not components:
            raise ArityError("a vector field needs at least one component")
        algebra = components[0].algebra
        arity = len(components)
        for c in components:
            if not algebra.compatible_with(c.algebra):
                raise AlgebraMismatch("components disagree on the algebra")
            if c.arity != arity:
                raise ArityError("component arity must equal the component count")
        self.algebra = algebra
        self.components = components

    @property
    def arity(self) -> int:
        return len(self.components)

    def __add__(self, other):
        if not isinstance(other, BundleVectorField):
            return NotImplemented
        if other.arity != self.arity:
            raise ArityError("fields disagree on arity")
        return BundleVectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, BundleVectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BundleVectorField([-c for c in self.components])

    def scaled(self, factor) -> "BundleVectorField":
        """Multiply every component by a function, algebra element, or number."""
        return BundleVectorField([c * factor for c in self.components])

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.components)
        return f"BundleVectorField({inner})"


def prolong_vector_field(field: BaseVectorField, algebra: WeilAlgebra) -> BundleVectorField:
    """Componentwise prolongation of a base vector field."""
    return BundleVectorField([BundleFunction.from_expr(c, algebra)
                              for c in field.components])


def apply_field(field: BundleVectorField, fn: BundleFunction) -> BundleFunction:
    """Directional derivative of an A-valued function along a field."""
    if field.arity != fn.arity:
        raise ArityError("field and function disagree on arity")
    if not field.algebra.compatible_with(fn.algebra):
        raise AlgebraMismatch("field and function live over different algebras")
    return BundleFunction.sum(fn.algebra, fn.arity,
                              [comp * fn.partial(i)
                               for i, comp in enumerate(field.components)])


def lie_bracket(x: BundleVectorField, y: BundleVectorField) -> BundleVectorField:
    """Commutator of prolonged-space vector fields."""
    if x.arity != y.arity:
        raise ArityError("fields disagree on arity")
    comps = [apply_field(x, y.components[i]) - apply_field(y, x.components[i])
             for i in range(x.arity)]
    return BundleVectorField(comps)


# -- sampled comparison --------------------------------------------------------

def max_difference(f: BundleFunction, g: BundleFunction, *, samples: int = 32,
                   rng: np.random.Generator | None = None,
                   box: tuple[float, float] = DEFAULT_BOX):
    """Largest coefficientwise deviation |f - g| over random near-points.

    Draws all ``samples`` points at once and evaluates both sides over the
    batch.  Returns (residual, worst_point), the first point with the largest
    residual in sample order.  Raises ValueError for fewer than one sample
    and DomainError when a residual is not finite (an overflow, say), since
    no largest deviation can then be named.
    """
    f._check_mate(g)
    if samples < 1:
        raise ValueError("max_difference needs at least one sample")
    if rng is None:
        rng = np.random.default_rng(42)
    points = sample_near_points(f.algebra, f.arity, rng, samples, box)
    residuals = np.max(np.abs(f.evaluate(points) - g.evaluate(points)), axis=-1)
    if not np.isfinite(residuals).all():
        raise DomainError("a sampled residual is not finite")
    worst = int(np.argmax(residuals))
    return float(residuals[worst]), points[worst]


def functions_equal(f: BundleFunction, g: BundleFunction, *, samples: int = 32,
                    tol: float = 1e-9, rng: np.random.Generator | None = None,
                    box: tuple[float, float] = DEFAULT_BOX) -> bool:
    """Sampled equality of A-valued functions at the given tolerance."""
    residual, _ = max_difference(f, g, samples=samples, rng=rng, box=box)
    return residual <= tol
