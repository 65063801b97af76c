"""Near-points, prolonged functions, and vector fields.

A near-point of R^n for a Weil algebra A is an n-tuple of A elements; its
origin is the tuple of augmentations.  A smooth map h between base opens
prolongs to near-points by evaluating each component over A, and a scalar
function f prolongs to the A-valued function f^A acting the same way.  A
batch of near-points (``NearPoints``) holds S of them as one coefficient
array, and functions evaluate over all of them at once; sampled comparisons
draw and evaluate their points that way.  A point or a batch keeps what was
evaluated there (expression nodes, linear solves) in its own cache, which
goes when the point goes.

A-valued functions on the near-point space are stored as sums of terms

    coeff * f1^A * ... * fk^A * L1 * ... * Lm

with coeff in A, each f an expression on the base, and each L an opaque
pointwise factor that knows how to evaluate itself and how to differentiate
itself (used for hamiltonian fields of non-representable functions, whose
components come from solving a linear system at each point, for a whole
batch at once).  Functions with no opaque factors are called representable;
structural operations that need to inspect the integrand (like the prolonged
Poisson derivation) require representability, while evaluation and
derivatives work for every term.

A function's terms are canonical: no pullback is a constant (constants fold
into the coefficient), the pullbacks are sorted by text, and no two terms
share their factors.  The public constructor checks and canonicalizes what
it is given.  The operations (``partial``, sums, products, ``apply_field``
and the Poisson derivation) read canonical terms, emit canonical terms, and
merge them once per operation without checking them again; the merge adds
coefficients in the order the terms come and drops zero sums.  A function
keeps its partials, so each is built once, and they go when it goes.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .algebra import WeilAlgebra, WeilElement, _product, _wrap
from .errors import AlgebraMismatch, ArityError, DomainError
from .expression import Const, ScalarExpr, add, differentiate, eval_weil, mul, sub

# Sampled near-points draw their augmentations uniformly from this interval.
DEFAULT_BOX = (-2.0, 2.0)
# Seed of the verification suite and of every generator made when none is given.
DEFAULT_SEED = 42


class NearPoint:
    """A point of the prolonged space: one A element per base coordinate.

    ``coeffs`` stacks the coordinates' coefficients as an (n, d) array.
    Evaluation of expressions at the point is memoized node by node, so
    functions evaluated at one NearPoint share their subexpressions there;
    lazy factors keep their solves in the same cache.
    """

    __slots__ = ("algebra", "coords", "coeffs", "_eval_cache", "__weakref__")

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

    @property
    def arity(self) -> int:
        return len(self.coords)

    def pulled(self, expr: ScalarExpr) -> np.ndarray:
        """Coefficients of the prolonged function expr^A at this point."""
        cached = self._eval_cache.get(expr)
        if cached is None:
            cached = eval_weil(expr, self, cache=self._eval_cache)
        return cached

    def __eq__(self, other):
        if not isinstance(other, NearPoint):
            return NotImplemented
        return (self.algebra.compatible_with(other.algebra)
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.algebra._fingerprint, self.coords))

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coords)
        return f"NearPoint({inner})"


class NearPoints:
    """A batch of S near-points, held as one (S, n, d) coefficient array.

    Expressions and lazy factors evaluate over the whole batch at once,
    memoized in one cache for the batch, and give every sample the bits it
    would get alone.  ``batch[s]`` is sample s as a NearPoint of its own.
    """

    __slots__ = ("algebra", "coeffs", "_eval_cache")

    def __init__(self, algebra: WeilAlgebra, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] < 1 or coeffs.shape[2] != algebra.dim:
            raise ArityError(f"expected an (S, n, {algebra.dim}) coefficient array, "
                             f"got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        self.algebra = algebra
        self.coeffs = coeffs
        self._eval_cache = {}

    @property
    def arity(self) -> int:
        return self.coeffs.shape[1]

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, index: int) -> NearPoint:
        return NearPoint([WeilElement(self.algebra, c) for c in self.coeffs[index]])

    pulled = NearPoint.pulled


def sample_near_points(algebra: WeilAlgebra, arity: int, rng: np.random.Generator,
                       samples: int) -> NearPoints:
    """``samples`` random near-points from one draw: augmentations uniform in
    ``DEFAULT_BOX``, the remaining coefficients uniform in [-1, 1].  The
    points and the generator's final state are those of drawing the points
    one by one, each coordinate as ``rng.uniform(-1, 1, d)`` with slot 0 then
    replaced by ``rng.uniform(*DEFAULT_BOX)``."""
    lo, hi = DEFAULT_BOX
    u = rng.random((samples, arity, algebra.dim + 1))
    # per coordinate: d values for [-1, 1], of which slot 0 is then replaced
    # by the last value scaled to the box
    coeffs = -1.0 + 2.0 * u[..., :-1]
    coeffs[..., 0] = lo + (hi - lo) * u[..., -1]
    return NearPoints(algebra, coeffs)


def sample_near_point(algebra: WeilAlgebra, arity: int,
                      rng: np.random.Generator) -> NearPoint:
    """Random near-point: augmentations uniform in ``DEFAULT_BOX``, the
    remaining coefficients uniform in [-1, 1]."""
    return sample_near_points(algebra, arity, rng, 1)[0]


@runtime_checkable
class LazyFactor(Protocol):
    """A pointwise A-valued factor that can evaluate and differentiate itself.

    ``evaluate`` takes a NearPoint or a NearPoints batch and returns the
    (..., d) coefficient array, as ``pulled`` does.  ``partial`` returns a
    full function (not another factor) because the derivative of a solved
    quantity is generally a combination of factors.
    """

    def evaluate(self, point) -> np.ndarray: ...

    def partial(self, index: int) -> "BundleFunction": ...


class Term:
    """One product term of an A-valued function."""

    __slots__ = ("coeff", "pullbacks", "lazies")

    def __init__(self, coeff: WeilElement, pullbacks: Iterable[ScalarExpr] = (),
                 lazies: Iterable[LazyFactor] = ()):
        self.coeff = coeff
        self.pullbacks = _sorted_pullbacks(tuple(pullbacks))
        self.lazies = tuple(lazies)

    def __repr__(self):
        parts = [repr(self.coeff)]
        parts.extend(f"({p.text})^A" for p in self.pullbacks)
        parts.extend(f"<{type(l).__name__}>" for l in self.lazies)
        return " * ".join(parts)


# -- canonical terms ------------------------------------------------------------
#
# A term is canonical for a function when its coefficient lives in the
# function's algebra, its pullbacks have the function's arity, none of them
# is a Const, and they are sorted by text.  The operations below take
# canonical terms and emit canonical terms, so one merge per operation is all
# they need.

_text = attrgetter("text")


def _sorted_pullbacks(pullbacks: tuple) -> tuple:
    # sorting reads the texts, which a lone pullback never needs
    return tuple(sorted(pullbacks, key=_text)) if len(pullbacks) > 1 else pullbacks


def _term(coeff: WeilElement, pullbacks: tuple, lazies: tuple) -> Term:
    """A term from parts that are canonical already: nothing is sorted,
    copied or checked."""
    term = object.__new__(Term)
    term.coeff = coeff
    term.pullbacks = pullbacks
    term.lazies = lazies
    return term


def _merge(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Merge canonical terms: terms with the same factors add their
    coefficients in order, in the place of the first, and sums that are zero
    are dropped."""
    merged: dict = {}
    for term in terms:
        key = (term.pullbacks, term.lazies)
        first = merged.get(key)
        if first is None:
            merged[key] = term
        else:
            merged[key] = _term(_wrap(first.coeff.algebra,
                                      first.coeff.coeffs + term.coeff.coeffs),
                                key[0], key[1])
    return tuple(t for t in merged.values() if np.count_nonzero(t.coeff.coeffs))


def _replaced(term: Term, j: int, expr: ScalarExpr) -> Term:
    """The term with pullback j replaced by expr; a constant expr folds into
    the coefficient."""
    rest = term.pullbacks[:j] + term.pullbacks[j + 1:]
    if isinstance(expr, Const):
        return _term(term.coeff * expr.value, rest, term.lazies)
    return _term(term.coeff, _sorted_pullbacks(rest + (expr,)), term.lazies)


def _products(left: Iterable[Term], right: Sequence[Term]):
    """The canonical terms of a product of two sums of terms, unmerged, in
    distributive order."""
    for s in left:
        algebra, a = s.coeff.algebra, s.coeff.coeffs
        for t in right:
            yield _term(_wrap(algebra, _product(algebra, a, t.coeff.coeffs)),
                        _sorted_pullbacks(s.pullbacks + t.pullbacks),
                        s.lazies + t.lazies)


def _product_rule(term: Term, index: int, positions: Iterable[int]) -> list[Term]:
    """The terms of d/dx_index of one term, differentiating the pullbacks at
    ``positions`` and every lazy factor.  Each pullback branch is kept as its
    own one-term function would keep it (a zero branch is dropped); each lazy
    branch is the rest of the term times the factor's partial, merged as that
    product."""
    out = []
    for j in positions:
        branch = _replaced(term, j, differentiate(term.pullbacks[j], index))
        if np.count_nonzero(branch.coeff.coeffs):
            out.append(branch)
    for k, lz in enumerate(term.lazies):
        rest = _term(term.coeff, term.pullbacks, term.lazies[:k] + term.lazies[k + 1:])
        out.extend(_merge(_products((rest,), lz.partial(index).terms)))
    return out


class BundleFunction:
    """A-valued function on the prolonged space, a compacted sum of terms.

    Its terms are canonical (see "canonical terms" above), and its partials
    are built once and kept on it."""

    __slots__ = ("algebra", "arity", "terms", "_partials", "__weakref__")

    def __init__(self, algebra: WeilAlgebra, arity: int, terms: Iterable[Term] = ()):
        if arity < 1:
            raise ArityError("functions need at least one base coordinate")
        canonical = []
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
            canonical.append(_term(coeff, _sorted_pullbacks(tuple(kept)),
                                   tuple(term.lazies)))
        self.algebra = algebra
        self.arity = arity
        self.terms = _merge(canonical)
        self._partials = None

    @classmethod
    def _merged(cls, algebra: WeilAlgebra, arity: int,
                terms: Iterable[Term]) -> "BundleFunction":
        """The function of canonical terms after one merge, unchecked."""
        fn = object.__new__(cls)
        fn.algebra = algebra
        fn.arity = arity
        fn.terms = _merge(terms)
        fn._partials = None
        return fn

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
        return cls._merged(algebra, arity, terms)

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
        total = self._coefficients(point)
        return total if isinstance(point, NearPoints) else _wrap(self.algebra, total)

    def _coefficients(self, point) -> np.ndarray:
        """The (..., d) coefficient array of the value at a NearPoint or a
        NearPoints batch."""
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
                value = _product(algebra, value, lz.evaluate(point))
            total = total + value
        return total

    def partial(self, index: int) -> "BundleFunction":
        """Partial derivative along base coordinate ``index`` (product rule
        across pullbacks and opaque factors; pullbacks differentiate
        symbolically).  Built once per index and kept on the function."""
        partials = self._partials
        if partials is not None and index in partials:
            return partials[index]
        if index < 0 or index >= self.arity:
            raise ArityError(f"derivative index {index} out of range")
        terms = []
        for term in self.terms:
            terms.extend(_product_rule(term, index, range(len(term.pullbacks))))
        result = BundleFunction._merged(self.algebra, self.arity, terms)
        if partials is None:
            partials = self._partials = {}
        partials[index] = result
        return result

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        self._check_mate(other)
        return BundleFunction._merged(self.algebra, self.arity, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, BundleFunction):
            self._check_mate(other)
            terms = _products(self.terms, other.terms)
        elif isinstance(other, WeilElement):
            if not self.algebra.compatible_with(other.algebra):
                raise AlgebraMismatch("scalar lives in a different algebra")
            terms = [_term(_wrap(t.coeff.algebra,
                                 _product(t.coeff.algebra, t.coeff.coeffs, other.coeffs)),
                           t.pullbacks, t.lazies) for t in self.terms]
        elif isinstance(other, (int, float)):
            factor = float(other)
            terms = [_term(t.coeff * factor, t.pullbacks, t.lazies) for t in self.terms]
        else:
            return NotImplemented
        return BundleFunction._merged(self.algebra, self.arity, terms)

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
    terms = []
    for i, comp in enumerate(field.components):
        terms.extend(_merge(_products(comp.terms, fn.partial(i).terms)))
    return BundleFunction._merged(fn.algebra, fn.arity, terms)


def lie_bracket(x: BundleVectorField, y: BundleVectorField) -> BundleVectorField:
    """Commutator of prolonged-space vector fields."""
    if x.arity != y.arity:
        raise ArityError("fields disagree on arity")
    comps = [apply_field(x, y.components[i]) - apply_field(y, x.components[i])
             for i in range(x.arity)]
    return BundleVectorField(comps)


# -- sampled comparison --------------------------------------------------------

def max_difference(f: BundleFunction, g: BundleFunction, *, samples: int = 32,
                   rng: np.random.Generator | None = None):
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
        rng = np.random.default_rng(DEFAULT_SEED)
    points = sample_near_points(f.algebra, f.arity, rng, samples)
    residuals = np.max(np.abs(f.evaluate(points) - g.evaluate(points)), axis=-1)
    if not np.isfinite(residuals).all():
        raise DomainError("a sampled residual is not finite")
    worst = int(np.argmax(residuals))
    return float(residuals[worst]), points[worst]


def functions_equal(f: BundleFunction, g: BundleFunction, *, samples: int = 32,
                    tol: float = 1e-9, rng: np.random.Generator | None = None) -> bool:
    """Sampled equality of A-valued functions at the given tolerance."""
    residual, _ = max_difference(f, g, samples=samples, rng=rng)
    return residual <= tol


def worst_case(cases: Iterable[tuple[float, dict]]) -> tuple[float, dict | None]:
    """The first (residual, witness) case with the largest residual, its
    residual floored at 0.0; (0.0, None) when there are no cases."""
    worst, witness = -1.0, None
    for residual, case in cases:
        if residual > worst:
            worst, witness = residual, case
    return max(worst, 0.0), witness


def coordinate_pair_cases(component: Callable[[int, int], BundleFunction],
                          algebra: WeilAlgebra, arity: int, samples: int,
                          rng: np.random.Generator):
    """(residual, witness) of each coordinate component ``component(i, j)``,
    i < j, of an antisymmetric A-valued 2-tensor, sampled unscaled in pair
    order; the witness names the pair and the worst near-point.  A
    one-dimensional base has no pairs and draws no points."""
    zero = BundleFunction.zero(algebra, arity)
    for i, j in combinations(range(arity), 2):
        residual, point = max_difference(component(i, j), zero, samples=samples,
                                         rng=rng)
        yield residual, {
            "pair": [i, j],
            "point": [[float(v) for v in c.coeffs] for c in point.coords],
        }
