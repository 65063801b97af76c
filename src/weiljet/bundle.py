"""Near-points, prolonged functions, and vector fields.

A near-point of R^n for a Weil algebra A is an n-tuple of A elements; its
origin is the tuple of augmentations.  A smooth map h between base opens
prolongs to near-points by evaluating each component over A, and a scalar
function f prolongs to the A-valued function f^A acting the same way.  One
type, ``NearPoint``, holds a point as an (n, d) coefficient array and a
batch of S points as an (S, n, d) one; functions evaluate over a whole batch
at once, and sampled comparisons draw and evaluate their points that way, a
group of comparisons in batches of at most ``GROUP_ROWS`` rows.  Every
hamiltonian verdict asks whether such a group vanishes (``zero_test``).
A point or a batch keeps what was evaluated there (expression nodes, linear
solves) in its own cache, which goes when the point goes.

An A-valued function on the near-point space is the root of one
hash-consed expression DAG (``expression``).  Its real subtrees are base
expressions acting as their prolongations f^A; its other leaves are A-valued
constants and solved components, one component of a linear system solved at
each point for a whole batch at once (used for hamiltonian fields, which
have no closed form).  Sums, products, partials and ``apply_field`` build
interned nodes, so equal functions share one root; a partial is kept on its
node, and evaluation is the one batched walker, memoized in the point's
cache.  A prolonged field is a ``BaseVectorField`` over its components'
roots plus the algebra, as a prolonged form is a ``BaseForm`` over its
coefficients' roots.  The prolonged field and form operations, here and in
``poisson`` and ``symplectic``, are the base ones on the same roots, so each
builds the very node its base counterpart builds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .algebra import WeilAlgebra, WeilElement, _wrap
from .errors import AlgebraMismatch, ArityError, DomainError, WeilError
from .expression import (
    ScalarExpr,
    _weight,
    add,
    const,
    differentiate,
    eval_weil,
    mul,
    neg,
    sub,
)

# Sampled near-points draw their augmentations uniformly from this interval.
DEFAULT_BOX = (-2.0, 2.0)
# Seed of the verification suite and of every generator made when none is given.
DEFAULT_SEED = 42
# Most rows a comparison group evaluates in one batch.  Every member runs
# over the whole batch, so a batch saves NumPy calls on the nodes its
# members share but does arithmetic on every other member's rows.  Groups
# of tau_calculus identities stopped gaining near 300 rows, and coordinate
# pairs, which share less, sooner; 64 keeps whole every group of the
# verification suite (54 rows at most).
GROUP_ROWS = 64


class NearPoint:
    """A point of the prolonged space, or a batch of them: one A element per
    base coordinate, held as one read-only coefficient array ``coeffs`` of
    shape (..., n, d).  A single point has no leading axes; a batch of S
    points has shape (S, n, d), and ``batch[s]`` is sample s as a point of
    its own.

    Evaluation of expressions is memoized node by node in the point's cache,
    so functions evaluated at one point or batch share their subexpressions
    there; linear solves keep their solutions in the same cache.  A batch
    runs each node over all of its points at once and gives every sample the
    bits it would get alone.
    """

    __slots__ = ("algebra", "coeffs", "_eval_cache", "__weakref__")

    def __init__(self, coords: Sequence[WeilElement]):
        if not coords:
            raise ArityError("a near-point needs at least one coordinate")
        algebra = coords[0].algebra
        for c in coords:
            if not algebra.compatible_with(c.algebra):
                raise AlgebraMismatch("near-point coordinates disagree on the algebra")
        self.algebra = algebra
        self.coeffs = np.array([c.coeffs for c in coords])
        self.coeffs.setflags(write=False)
        self._eval_cache = {}

    @classmethod
    def from_coeffs(cls, algebra: WeilAlgebra, coeffs) -> "NearPoint":
        """The point or batch with a copy of ``coeffs``, an (..., n, d) array."""
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim < 2 or coeffs.shape[-2] < 1 or coeffs.shape[-1] != algebra.dim:
            raise ArityError(f"expected an (..., n, {algebra.dim}) coefficient array, "
                             f"got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        point = object.__new__(cls)
        point.algebra = algebra
        point.coeffs = coeffs
        point._eval_cache = {}
        return point

    @property
    def arity(self) -> int:
        return self.coeffs.shape[-2]

    def __getitem__(self, index) -> "NearPoint":
        """Sample ``index`` of a batch, or the batch of the samples a slice
        picks; a single point raises ArityError."""
        return NearPoint.from_coeffs(self.algebra, self.coeffs[index])

    def pulled(self, expr: ScalarExpr) -> np.ndarray:
        """Coefficients of the prolonged function expr^A at this point, or at
        every point of the batch."""
        cached = self._eval_cache.get(expr)
        if cached is None:
            cached = eval_weil(expr, self, cache=self._eval_cache)
        return cached

    def __eq__(self, other):
        if not isinstance(other, NearPoint):
            return NotImplemented
        return (self.algebra.compatible_with(other.algebra)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        if self.coeffs.ndim > 2:
            return f"NearPoint(batch of shape {self.coeffs.shape})"
        inner = ", ".join(repr(WeilElement(self.algebra, c)) for c in self.coeffs)
        return f"NearPoint({inner})"


def sample_near_points(algebra: WeilAlgebra, arity: int, rng: np.random.Generator,
                       samples: int) -> NearPoint:
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
    return NearPoint.from_coeffs(algebra, coeffs)


def sample_near_point(algebra: WeilAlgebra, arity: int,
                      rng: np.random.Generator) -> NearPoint:
    """Random near-point: augmentations uniform in ``DEFAULT_BOX``, the
    remaining coefficients uniform in [-1, 1]."""
    return sample_near_points(algebra, arity, rng, 1)[0]


class BundleFunction:
    """A-valued function on the prolonged space: the root of an expression
    DAG over the base, whose leaves may also be A-valued constants and solved
    components (see ``expression``).  Real subtrees act as their
    prolongations f^A.  Sums, products and partials build interned nodes,
    and the partials are kept on the nodes."""

    __slots__ = ("algebra", "arity", "root", "__weakref__")

    def __init__(self, algebra: WeilAlgebra, arity: int, root: ScalarExpr):
        if arity < 1:
            raise ArityError("functions need at least one base coordinate")
        if root.arity != arity:
            raise ArityError("root arity does not match the function")
        self.algebra = algebra
        self.arity = arity
        self.root = root

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra: WeilAlgebra, arity: int) -> "BundleFunction":
        return cls(algebra, arity, const(0.0, arity))

    @classmethod
    def constant(cls, value, algebra: WeilAlgebra, arity: int) -> "BundleFunction":
        if isinstance(value, WeilElement):
            if not algebra.compatible_with(value.algebra):
                raise AlgebraMismatch("constant lives in a different algebra")
            return cls(algebra, arity, _weight(value, arity))
        return cls(algebra, arity, const(value, arity))

    # -- structure -----------------------------------------------------------

    def _check_mate(self, other: "BundleFunction"):
        if not self.algebra.compatible_with(other.algebra):
            raise AlgebraMismatch("functions live over different algebras")
        if self.arity != other.arity:
            raise ArityError("functions disagree on the base arity")

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, point: NearPoint):
        """Value at a near-point, or at every point of a batch as a read-only
        (S, d) coefficient array: the root evaluated there, with every node
        kept in the point's cache."""
        if not self.algebra.compatible_with(point.algebra):
            raise AlgebraMismatch("point algebra does not match the function")
        if point.arity != self.arity:
            raise ArityError("point arity does not match the function")
        value = point.pulled(self.root)
        if value.ndim == 1:
            return _wrap(self.algebra, value)
        value = value.view()
        value.setflags(write=False)
        return value

    def partial(self, index: int) -> "BundleFunction":
        """Partial derivative along base coordinate ``index``."""
        return BundleFunction(self.algebra, self.arity, differentiate(self.root, index))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        self._check_mate(other)
        return BundleFunction(self.algebra, self.arity, add(self.root, other.root))

    def __sub__(self, other):
        if not isinstance(other, BundleFunction):
            return NotImplemented
        self._check_mate(other)
        return BundleFunction(self.algebra, self.arity, sub(self.root, other.root))

    def __neg__(self):
        return BundleFunction(self.algebra, self.arity, neg(self.root))

    def __mul__(self, other):
        if isinstance(other, BundleFunction):
            self._check_mate(other)
            factor = other.root
        elif isinstance(other, WeilElement):
            if not self.algebra.compatible_with(other.algebra):
                raise AlgebraMismatch("scalar lives in a different algebra")
            factor = _weight(other, self.arity)
        elif isinstance(other, (int, float)):
            factor = const(other, self.arity)
        else:
            return NotImplemented
        return BundleFunction(self.algebra, self.arity, mul(self.root, factor))

    __rmul__ = __mul__

    def __repr__(self):
        return f"BundleFunction({self.root.text})"


def prolong_function(f: ScalarExpr, algebra: WeilAlgebra) -> BundleFunction:
    """The A-valued prolongation f^A, acting on near-points by evaluating f
    over the algebra."""
    return BundleFunction(algebra, f.arity, f)


def pushforward_map(components: Sequence[ScalarExpr], point: NearPoint) -> NearPoint:
    """Apply the prolongation of the smooth map with the given component
    expressions to a near-point, or to every point of a batch."""
    if not components:
        raise ArityError("a map needs at least one component")
    for h in components:
        if h.arity != point.arity:
            raise ArityError("map components disagree with the point arity")
    coeffs = np.stack([point.pulled(h) for h in components], axis=-2)
    return NearPoint.from_coeffs(point.algebra, coeffs)


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
        arity = len(self.components)
        if f.arity != arity:
            raise ArityError("function arity does not match the field")
        total: ScalarExpr = const(0.0, arity)
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
    """Vector field on the prolonged space: a base field over the roots of
    its A-valued component functions, one per base coordinate direction, and
    the algebra they live over."""

    __slots__ = ("algebra", "_base")

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
        self._base = BaseVectorField([c.root for c in components])

    arity = property(lambda self: self._base.arity)

    @property
    def components(self) -> tuple[BundleFunction, ...]:
        return tuple(BundleFunction(self.algebra, self.arity, root)
                     for root in self._base.components)

    def __add__(self, other):
        if not isinstance(other, BundleVectorField):
            return NotImplemented
        if other.arity != self.arity:
            raise ArityError("fields disagree on arity")
        if not self.algebra.compatible_with(other.algebra):
            raise AlgebraMismatch("functions live over different algebras")
        return self._over([add(a, b) for a, b in zip(self._base.components,
                                                     other._base.components)])

    def __neg__(self):
        return self._over([neg(c) for c in self._base.components])

    def scaled(self, factor) -> "BundleVectorField":
        """Multiply every component by a function, algebra element, or number."""
        return self._over([(c * factor).root for c in self.components])

    def _over(self, roots: list[ScalarExpr]) -> "BundleVectorField":
        """The field over this one's algebra with the given component roots."""
        return prolong_vector_field(BaseVectorField(roots), self.algebra)

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.components)
        return f"BundleVectorField({inner})"


def prolong_vector_field(field: BaseVectorField, algebra: WeilAlgebra) -> BundleVectorField:
    """Componentwise prolongation of a base vector field, whose components
    may also be A-valued roots: same components, over the algebra."""
    prolonged = object.__new__(BundleVectorField)
    prolonged.algebra, prolonged._base = algebra, field
    return prolonged


def apply_field(field: BundleVectorField, fn: BundleFunction) -> BundleFunction:
    """Directional derivative of an A-valued function along a field."""
    if field.arity != fn.arity:
        raise ArityError("field and function disagree on arity")
    if not field.algebra.compatible_with(fn.algebra):
        raise AlgebraMismatch("field and function live over different algebras")
    return BundleFunction(fn.algebra, fn.arity, field._base.apply_to(fn.root))


def lie_bracket(x: BundleVectorField, y: BundleVectorField) -> BundleVectorField:
    """Commutator of prolonged-space vector fields."""
    if x.arity != y.arity:
        raise ArityError("fields disagree on arity")
    if not x.algebra.compatible_with(y.algebra):
        raise AlgebraMismatch("field and function live over different algebras")
    return prolong_vector_field(x._base.bracket(y._base), y.algebra)


# -- sampled comparison --------------------------------------------------------

def max_difference(pairs: Sequence[tuple[BundleFunction, BundleFunction]], *,
                   samples: int = 32, rng: np.random.Generator | None = None
                   ) -> list[tuple[float, NearPoint]]:
    """Largest coefficientwise deviation |f - g| of each (f, g) pair of a
    group over random near-points.

    The group draws ``samples`` points per pair, pair after pair, in
    batches of as many whole pairs as fit in ``GROUP_ROWS`` rows (one pair
    at least): the points, and the generator's final state, of drawing one
    pair after another.  Every function of a batch is evaluated over all of
    its rows, so work on the nodes its pairs share is done once, and each
    pair's residual comes from its own rows.  A function may fail on another
    pair's rows where it would not on its own (``log(x0)`` where their
    x0 <= 0, say); when evaluating a batch raises a WeilError, its pairs are
    compared on their own rows alone, one after another, which raises what
    comparing the pairs separately would.

    Returns one (residual, worst_point) per pair, the worst point being the
    first of the pair's points with the largest residual.  Raises ValueError
    for fewer than one sample and DomainError when a residual is not finite
    (an overflow, say), since no largest deviation can then be named.
    """
    if not pairs:
        return []
    if samples < 1:
        raise ValueError("max_difference needs at least one sample")
    first = pairs[0][0]
    for f, g in pairs:
        first._check_mate(f)
        f._check_mate(g)
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    size = max(1, GROUP_ROWS // samples)
    out = []
    for start in range(0, len(pairs), size):
        out.extend(_batch_differences(pairs[start:start + size], samples, rng))
    return out


def _batch_differences(batch, samples: int, rng: np.random.Generator):
    """``max_difference`` of the pairs of one batch; the batch's points and
    cache go when this returns, before the next batch is drawn."""
    f0 = batch[0][0]
    points = sample_near_points(f0.algebra, f0.arity, rng, len(batch) * samples)
    rows = [slice(k * samples, (k + 1) * samples) for k in range(len(batch))]
    try:
        deviations = [f.evaluate(points)[own] - g.evaluate(points)[own]
                      for (f, g), own in zip(batch, rows)]
    except WeilError:
        deviations = None
    out = []
    for k, ((f, g), own) in enumerate(zip(batch, rows)):
        if deviations is None:
            alone = points[own]
            deviation = f.evaluate(alone) - g.evaluate(alone)
        else:
            deviation = deviations[k]
        residuals = np.max(np.abs(deviation), axis=-1)
        if not np.isfinite(residuals).all():
            raise DomainError("a sampled residual is not finite")
        worst = int(np.argmax(residuals))
        out.append((float(residuals[worst]), points[own.start + worst]))
    return out


def worst_case(cases: Iterable[tuple[float, object]]) -> tuple[float, object | None]:
    """The first (residual, witness) case with the largest residual, its
    residual floored at 0.0; (0.0, None) when there are no cases."""
    worst, witness = -1.0, None
    for residual, case in cases:
        if residual > worst:
            worst, witness = residual, case
    return max(worst, 0.0), witness


def zero_test(pairs: Iterable[tuple[BundleFunction, BundleFunction]], *,
              samples: int, rng: np.random.Generator | None
              ) -> tuple[float, int | None, NearPoint | None]:
    """Sampled test that every f - g of a group of (f, g) pairs vanishes,
    the pairs compared as one ``max_difference`` group.

    Returns the worst residual, floored at 0.0, the index of the first pair
    that holds it, and that pair's worst near-point; an empty group draws no
    points and gives (0.0, None, None).  The pairs may be built lazily: when
    building one raises a WeilError, the pairs built before it are compared
    first, and their errors come first, as when each is compared once built.
    """
    group = []
    try:
        for pair in pairs:
            group.append(pair)
    except WeilError:
        max_difference(group, samples=samples, rng=rng)
        raise
    residual, worst = worst_case(
        (residual, (k, point)) for k, (residual, point)
        in enumerate(max_difference(group, samples=samples, rng=rng)))
    return (residual, *(worst or (None, None)))
