"""Differential forms, symplectic structures, and hamiltonian fields.

Forms are stored by their expression coefficients on strictly increasing
coordinate index tuples.  A prolonged form is the base form over the roots of
its A-valued coefficients plus the algebra, so its exterior derivative and
contractions are the base ones on the same roots.

A symplectic structure is a closed nondegenerate 2-form.  Construction
samples closedness with ``zero_test`` over the one-dimensional algebra R,
whose near-points are the points of the base, one case per coefficient of
the exterior derivative, then the determinant at points of the same
generator drawn after that group.  It stays on the base: every operation
over an algebra takes the ``SymplecticStructure`` and reads A from its
A-valued arguments.  A field
X is locally hamiltonian when every coordinate coefficient of d(i_X Omega)
vanishes; each is sampled, unscaled, at near-points.  The hamiltonian field
of an A-valued function solves the linear system
sum_i Omega_ij X^i = d_j(phi)  over the algebra at each evaluation point, for
a whole batch of points at once; components come back as solved-component
nodes of the expression DAG that carry exact derivative rules, so the field
composes with the rest of the calculus even though no closed form for it
exists.  Inverting the solve matrices uses the finite Neumann series of
local-ring linear algebra, over (..., m, m, d) coefficient arrays.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    ZERO_TOL,
    WeilAlgebra,
    WeilElement,
    _add_live,
    _live,
    _product,
    _unit,
    _wrap,
    make_truncated_algebra,
)
from .bundle import (
    DEFAULT_SEED,
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    apply_field,
    prolong_function,
    prolong_vector_field,
    sample_near_points,
    zero_test,
)
from .errors import (
    AlgebraMismatch,
    ArityError,
    DegreeError,
    InvalidSymplecticStructure,
    SingularRealPart,
)
from .expression import (
    Const,
    ScalarExpr,
    _coerce,
    _solved,
    add,
    const,
    differentiate,
    div,
    mul,
    neg,
    sub,
)
from .poisson import PoissonStructure, _check_arity, _real_point


def increasing_tuples(arity: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing index tuples of the given length."""
    return itertools.combinations(range(arity), degree)


def _sort_index(idx: tuple[int, ...]):
    """Sort an index tuple, returning (sorted tuple, permutation sign);
    sign 0 for repeated indices."""
    if len(set(idx)) != len(idx):
        return idx, 0
    inversions = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
                     if idx[a] > idx[b])
    return tuple(sorted(idx)), (-1) ** inversions


class BaseForm:
    """Differential form on a base open: degree, arity, and a coefficient
    expression per strictly increasing index tuple."""

    __slots__ = ("degree", "arity", "coeffs")

    def __init__(self, degree: int, arity: int, coeffs: dict | None = None):
        if degree < 0:
            raise DegreeError("form degree must be nonnegative")
        if arity < 1:
            raise ArityError("forms need at least one base coordinate")
        cleaned: dict[tuple[int, ...], ScalarExpr] = {}
        for idx, raw in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(f"index {idx} does not have length {degree}")
            if any(i < 0 or i >= arity for i in idx):
                raise ArityError(f"index {idx} out of range for arity {arity}")
            if list(idx) != sorted(set(idx)):
                raise DegreeError(f"index {idx} must be strictly increasing")
            expr = _coerce(raw, arity, "form coefficient")
            if not (isinstance(expr, Const) and expr.value == 0.0):
                cleaned[idx] = expr
        if degree > arity and cleaned:
            raise DegreeError("forms above the top degree must be zero")
        self.degree = degree
        self.arity = arity
        self.coeffs = cleaned

    def coefficient(self, idx: tuple[int, ...]) -> ScalarExpr:
        """Coefficient on an arbitrary index tuple, with the alternating sign."""
        key, sign = _sort_index(tuple(idx))
        if sign == 0:
            return const(0.0, self.arity)
        expr = self.coeffs.get(key, const(0.0, self.arity))
        return expr if sign == 1 else neg(expr)

    def __repr__(self):
        if not self.coeffs:
            return f"BaseForm(degree={self.degree}, 0)"
        inner = " + ".join(f"({e.text}) dx{list(i)}" for i, e in sorted(self.coeffs.items()))
        return f"BaseForm({inner})"


def exterior_derivative(form: BaseForm) -> BaseForm:
    """Coordinate exterior derivative; at top degree the result is the zero
    form one degree up."""
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for idx, coeff in form.coeffs.items():
        for i in range(form.arity):
            if i in idx:
                continue
            pos = sum(1 for j in idx if j < i)
            key = tuple(sorted(idx + (i,)))
            contribution = differentiate(coeff, i)
            if pos % 2 == 1:
                contribution = neg(contribution)
            out[key] = add(out[key], contribution) if key in out else contribution
    return BaseForm(form.degree + 1, form.arity, out)


def base_interior_product(field: BaseVectorField, form: BaseForm) -> BaseForm:
    """Contraction in the first slot on the base."""
    if form.degree < 1:
        raise DegreeError("cannot contract a form of degree zero")
    if field.arity != form.arity:
        raise ArityError("field and form disagree on arity")
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for idx, coeff in form.coeffs.items():
        for a, i in enumerate(idx):
            key = idx[:a] + idx[a + 1:]
            contribution = mul(field.components[i], coeff)
            if a % 2 == 1:
                contribution = neg(contribution)
            out[key] = add(out[key], contribution) if key in out else contribution
    return BaseForm(form.degree - 1, form.arity, out)


class BundleForm:
    """A-valued form on the prolonged space: a base form over the roots of
    its coefficient functions, and the algebra they live over."""

    __slots__ = ("algebra", "_base")

    def __init__(self, degree: int, arity: int, algebra: WeilAlgebra,
                 coeffs: dict | None = None):
        roots = {}
        for idx, fn in (coeffs or {}).items():
            if not isinstance(fn, BundleFunction):
                raise TypeError("prolonged-form coefficients must be A-valued functions")
            # only roots are kept, so a coefficient meets the others' algebra
            # and arity here, not when coefficients are summed
            if not algebra.compatible_with(fn.algebra):
                raise AlgebraMismatch("functions live over different algebras")
            if fn.arity != arity:
                raise ArityError("functions disagree on the base arity")
            roots[idx] = fn.root
        self.algebra = algebra
        self._base = BaseForm(degree, arity, roots)

    degree = property(lambda self: self._base.degree)
    arity = property(lambda self: self._base.arity)

    @property
    def coeffs(self) -> dict[tuple[int, ...], BundleFunction]:
        return {idx: BundleFunction(self.algebra, self.arity, root)
                for idx, root in self._base.coeffs.items()}

    def coefficient(self, idx: tuple[int, ...]) -> BundleFunction:
        return BundleFunction(self.algebra, self.arity, self._base.coefficient(idx))

    def __repr__(self):
        if not self._base.coeffs:
            return f"BundleForm(degree={self.degree}, 0)"
        inner = " + ".join(f"[{fn!r}] dx{list(i)}" for i, fn in sorted(self.coeffs.items()))
        return f"BundleForm({inner})"


def prolong_form(form: BaseForm, algebra: WeilAlgebra) -> BundleForm:
    """Prolong a base form, whose coefficients may also be A-valued roots:
    same index basis, each coefficient prolonged."""
    prolonged = object.__new__(BundleForm)
    prolonged.algebra, prolonged._base = algebra, form
    return prolonged


def bundle_exterior_derivative(form: BundleForm) -> BundleForm:
    """Exterior derivative over the algebra; coefficients differentiate by
    their own rules, so solved coefficients are handled exactly."""
    return prolong_form(exterior_derivative(form._base), form.algebra)


def interior_product(field: BundleVectorField, form: BundleForm) -> BundleForm:
    """Contraction in the first slot over the algebra."""
    if form.degree < 1:
        raise DegreeError("cannot contract a form of degree zero")
    if field.arity != form.arity:
        raise ArityError("field and form disagree on arity")
    if not field.algebra.compatible_with(form.algebra):
        raise AlgebraMismatch("field and form live over different algebras")
    return prolong_form(base_interior_product(field._base, form._base), form.algebra)


# Validation at construction: points of the base sampled per closedness
# coefficient and for the determinant; a coefficient above _VALIDATION_TOL, or
# a determinant within it, rejects the form
_VALIDATION_SAMPLES = 12
_VALIDATION_TOL = 1e-9


class SymplecticStructure:
    """Closed nondegenerate 2-form on an even-dimensional base open.

    Closedness and nondegeneracy are sampled at construction; pass
    validate=False for structures known sound (the canonical family)."""

    def __init__(self, form: BaseForm, *, validate: bool = True):
        if form.degree != 2:
            raise DegreeError("a symplectic structure is a 2-form")
        if form.arity % 2 != 0:
            raise InvalidSymplecticStructure("the base dimension must be even")
        _check_arity(form.arity)
        self.form = form
        self._inverse_bivector: PoissonStructure | None = None
        if validate:
            self._validate()

    @property
    def arity(self) -> int:
        return self.form.arity

    def _validate(self):
        """Closedness as one ``zero_test`` group over R (M^R = M), then the
        determinant at points of the base drawn after it."""
        n = self.arity
        real = make_truncated_algebra(1, 0)
        rng = np.random.default_rng(DEFAULT_SEED)
        zero = BundleFunction.zero(real, n)
        residual, witness = zero_test(
            ((prolong_function(coeff, real), zero, {"coefficient": idx})
             for idx, coeff in exterior_derivative(self.form).coeffs.items()),
            samples=_VALIDATION_SAMPLES, rng=rng)
        if residual > _VALIDATION_TOL:
            raise InvalidSymplecticStructure(
                f"the form is not closed: d-coefficient {witness['coefficient']} is "
                f"{residual:.3e} at {_real_point(witness['point'])}")
        points = sample_near_points(real, n, rng, _VALIDATION_SAMPLES)
        values = np.zeros((_VALIDATION_SAMPLES, n, n))
        for (i, j), coeff in self.form.coeffs.items():
            values[:, i, j] = points.pulled(coeff)[:, 0]
        dets = np.linalg.det(values - values.swapaxes(1, 2))
        for det, x in zip(dets, points.coeffs):
            if abs(det) <= _VALIDATION_TOL:
                raise InvalidSymplecticStructure(
                    f"the form degenerates (det {float(det):.3e}) at {_real_point(x)}")

    def matrix(self) -> list[list[ScalarExpr]]:
        """Full antisymmetric coefficient matrix as expressions."""
        n = self.arity
        return [[self.form.coefficient((i, j)) for j in range(n)] for i in range(n)]

    @classmethod
    def canonical(cls, arity: int) -> "SymplecticStructure":
        """Sum of dx_{2k} wedge dx_{2k+1} with unit coefficients."""
        if arity % 2 != 0:
            raise InvalidSymplecticStructure("the base dimension must be even")
        _check_arity(arity)
        form = BaseForm(2, arity, {(2 * k, 2 * k + 1): 1.0 for k in range(arity // 2)})
        return cls(form, validate=False)

    def __repr__(self):
        return f"SymplecticStructure({self.form!r})"


# -- local-ring linear algebra --------------------------------------------------
#
# Matrices over A are coefficient arrays of shape (..., m, m, d): one matrix,
# or one per point of a batch, each of which gets the bits it would get alone.
# A real matrix stays real, of shape (..., m, m), and scales the entries of
# the other factor directly.

def _matrix_product(algebra: WeilAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (..., m, p, d) and (..., p, q, d) matrices over A: all
    m*p*q entry products in one kernel call, then each entry sums its p
    products from left to right."""
    terms = _product(algebra, a[..., :, :, None, :], b[..., None, :, :, :])
    acc = terms[..., 0, :, :]
    for k in range(1, terms.shape[-3]):
        acc = acc + terms[..., k, :, :]
    return acc


def _matrix_inverse(algebra: WeilAlgebra, matrix: np.ndarray, *,
                    terms: int | None = None) -> np.ndarray:
    """Inverse of (..., m, m, d) matrices over A.

    Splits M = M0 + N into the real-part matrix and the nilpotent remainder
    and evaluates M^{-1} = M0^{-1} * sum_{k=0}^{h} (-N M0^{-1})^k; the series
    is exact because products of h+1 nilpotent entries vanish, and each
    matrix stops at its own first vanishing power.  ``terms`` overrides the
    summand count; fewer than h+1 gives a wrong inverse whenever order-h
    contributions matter, and only the harness's ``neumann_skip`` mutation
    sets it.  Raises SingularRealPart at the first matrix whose real part is
    singular at ZERO_TOL.
    """
    real = matrix[..., 0]
    smallest = np.linalg.svd(real, compute_uv=False)[..., -1].ravel()
    singular = smallest[smallest <= ZERO_TOL]
    if singular.size:
        raise SingularRealPart(
            f"real part is singular to tolerance (smallest singular value "
            f"{singular[0]:.3e})")
    real_inv = np.linalg.inv(real)
    nil = matrix.copy()
    nil[..., 0] = 0.0
    # -N M0^{-1}, each entry summing its m products from left to right
    c = -np.einsum("...ikt,...kj->...ijt", nil, real_inv)
    count = algebra.height + 1 if terms is None else terms
    identity = np.eye(matrix.shape[-2])[..., None] * _unit(algebra)
    # the series runs flat, one row of m*m*d coefficients per matrix
    series, power, live = identity.reshape(-1), c, True
    for k in range(count - 1):
        if k:
            power = _matrix_product(algebra, c, power)
        flat = power.reshape(matrix.shape[:-3] + (-1,))
        live = _live(flat, live)
        if live is False:
            break
        series = _add_live(series, flat, live)
    series = series.reshape(series.shape[:-1] + identity.shape)
    return np.einsum("...ik,...kjt->...ijt", real_inv, series)


def weil_matrix_inverse(rows: Sequence[Sequence[WeilElement]]) -> list[list[WeilElement]]:
    """Invert a square matrix over a Weil algebra (``_matrix_inverse``).
    Raises SingularRealPart when the real part is singular to tolerance."""
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("expected a nonempty square matrix")
    algebra = rows[0][0].algebra
    for row in rows:
        for entry in row:
            if not algebra.compatible_with(entry.algebra):
                raise AlgebraMismatch("matrix entries live in different algebras")
    inverse = _matrix_inverse(algebra, np.array([[entry.coeffs for entry in row]
                                                 for row in rows]))
    return [[_wrap(algebra, entry) for entry in row] for row in inverse]


# -- hamiltonian fields via pointwise solves ------------------------------------

class _SystemMatrix:
    """Solve matrix of expressions.  Its inverse at a near-point or a batch
    is kept in that point's own evaluation cache, keyed by the matrix."""

    __slots__ = ("entries", "algebra", "arity")

    def __init__(self, entries, algebra: WeilAlgebra, arity: int):
        self.entries = tuple(tuple(row) for row in entries)
        self.algebra = algebra
        self.arity = arity

    def inverse_at(self, point) -> np.ndarray:
        cached = point._eval_cache.get(self)
        if cached is None:
            values = np.stack([np.stack([point.pulled(entry) for entry in row], axis=-2)
                               for row in self.entries], axis=-3)
            cached = point._eval_cache[self] = _matrix_inverse(self.algebra, values)
        return cached


class _LinearSolve:
    """One right-hand side against a shared system; solutions kept in the
    point's evaluation cache, derivatives produced as further solves, kept
    per direction so that all components share one."""

    __slots__ = ("system", "rhs", "_derived")

    def __init__(self, system: _SystemMatrix, rhs: Sequence[ScalarExpr]):
        self.system = system
        self.rhs = tuple(rhs)
        self._derived: dict[int, "_LinearSolve"] = {}

    def solution(self, point) -> np.ndarray:
        """The (..., m, d) solution at a near-point or a batch."""
        cached = point._eval_cache.get(self)
        if cached is None:
            values = np.stack([point.pulled(root) for root in self.rhs], axis=-2)
            cached = _matrix_product(self.system.algebra, self.system.inverse_at(point),
                                     values[..., None, :])[..., 0, :]
            point._eval_cache[self] = cached
        return cached

    def derivative(self, direction: int) -> "_LinearSolve":
        """Solve for the directional derivative of the solution:
        B dx = d(rhs) - dB x, exact over the algebra."""
        cached = self._derived.get(direction)
        if cached is None:
            n = self.system.arity
            size = len(self.rhs)
            new_rhs = []
            for j in range(size):
                root = differentiate(self.rhs[j], direction)
                for k in range(size):
                    db = differentiate(self.system.entries[j][k], direction)
                    if isinstance(db, Const) and db.value == 0.0:
                        continue
                    root = sub(root, mul(db, _solved(self, k, n)))
                new_rhs.append(root)
            cached = _LinearSolve(self.system, new_rhs)
            self._derived[direction] = cached
        return cached


def hamiltonian_field(fn: BundleFunction,
                      structure: SymplecticStructure) -> BundleVectorField:
    """The field X with i_X Omega = d(fn) over fn's algebra.

    Components are solved pointwise (first-slot contraction: the transpose of
    the coefficient matrix is applied to the component vector) and returned as
    solved-component nodes with exact derivative rules.
    """
    n = structure.arity
    if fn.arity != n:
        raise ArityError("function arity does not match the structure")
    matrix = structure.matrix()
    transposed = [[matrix[j][i] for j in range(n)] for i in range(n)]
    system = _SystemMatrix(transposed, fn.algebra, n)
    solve = _LinearSolve(system, [differentiate(fn.root, i) for i in range(n)])
    return prolong_vector_field(BaseVectorField([_solved(solve, i, n) for i in range(n)]),
                                fn.algebra)


def inverse_bivector(structure: SymplecticStructure) -> PoissonStructure:
    """The Poisson bivector inverse to the symplectic coefficient matrix,
    computed symbolically by cofactor expansion."""
    if structure._inverse_bivector is not None:
        return structure._inverse_bivector
    n = structure.arity
    matrix = structure.matrix()
    det = _symbolic_det(matrix, n)
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            minor = _symbolic_det(_strike(matrix, j, i), n - 1)
            cofactor = minor if (i + j) % 2 == 0 else neg(minor)
            entries[(i, j)] = div(cofactor, det)
    bivector = PoissonStructure(n, entries, validate=False)
    structure._inverse_bivector = bivector
    return bivector


def _strike(matrix, row, col):
    return [[entry for j, entry in enumerate(r) if j != col]
            for i, r in enumerate(matrix) if i != row]


def _symbolic_det(matrix, size) -> ScalarExpr:
    if size == 0:
        raise ValueError("empty determinant")
    arity = matrix[0][0].arity
    acc: ScalarExpr = const(0.0, arity)
    for perm in itertools.permutations(range(size)):
        prod: ScalarExpr = const(float(_sort_index(perm)[1]), arity)
        for i, j in enumerate(perm):
            prod = mul(prod, matrix[i][j])
        acc = add(acc, prod)
    return acc


def base_hamiltonian_field(f: ScalarExpr, structure: SymplecticStructure) -> BaseVectorField:
    """Hamiltonian field of a base function: the derivation of the inverse
    bivector."""
    return inverse_bivector(structure).ad(f)


def symplectic_bracket(f: BundleFunction, g: BundleFunction,
                       structure: SymplecticStructure) -> BundleFunction:
    """{f, g} over the algebra: apply the hamiltonian field of f to g."""
    return apply_field(hamiltonian_field(f, structure), g)


# -- decision procedures ---------------------------------------------------------

def symplectic_closedness_defect(field: BundleVectorField,
                                 structure: SymplecticStructure, *,
                                 samples: int = 32,
                                 rng: np.random.Generator | None = None):
    """Worst residual of the coordinate coefficients of d(i_X Omega),
    sampled unscaled; a 2-form vanishes exactly when its coefficients do.
    Returns (residual, witness), the witness naming the pair and the worst
    near-point."""
    if field.arity != structure.arity:
        raise ArityError("field arity does not match the structure")
    omega = prolong_form(structure.form, field.algebra)
    defect = bundle_exterior_derivative(interior_product(field, omega))
    zero = BundleFunction.zero(field.algebra, field.arity)
    return zero_test(((defect.coefficient(pair), zero, {"pair": list(pair)})
                      for pair in increasing_tuples(field.arity, 2)),
                     samples=samples, rng=rng)


def check_global_witness_symplectic(field: BundleVectorField, witness: BundleFunction,
                                    structure: SymplecticStructure, *,
                                    samples: int = 32,
                                    rng: np.random.Generator | None = None):
    """Worst residual of i_X Omega - d(witness), its coefficients sampled as
    one group (``zero_test``).

    Returns (residual, witness), the witness naming the worst component
    and its worst near-point, or (0.0, None) when there is nothing to
    compare.  A witness passes only as given: under the opposite sign
    convention, negate it first.
    """
    omega = prolong_form(structure.form, field.algebra)
    contracted = interior_product(field, omega)
    return zero_test([(contracted.coefficient((i,)), witness.partial(i),
                       {"component": i}) for i in range(structure.arity)],
                     samples=samples, rng=rng)
