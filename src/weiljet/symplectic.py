"""Differential forms, symplectic structures, and hamiltonian fields.

Forms are stored by their coefficients on strictly increasing coordinate
index tuples, on the base with expression coefficients and on the prolonged
space with A-valued function coefficients.  The prolongation of a form keeps
the index basis and prolongs each coefficient.

A symplectic structure is a closed nondegenerate 2-form (both sampled at
construction).  The hamiltonian field of an A-valued function solves the
linear system  sum_i Omega_ij X^i = d_j(phi)  over the algebra at each
evaluation point; components come back as opaque factors that carry exact
derivative rules, so the field composes with the rest of the calculus even
though no closed form for it exists.  Inverting the solve matrix uses the
finite Neumann series of local-ring linear algebra.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .algebra import WeilAlgebra, WeilElement
from .bundle import (
    DEFAULT_BOX,
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    Term,
    apply_field,
    max_difference,
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
    add,
    const,
    differentiate,
    div,
    eval_real,
    mul,
    neg,
    parse_expr,
    var,
)
from .poisson import PoissonStructure


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


def _coerce_coeff(value, arity: int) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        if value.arity != arity:
            raise ArityError("form coefficient arity does not match")
        return value
    if isinstance(value, str):
        return parse_expr(value, arity)
    if isinstance(value, (int, float)):
        return const(float(value), arity)
    raise TypeError(f"cannot read a form coefficient from {type(value).__name__}")


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
            expr = _coerce_coeff(raw, arity)
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

    def evaluate(self, fields: Sequence[BaseVectorField]) -> ScalarExpr:
        """Contract with vector fields (determinant expansion), returning an
        expression."""
        if len(fields) != self.degree:
            raise DegreeError("field count does not match the form degree")
        acc: ScalarExpr = const(0.0, self.arity)
        for idx, coeff in self.coeffs.items():
            det: ScalarExpr = const(0.0, self.arity)
            for perm in itertools.permutations(range(self.degree)):
                prod: ScalarExpr = const(_perm_sign(perm), self.arity)
                for a, b in enumerate(perm):
                    prod = mul(prod, fields[a].components[idx[b]])
                det = add(det, prod)
            acc = add(acc, mul(coeff, det))
        return acc

    def __add__(self, other):
        if not isinstance(other, BaseForm):
            return NotImplemented
        if other.degree != self.degree or other.arity != self.arity:
            raise DegreeError("forms disagree on degree or arity")
        merged = dict(self.coeffs)
        for idx, expr in other.coeffs.items():
            merged[idx] = add(merged[idx], expr) if idx in merged else expr
        return BaseForm(self.degree, self.arity, merged)

    def __sub__(self, other):
        if not isinstance(other, BaseForm):
            return NotImplemented
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "BaseForm":
        if isinstance(factor, (int, float)):
            factor = const(float(factor), self.arity)
        return BaseForm(self.degree, self.arity,
                        {idx: mul(factor, expr) for idx, expr in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return f"BaseForm(degree={self.degree}, 0)"
        inner = " + ".join(f"({e.text}) dx{list(i)}" for i, e in sorted(self.coeffs.items()))
        return f"BaseForm({inner})"


def _perm_sign(perm) -> float:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return float(sign)


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
    """A-valued form on the prolonged space: coefficients are A-valued
    functions over the same increasing index basis."""

    __slots__ = ("degree", "arity", "algebra", "coeffs")

    def __init__(self, degree: int, arity: int, algebra: WeilAlgebra,
                 coeffs: dict | None = None):
        if degree < 0:
            raise DegreeError("form degree must be nonnegative")
        cleaned: dict[tuple[int, ...], BundleFunction] = {}
        for idx, fn in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(f"index {idx} does not have length {degree}")
            if any(i < 0 or i >= arity for i in idx):
                raise ArityError(f"index {idx} out of range for arity {arity}")
            if list(idx) != sorted(set(idx)):
                raise DegreeError(f"index {idx} must be strictly increasing")
            if not isinstance(fn, BundleFunction):
                raise TypeError("prolonged-form coefficients must be A-valued functions")
            if not fn.is_structurally_zero():
                cleaned[idx] = fn
        if degree > arity and cleaned:
            raise DegreeError("forms above the top degree must be zero")
        self.degree = degree
        self.arity = arity
        self.algebra = algebra
        self.coeffs = cleaned

    def coefficient(self, idx: tuple[int, ...]) -> BundleFunction:
        key, sign = _sort_index(tuple(idx))
        zero = BundleFunction.zero(self.algebra, self.arity)
        if sign == 0:
            return zero
        fn = self.coeffs.get(key, zero)
        return fn if sign == 1 else -fn

    def contract(self, fields: Sequence[BundleVectorField]) -> BundleFunction:
        """Evaluate on vector fields by determinant expansion of canonical
        components."""
        if len(fields) != self.degree:
            raise DegreeError("field count does not match the form degree")
        summands = []
        for idx, coeff in self.coeffs.items():
            products = []
            for perm in itertools.permutations(range(self.degree)):
                prod = BundleFunction.constant(_perm_sign(perm), self.algebra, self.arity)
                for a, b in enumerate(perm):
                    prod = prod * fields[a].components[idx[b]]
                products.append(prod)
            det = BundleFunction.sum(self.algebra, self.arity, products)
            summands.append(coeff * det)
        return BundleFunction.sum(self.algebra, self.arity, summands)

    def __add__(self, other):
        if not isinstance(other, BundleForm):
            return NotImplemented
        if other.degree != self.degree or other.arity != self.arity:
            raise DegreeError("forms disagree on degree or arity")
        if not self.algebra.compatible_with(other.algebra):
            raise AlgebraMismatch("forms live over different algebras")
        merged = dict(self.coeffs)
        for idx, fn in other.coeffs.items():
            merged[idx] = merged[idx] + fn if idx in merged else fn
        return BundleForm(self.degree, self.arity, self.algebra, merged)

    def __sub__(self, other):
        if not isinstance(other, BundleForm):
            return NotImplemented
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "BundleForm":
        return BundleForm(self.degree, self.arity, self.algebra,
                          {idx: fn * factor for idx, fn in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return f"BundleForm(degree={self.degree}, 0)"
        inner = " + ".join(f"[{fn!r}] dx{list(i)}" for i, fn in sorted(self.coeffs.items()))
        return f"BundleForm({inner})"


def prolong_form(form: BaseForm, algebra: WeilAlgebra) -> BundleForm:
    """Prolong a base form: same index basis, each coefficient prolonged."""
    coeffs = {idx: BundleFunction.from_expr(expr, algebra)
              for idx, expr in form.coeffs.items()}
    return BundleForm(form.degree, form.arity, algebra, coeffs)


def bundle_exterior_derivative(form: BundleForm) -> BundleForm:
    """Exterior derivative over the algebra; coefficients differentiate by
    their own rules, so solved (opaque) coefficients are handled exactly."""
    out: dict[tuple[int, ...], BundleFunction] = {}
    for idx, coeff in form.coeffs.items():
        for i in range(form.arity):
            if i in idx:
                continue
            pos = sum(1 for j in idx if j < i)
            key = tuple(sorted(idx + (i,)))
            contribution = coeff.partial(i)
            if pos % 2 == 1:
                contribution = -contribution
            out[key] = out[key] + contribution if key in out else contribution
    return BundleForm(form.degree + 1, form.arity, form.algebra, out)


def interior_product(field: BundleVectorField, form: BundleForm) -> BundleForm:
    """Contraction in the first slot over the algebra."""
    if form.degree < 1:
        raise DegreeError("cannot contract a form of degree zero")
    if field.arity != form.arity:
        raise ArityError("field and form disagree on arity")
    if not field.algebra.compatible_with(form.algebra):
        raise AlgebraMismatch("field and form live over different algebras")
    out: dict[tuple[int, ...], BundleFunction] = {}
    for idx, coeff in form.coeffs.items():
        for a, i in enumerate(idx):
            key = idx[:a] + idx[a + 1:]
            contribution = field.components[i] * coeff
            if a % 2 == 1:
                contribution = -contribution
            out[key] = out[key] + contribution if key in out else contribution
    return BundleForm(form.degree - 1, form.arity, form.algebra, out)


class SymplecticStructure:
    """Closed nondegenerate 2-form on an even-dimensional base open.

    Closedness and nondegeneracy are sampled at construction; pass
    validate=False for structures known sound (the canonical family)."""

    def __init__(self, form: BaseForm, *, validate: bool = True,
                 samples: int = 12, tol: float = 1e-9,
                 rng: np.random.Generator | None = None,
                 box: tuple[float, float] = DEFAULT_BOX):
        if form.degree != 2:
            raise DegreeError("a symplectic structure is a 2-form")
        if form.arity % 2 != 0:
            raise InvalidSymplecticStructure("the base dimension must be even")
        self.form = form
        self._inverse_bivector: PoissonStructure | None = None
        if validate:
            self._validate(samples, tol, rng, box)

    @property
    def arity(self) -> int:
        return self.form.arity

    def _validate(self, samples, tol, rng, box):
        if rng is None:
            rng = np.random.default_rng(42)
        n = self.arity
        closed = exterior_derivative(self.form)
        matrix = self.matrix()
        for _ in range(samples):
            x = rng.uniform(box[0], box[1], size=n)
            for idx, coeff in closed.coeffs.items():
                value = eval_real(coeff, x)
                if abs(value) > tol:
                    raise InvalidSymplecticStructure(
                        f"the form is not closed: d-coefficient {idx} is "
                        f"{value:.3e} at {tuple(round(v, 4) for v in x)}")
            numeric = np.array([[eval_real(matrix[i][j], x) for j in range(n)]
                                for i in range(n)])
            det = float(np.linalg.det(numeric))
            if abs(det) <= tol:
                raise InvalidSymplecticStructure(
                    f"the form degenerates (det {det:.3e}) at "
                    f"{tuple(round(v, 4) for v in x)}")

    def matrix(self) -> list[list[ScalarExpr]]:
        """Full antisymmetric coefficient matrix as expressions."""
        n = self.arity
        return [[self.form.coefficient((i, j)) for j in range(n)] for i in range(n)]

    @classmethod
    def canonical(cls, arity: int) -> "SymplecticStructure":
        """Sum of dx_{2k} wedge dx_{2k+1} with unit coefficients."""
        if arity % 2 != 0:
            raise InvalidSymplecticStructure("the base dimension must be even")
        form = BaseForm(2, arity, {(2 * k, 2 * k + 1): 1.0 for k in range(arity // 2)})
        return cls(form, validate=False)

    def __repr__(self):
        return f"SymplecticStructure({self.form!r})"


# -- local-ring linear algebra --------------------------------------------------

def _matrix_product(a, b, size):
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = a[i][0] * b[0][j]
            for k in range(1, size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def weil_matrix_inverse(rows: Sequence[Sequence[WeilElement]], *,
                        terms: int | None = None) -> list[list[WeilElement]]:
    """Invert a square matrix over a Weil algebra.

    Splits M = M0 + N into the real-part matrix and the nilpotent remainder
    and evaluates M^{-1} = M0^{-1} * sum_{k=0}^{h} (-N M0^{-1})^k; the series
    is exact because products of h+1 nilpotent entries vanish.  ``terms``
    overrides the summand count (testing hook; fewer than h+1 terms gives a
    wrong inverse whenever order-h contributions matter).

    Raises SingularRealPart when the real part is singular at the algebra's
    zero tolerance.
    """
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("expected a nonempty square matrix")
    algebra = rows[0][0].algebra
    for row in rows:
        for entry in row:
            if not algebra.compatible_with(entry.algebra):
                raise AlgebraMismatch("matrix entries live in different algebras")
    real = np.array([[entry.augmentation for entry in row] for row in rows])
    smallest = float(np.linalg.svd(real, compute_uv=False)[-1])
    if smallest <= algebra.zero_tol:
        raise SingularRealPart(
            f"real part is singular to tolerance (smallest singular value "
            f"{smallest:.3e})")
    real_inv = np.linalg.inv(real)
    # C = -N * M0^{-1}, entries of N nilpotent
    c = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = algebra.zero()
            for k in range(size):
                acc = acc + rows[i][k].nilpotent_part() * float(-real_inv[k][j])
            row.append(acc)
        c.append(row)
    count = algebra.height + 1 if terms is None else terms
    unit, zero = algebra.unit(), algebra.zero()
    series = [[unit if i == j else zero for j in range(size)] for i in range(size)]
    power = series
    for _ in range(count - 1):
        power = _matrix_product(c, power, size)
        if all(entry.is_zero() for row in power for entry in row):
            break
        series = [[series[i][j] + power[i][j] for j in range(size)]
                  for i in range(size)]
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = series[0][j] * float(real_inv[i][0])
            for k in range(1, size):
                acc = acc + series[k][j] * float(real_inv[i][k])
            row.append(acc)
        out.append(row)
    return out


# -- hamiltonian fields via pointwise solves ------------------------------------

class _SystemMatrix:
    """Solve matrix of expressions with a per-point inverse cache."""

    __slots__ = ("entries", "algebra", "arity", "_inverses")

    def __init__(self, entries, algebra: WeilAlgebra, arity: int):
        self.entries = tuple(tuple(row) for row in entries)
        self.algebra = algebra
        self.arity = arity
        self._inverses: dict[NearPoint, list[list[WeilElement]]] = {}

    def inverse_at(self, point: NearPoint):
        cached = self._inverses.get(point)
        if cached is None:
            values = [[WeilElement(point.algebra, point.pulled(entry)) for entry in row]
                      for row in self.entries]
            cached = weil_matrix_inverse(values)
            self._inverses[point] = cached
        return cached


class _LinearSolve:
    """One right-hand side against a shared system; solutions cached per
    point, derivatives produced as further solves."""

    __slots__ = ("system", "rhs", "_solutions", "_derived")

    def __init__(self, system: _SystemMatrix, rhs: Sequence[BundleFunction]):
        self.system = system
        self.rhs = tuple(rhs)
        self._solutions: dict[NearPoint, list[WeilElement]] = {}
        self._derived: dict[int, "_LinearSolve"] = {}

    def solution(self, point: NearPoint) -> list[WeilElement]:
        cached = self._solutions.get(point)
        if cached is None:
            inverse = self.system.inverse_at(point)
            values = [fn.evaluate(point) for fn in self.rhs]
            size = len(values)
            cached = []
            for i in range(size):
                acc = inverse[i][0] * values[0]
                for k in range(1, size):
                    acc = acc + inverse[i][k] * values[k]
                cached.append(acc)
            self._solutions[point] = cached
        return cached

    def component_function(self, index: int) -> BundleFunction:
        factor = _SolvedComponent(self, index)
        return BundleFunction(self.system.algebra, self.system.arity,
                              [Term(self.system.algebra.unit(), (), (factor,))])

    def derivative(self, direction: int) -> "_LinearSolve":
        """Solve for the directional derivative of the solution:
        B dx = d(rhs) - dB x, exact over the algebra."""
        cached = self._derived.get(direction)
        if cached is None:
            algebra, n = self.system.algebra, self.system.arity
            size = len(self.rhs)
            new_rhs = []
            for j in range(size):
                fn = self.rhs[j].partial(direction)
                for k in range(size):
                    db = differentiate(self.system.entries[j][k], direction)
                    if isinstance(db, Const) and db.value == 0.0:
                        continue
                    fn = fn - (BundleFunction.from_expr(db, algebra)
                               * self.component_function(k))
                new_rhs.append(fn)
            cached = _LinearSolve(self.system, new_rhs)
            self._derived[direction] = cached
        return cached


class _SolvedComponent:
    """Opaque factor for one component of a pointwise linear solve."""

    __slots__ = ("solve", "index")

    def __init__(self, solve: _LinearSolve, index: int):
        self.solve = solve
        self.index = index

    def evaluate(self, point: NearPoint) -> WeilElement:
        return self.solve.solution(point)[self.index]

    def partial(self, index: int) -> BundleFunction:
        return self.solve.derivative(index).component_function(self.index)


def hamiltonian_field(fn: BundleFunction, structure: SymplecticStructure,
                      algebra: WeilAlgebra) -> BundleVectorField:
    """The field X with i_X Omega = d(fn) over the algebra.

    Components are solved pointwise (first-slot contraction: the transpose of
    the coefficient matrix is applied to the component vector) and returned as
    opaque functions with exact derivative rules.
    """
    n = structure.arity
    if fn.arity != n:
        raise ArityError("function arity does not match the structure")
    if not fn.algebra.compatible_with(algebra):
        raise AlgebraMismatch("function algebra does not match the request")
    matrix = structure.matrix()
    transposed = [[matrix[j][i] for j in range(n)] for i in range(n)]
    system = _SystemMatrix(transposed, algebra, n)
    rhs = [fn.partial(i) for i in range(n)]
    solve = _LinearSolve(system, rhs)
    return BundleVectorField([solve.component_function(i) for i in range(n)])


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
        prod: ScalarExpr = const(_perm_sign(perm), arity)
        for i, j in enumerate(perm):
            prod = mul(prod, matrix[i][j])
        acc = add(acc, prod)
    return acc


def base_hamiltonian_field(f: ScalarExpr, structure: SymplecticStructure) -> BaseVectorField:
    """Hamiltonian field of a base function: the derivation of the inverse
    bivector."""
    return inverse_bivector(structure).ad(f)


def symplectic_bracket(f: BundleFunction, g: BundleFunction,
                       structure: SymplecticStructure,
                       algebra: WeilAlgebra) -> BundleFunction:
    """{f, g} over the algebra: apply the hamiltonian field of f to g."""
    return apply_field(hamiltonian_field(f, structure, algebra), g)


# -- decision procedures ---------------------------------------------------------

def _random_coefficient_function(algebra: WeilAlgebra, arity: int,
                                 rng: np.random.Generator) -> BundleFunction:
    # invertible-augmentation algebra coefficient times a linear pullback
    coeffs = rng.uniform(-1.0, 1.0, size=algebra.dim)
    coeffs[0] = rng.uniform(0.5, 1.5) * (1.0 if rng.uniform() < 0.5 else -1.0)
    linear: ScalarExpr = const(round(float(rng.uniform(0.5, 1.5)), 3), arity)
    for i in range(arity):
        linear = add(linear, mul(const(round(float(rng.uniform(-1.0, 1.0)), 3), arity),
                                 var(i, arity)))
    return BundleFunction(algebra, arity, [Term(algebra.element(coeffs), (linear,))])


def _coordinate_field(algebra: WeilAlgebra, arity: int, index: int) -> BundleVectorField:
    comps = [BundleFunction.constant(1.0 if i == index else 0.0, algebra, arity)
             for i in range(arity)]
    return BundleVectorField(comps)


def symplectic_closedness_defect(field: BundleVectorField,
                                 structure: SymplecticStructure,
                                 algebra: WeilAlgebra, *,
                                 samples: int = 32,
                                 rng: np.random.Generator | None = None,
                                 box: tuple[float, float] = DEFAULT_BOX):
    """Worst residual of d(i_X Omega) contracted with coordinate-field pairs
    carrying random invertible function coefficients.

    Returns (residual, witness).  The contraction is function-bilinear, so
    coefficiented coordinate pairs decide vanishing of the whole 2-form.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    n = structure.arity
    if field.arity != n:
        raise ArityError("field arity does not match the structure")
    omega = prolong_form(structure.form, algebra)
    defect_form = bundle_exterior_derivative(interior_product(field, omega))
    zero = BundleFunction.zero(algebra, n)
    worst = -1.0
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            left = _coordinate_field(algebra, n, i).scaled(
                _random_coefficient_function(algebra, n, rng))
            right = _coordinate_field(algebra, n, j).scaled(
                _random_coefficient_function(algebra, n, rng))
            value = defect_form.contract([left, right])
            residual, point = max_difference(value, zero, samples=samples,
                                             rng=rng, box=box)
            if residual > worst:
                worst = residual
                witness = {
                    "pair": [i, j],
                    "point": [[float(v) for v in c.coeffs] for c in point.coords],
                }
    return max(worst, 0.0), witness


def is_locally_hamiltonian_symplectic(field: BundleVectorField,
                                      structure: SymplecticStructure,
                                      algebra: WeilAlgebra, *,
                                      samples: int = 32, tol: float = 1e-9,
                                      rng: np.random.Generator | None = None,
                                      box: tuple[float, float] = DEFAULT_BOX) -> bool:
    """Sampled test that i_X Omega is closed over the algebra."""
    residual, _ = symplectic_closedness_defect(field, structure, algebra,
                                               samples=samples, rng=rng, box=box)
    return residual <= tol


class WitnessVerdict:
    """Outcome of a global-witness check: overall verdict, which sign of the
    convention matched (if either), and the best residual seen."""

    __slots__ = ("ok", "matched_sign", "residual")

    def __init__(self, ok: bool, matched_sign: int | None, residual: float):
        self.ok = ok
        self.matched_sign = matched_sign
        self.residual = residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"WitnessVerdict(ok={self.ok}, matched_sign={self.matched_sign}, "
                f"residual={self.residual:.3e})")


def check_global_witness_symplectic(field: BundleVectorField, witness: BundleFunction,
                                    structure: SymplecticStructure,
                                    algebra: WeilAlgebra, *, sigma: int = 1,
                                    samples: int = 32, tol: float = 1e-9,
                                    rng: np.random.Generator | None = None,
                                    box: tuple[float, float] = DEFAULT_BOX) -> WitnessVerdict:
    """Confirm i_X Omega = sigma * d(witness) coefficientwise (sampled).

    The verdict is positive only under the configured sign; the opposite sign
    is also tried so a conventions mismatch is reported rather than silently
    failed.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    if rng is None:
        rng = np.random.default_rng(42)
    n = structure.arity
    omega = prolong_form(structure.form, algebra)
    contracted = interior_product(field, omega)
    gradient = [witness.partial(i) for i in range(n)]
    outcomes = {}
    for sign in (sigma, -sigma):
        worst = 0.0
        for i in range(n):
            target = gradient[i] * float(sign)
            residual, _ = max_difference(contracted.coefficient((i,)), target,
                                         samples=samples, rng=rng, box=box)
            worst = max(worst, residual)
        outcomes[sign] = worst
        if worst <= tol:
            return WitnessVerdict(sign == sigma, sign, worst)
    return WitnessVerdict(False, None, min(outcomes.values()))
