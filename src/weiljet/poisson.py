"""Poisson structures and their prolongation to near-point spaces.

A Poisson structure on an open subset of R^n is an antisymmetric bivector
pi_ij of expressions whose bracket {f,g} = sum pi_ij df/dx_i dg/dx_j
satisfies the Jacobi identity.  Construction samples it like every other
identity, with ``zero_test``, over the one-dimensional algebra R, whose
near-points are the points of the base: one group with a case per
coordinate triple, so a defect that is not finite raises DomainError.

Prolonging over a Weil algebra A gives a bracket on A-valued functions: the
derivation of fn has components sum_k pi_kj^A * d_k fn, which on a pullback
f^A is the prolongation of the base hamiltonian field of f, extends to
products by the Leibniz rule and to algebra-element coefficients linearly:
it is the base derivation ``PoissonStructure.ad`` on the same root.  So the
structure stays on the base: every prolonged operation takes the
``PoissonStructure`` and reads A from its A-valued arguments.

The adjoint differential takes a function to its hamiltonian field
(``PoissonStructure.ad``, ``poisson_derivation``) and a field X to its defect
(f, g) -> {f, Xg} - {g, Xf} - X{f, g}, which ``adjoint_differential`` (base)
and ``prolonged_adjoint_differential`` (over the algebra) return as a function
of the pair.  A field is locally hamiltonian when that defect vanishes,
globally hamiltonian when a potential function produces it exactly; both
tests are sampled, never searched.  The defect is -(L_X pi)(df, dg), a
derivation in each slot, so the local test samples it, unscaled, on the
coordinate pairs (x_i^A, x_j^A) alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .algebra import MAX_DIM, make_truncated_algebra
from .bundle import (
    DEFAULT_SEED,
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    apply_field,
    prolong_function,
    prolong_vector_field,
    zero_test,
)
from .errors import ArityError, CapacityError, InvalidPoissonStructure
from .expression import (
    Const,
    ScalarExpr,
    Var,
    _coerce,
    _topological,
    add,
    const,
    differentiate,
    mul,
    neg,
    sub,
    var,
)

# Jacobi validation at construction: points of the base sampled per triple,
# and the largest defect accepted
_JACOBI_SAMPLES = 12
_JACOBI_TOL = 1e-8


def _real_point(point) -> tuple[float, ...]:
    """A point of M^R = M, given as its (n, 1) coefficients, rounded for a
    message."""
    return tuple(float(round(v, 4)) for (v,) in point)


def _check_arity(arity: int) -> None:
    """Refuse a Poisson or symplectic structure above ``MAX_DIM``
    coordinates, before any work per coordinate."""
    if arity > MAX_DIM:
        raise CapacityError(f"a structure's arity is capped at {MAX_DIM}")


class PoissonStructure:
    """Antisymmetric bivector on a base open, stored as its upper triangle."""

    def __init__(self, arity: int, bivector: dict, *, validate: bool = True):
        if arity < 1:
            raise ArityError("a Poisson structure needs at least one coordinate")
        _check_arity(arity)
        entries: dict[tuple[int, int], ScalarExpr] = {}
        for key, raw in bivector.items():
            i, j = key
            if not (0 <= i < arity and 0 <= j < arity):
                raise ArityError(f"bivector index {key} out of range")
            if i == j:
                raise InvalidPoissonStructure("diagonal bivector entries must be zero")
            expr = _coerce(raw, arity, "bivector entry")
            if i > j:
                i, j, expr = j, i, neg(expr)
            if (i, j) in entries:
                raise InvalidPoissonStructure(f"duplicate bivector entry for {(i, j)}")
            if not (isinstance(expr, Const) and expr.value == 0.0):
                entries[(i, j)] = expr
        self.arity = arity
        self._entries = entries
        # column j of the signed bivector: (k, pi_kj) for each nonzero entry,
        # k ascending (the pairs in order give each column its k < j, then
        # its k > j); a zero entry adds nothing to a hamiltonian field
        self._columns = [[] for _ in range(arity)]
        for i, j in sorted(entries):
            self._columns[j].append((i, self.entry(i, j)))
            self._columns[i].append((j, self.entry(j, i)))
        if validate:
            self._validate_jacobi()

    def _validate_jacobi(self):
        """Sampled Jacobi identity: one ``zero_test`` group over R (M^R = M),
        one case per coordinate triple with a non-constant entry.  A triple
        of constant entries has a constant defect, 0 or NaN, and is left out."""
        n = self.arity
        real = make_truncated_algebra(1, 0)
        zero = BundleFunction.zero(real, n)
        varying = [pair for pair, e in self._entries.items() if type(e) is not Const]
        triples = sorted({tuple(sorted((i, j, k))) for i, j in varying
                          for k in range(n) if k != i and k != j})
        residual, witness = zero_test(
            ((prolong_function(self._jacobi_defect(*triple), real), zero,
              {"triple": triple}) for triple in triples),
            samples=_JACOBI_SAMPLES, rng=np.random.default_rng(DEFAULT_SEED))
        if residual > _JACOBI_TOL:
            raise InvalidPoissonStructure(
                f"Jacobi identity fails on coordinates {witness['triple']}: "
                f"residual {residual:.3e} at {_real_point(witness['point'])}")

    def _jacobi_defect(self, i: int, j: int, k: int) -> ScalarExpr:
        """The cyclic sum of pi_am * d_m pi_bc over (a, b, c) = (i, j, k),
        taken only at the m in the support of row a or among the variables of
        pi_bc: any other term is zero times one node."""
        acc: ScalarExpr = const(0.0, self.arity)
        wanted = set()
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            wanted.update(m for m, _ in self._columns[a])
            wanted.update(node.index for node in _topological(self.entry(b, c))
                          if type(node) is Var)
        for m in sorted(wanted):
            acc = add(acc, mul(self.entry(i, m), differentiate(self.entry(j, k), m)))
            acc = add(acc, mul(self.entry(j, m), differentiate(self.entry(k, i), m)))
            acc = add(acc, mul(self.entry(k, m), differentiate(self.entry(i, j), m)))
        return acc

    def entry(self, i: int, j: int) -> ScalarExpr:
        """Signed component pi_ij (antisymmetric in its indices)."""
        if i == j:
            return const(0.0, self.arity)
        if i < j:
            return self._entries.get((i, j), const(0.0, self.arity))
        return neg(self._entries.get((j, i), const(0.0, self.arity)))

    def bracket(self, f: ScalarExpr, g: ScalarExpr) -> ScalarExpr:
        """The bracket {f,g} as a symbolic expression."""
        if f.arity != self.arity or g.arity != self.arity:
            raise ArityError("bracket arguments do not match the structure arity")
        acc: ScalarExpr = const(0.0, self.arity)
        for (i, j), entry in self._entries.items():
            mixed = sub(mul(differentiate(f, i), differentiate(g, j)),
                        mul(differentiate(f, j), differentiate(g, i)))
            acc = add(acc, mul(entry, mixed))
        return acc

    def ad(self, f: ScalarExpr) -> BaseVectorField:
        """Hamiltonian field of f: the derivation g -> {f,g}."""
        if f.arity != self.arity:
            raise ArityError("function arity does not match the structure")
        comps = []
        for column in self._columns:
            acc: ScalarExpr = const(0.0, self.arity)
            for k, entry in column:
                acc = add(acc, mul(entry, differentiate(f, k)))
            comps.append(acc)
        return BaseVectorField(comps)

    @classmethod
    def canonical(cls, arity: int) -> "PoissonStructure":
        """{x_{2k}, x_{2k+1}} = 1 on an even-dimensional base."""
        if arity % 2 != 0:
            raise ArityError("the canonical structure needs an even arity")
        _check_arity(arity)
        return cls(arity, {(2 * k, 2 * k + 1): 1.0 for k in range(arity // 2)},
                   validate=False)

    @classmethod
    def rotational(cls) -> "PoissonStructure":
        """Linear structure on R^3 with {x0,x1} = x2 and cyclic permutations."""
        return cls(3, {(0, 1): var(2, 3),
                       (0, 2): neg(var(1, 3)),
                       (1, 2): var(0, 3)}, validate=False)

    def __repr__(self):
        inner = ", ".join(f"{k}: {e.text}" for k, e in sorted(self._entries.items()))
        return f"PoissonStructure(arity={self.arity}, {{{inner}}})"


def poisson_derivation(structure: PoissonStructure,
                       fn: BundleFunction) -> BundleVectorField:
    """The derivation psi -> {fn, psi} of the bracket prolonged over fn's
    algebra.

    Component j is sum_k pi_kj^A * d_k fn.  On a pullback f^A that is the
    prolonged base hamiltonian field of f, and by the Leibniz rule it is the
    same on products; it needs no closed form of fn, so solved components
    are accepted too.
    """
    if fn.arity != structure.arity:
        raise ArityError("function arity does not match the structure")
    return _derivation(structure, fn)


def _derivation(structure: PoissonStructure, fn: BundleFunction) -> BundleVectorField:
    """The body of ``poisson_derivation``, for arguments it has checked: the
    base derivation ``PoissonStructure.ad`` of fn's root."""
    return prolong_vector_field(structure.ad(fn.root), fn.algebra)


def prolonged_bracket(structure: PoissonStructure, f: BundleFunction,
                      g: BundleFunction) -> BundleFunction:
    """{f, g} over the algebra: apply the derivation of f to g."""
    return apply_field(poisson_derivation(structure, f), g)


# -- the adjoint differential --------------------------------------------------

def adjoint_differential(field: BaseVectorField, structure: PoissonStructure):
    """The adjoint differential of a base field: its bracket-compatibility
    defect (f, g) -> {f, Xg} - {g, Xf} - X{f, g}, as a function of two base
    expressions."""

    def defect(f: ScalarExpr, g: ScalarExpr) -> ScalarExpr:
        return sub(sub(structure.bracket(f, field.apply_to(g)),
                       structure.bracket(g, field.apply_to(f))),
                   field.apply_to(structure.bracket(f, g)))

    return defect


def prolonged_adjoint_differential(field: BundleVectorField,
                                   structure: PoissonStructure):
    """The adjoint differential of a field over the algebra: the defect
    (f, g) -> {f, Xg} - {g, Xf} - X{f, g} with all brackets taken over the
    algebra, as a function of two A-valued arguments."""

    def defect(f: BundleFunction, g: BundleFunction) -> BundleFunction:
        return _pair_defect(field, poisson_derivation(structure, f),
                            poisson_derivation(structure, g),
                            apply_field(field, f), apply_field(field, g), g)

    return defect


def _pair_defect(field: BundleVectorField, derivation_f: BundleVectorField,
                 derivation_g: BundleVectorField, moved_f: BundleFunction,
                 moved_g: BundleFunction, g: BundleFunction) -> BundleFunction:
    """{f, Xg} - {g, Xf} - X{f, g} from the pieces of f and g it reads: their
    Poisson derivations, Xf, Xg, and g."""
    return (apply_field(derivation_f, moved_g) - apply_field(derivation_g, moved_f)
            - apply_field(field, apply_field(derivation_f, g)))


# -- hamiltonian decision procedures -------------------------------------------

def poisson_closedness_defect(field: BundleVectorField, structure: PoissonStructure,
                              *, samples: int = 32,
                              rng: np.random.Generator | None = None):
    """Worst residual of the prolonged adjoint differential of the field on
    the coordinate pairs (x_i^A, x_j^A), i < j.

    Returns (residual, witness), the witness naming the pair [i, j] and the
    worst near-point; a one-dimensional base has no pairs and gives
    (0.0, None).  The defect D(f, g) = {f, Xg} - {g, Xf} - X{f, g} equals
    -(L_X pi)(df, dg), so it is A-bilinear and a derivation in each slot:
    D(f, g*h) = g*D(f, h) + h*D(f, g).  It is therefore
    sum_ij d_i f * d_j g * D(x_i^A, x_j^A), and it vanishes exactly
    when its coordinate components do.  Those are sampled unscaled: a unit
    of A times a nonzero element is nonzero, so random invertible scales
    could not change the verdict.
    """
    algebra, n = field.algebra, structure.arity
    coords = [prolong_function(var(i, n), algebra) for i in range(n)]
    moved = [apply_field(field, x) for x in coords]
    derivations = [poisson_derivation(structure, x) for x in coords]
    zero = BundleFunction.zero(algebra, n)
    return zero_test(
        ((_pair_defect(field, derivations[i], derivations[j], moved[i], moved[j],
                       coords[j]), zero, {"pair": [i, j]})
         for i, j in combinations(range(n), 2)),
        samples=samples, rng=rng)


def check_global_witness_poisson(field: BundleVectorField, witness: BundleFunction,
                                 structure: PoissonStructure, *,
                                 samples: int = 32,
                                 rng: np.random.Generator | None = None):
    """Worst residual of the field minus the Poisson derivation of the
    witness, all components sampled as one group (``zero_test``).

    Returns (residual, witness), the witness naming the worst component
    and its worst near-point, or (0.0, None) when there is nothing to
    compare.
    """
    candidate = poisson_derivation(structure, witness)
    if field.arity != candidate.arity:
        raise ArityError("field arity does not match the structure")
    return zero_test(((f, g, {"component": k}) for k, (f, g)
                      in enumerate(zip(field.components, candidate.components))),
                     samples=samples, rng=rng)
