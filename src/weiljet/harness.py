"""Randomized verification suite for the library's structural identities.

Every check names one identity, owns a seeded RNG stream, and reports the
worst residual it saw together with a witness that replays it.  Checks draw
algebras from a small battery of truncated algebras and compare both sides of
each identity at randomly sampled near-points.  A check is written as a
generator of (residual, witness) cases; one runner step keeps the worst.

Mutation mode swaps one private kernel of the library (the Taylor lift of
primitives, the product rule of partials, the Poisson derivation, the
bivector's entries, or the Neumann series of matrix inverses) for an
intentionally wrong variant where it lives, so every path through the
library meets the fault; the suite must catch each built-in mutation with at
least one failing check.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import expression, poisson, symplectic
from .algebra import WeilAlgebra, _product, make_truncated_algebra
from .bundle import (
    DEFAULT_BOX,
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    NearPoint,
    apply_field,
    lie_bracket,
    max_difference,
    prolong_function,
    prolong_vector_field,
    pushforward_map,
    sample_near_points,
)
from .errors import DomainError
from .expression import (
    Const,
    ScalarExpr,
    _Weight,
    add,
    compose,
    const,
    differentiate,
    eval_real,
    eval_weil,
    mul,
    var,
)
from .poisson import (
    PoissonStructure,
    adjoint_differential,
    check_global_witness_poisson,
    is_locally_hamiltonian_poisson,
    poisson_derivation,
    prolonged_adjoint_differential,
    prolonged_bracket,
)
from .sampling import (
    DEFAULT_SEED,
    random_base_field,
    random_base_form,
    random_bundle_function,
    random_expression,
    random_polynomial,
    sample_element,
)
from .symplectic import (
    BaseForm,
    SymplecticStructure,
    _matrix_product,
    base_hamiltonian_field,
    base_interior_product,
    check_global_witness_symplectic,
    exterior_derivative,
    hamiltonian_field,
    increasing_tuples,
    interior_product,
    inverse_bivector,
    is_locally_hamiltonian_symplectic,
    prolong_form,
    symplectic_bracket,
)

# decision thresholds used inside verdict-agreement checks
_VERDICT_TOL = 1e-8
_OPEN_MARGIN = 1e-3


# -- algebra battery ---------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraSpec:
    """One battery member: a truncated algebra named by a short key."""

    key: str
    width: int
    height: int
    label: str


BATTERY: tuple[AlgebraSpec, ...] = (
    AlgebraSpec("dual", 1, 1, "dual numbers"),
    AlgebraSpec("t3", 1, 2, "one variable, height 2"),
    AlgebraSpec("t4", 1, 3, "one variable, height 3"),
    AlgebraSpec("m2", 2, 1, "two variables, height 1"),
    AlgebraSpec("m3", 2, 2, "two variables, height 2"),
)

_BATTERY_BY_KEY = {spec.key: spec for spec in BATTERY}
ALL_ALGEBRAS = tuple(spec.key for spec in BATTERY)

_ALGEBRA_CACHE: dict[str, WeilAlgebra] = {}


def battery_algebra(key: str) -> WeilAlgebra:
    """The battery algebra for a key, built once and shared."""
    spec = _BATTERY_BY_KEY.get(key)
    if spec is None:
        raise ValueError(f"unknown battery algebra {key!r}; "
                         f"known keys: {', '.join(ALL_ALGEBRAS)}")
    cached = _ALGEBRA_CACHE.get(key)
    if cached is None:
        cached = make_truncated_algebra(spec.width, spec.height)
        _ALGEBRA_CACHE[key] = cached
    return cached


# -- specs and reports ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    """Configuration for one named check.

    ``samples`` is the near-point count per comparison (matrix count for the
    inverse check), ``expressions`` the number of random inputs per slot.
    """

    name: str
    claim: str
    tolerance: float
    samples: int = 32
    expressions: int = 8
    seed: int = DEFAULT_SEED
    algebras: tuple[str, ...] = ALL_ALGEBRAS
    arities: tuple[int, ...] = (1, 2, 3, 4)


class CheckReport:
    """Outcome of one check: verdict, worst residual, and a replay witness."""

    __slots__ = ("name", "passed", "worst_residual", "witness", "elapsed")

    def __init__(self, name: str, passed: bool, worst_residual: float,
                 witness: dict | None, elapsed: float = 0.0):
        self.name = name
        self.passed = bool(passed)
        self.worst_residual = float(worst_residual)
        self.witness = witness
        self.elapsed = float(elapsed)

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "worst_residual": self.worst_residual,
            "witness": self.witness,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    def json_line(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json(include_timing=include_timing),
                          sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"CheckReport({self.name}: {status}, worst={self.worst_residual:.3e})"


# -- mutations -----------------------------------------------------------------------
#
# A mutation is (owner, attribute, wrong): the module or class that owns one
# private kernel, the kernel's name there, and a wrong variant that takes the
# kernel followed by the kernel's own arguments.  ``run_suite`` installs the
# variant in the kernel's place for the length of a run, so every library path
# that reaches the kernel reaches the fault.

def _flipped_derivation(derivation, structure, fn):
    return -derivation(structure, fn)


_CONSTANTS = (Const, _Weight)


def _dropped_branch(product_rule, a, b, da, db):
    # the right factor's branch is lost on products of two nonconstant factors
    if not isinstance(a, _CONSTANTS) and not isinstance(b, _CONSTANTS):
        db = const(0.0, b.arity)
    return product_rule(a, b, da, db)


def _truncated_lift(taylor_lift, fn, algebra, a):
    return taylor_lift(fn, algebra, a, max(algebra.height - 1, 0))


def _unsigned_entry(entry, structure, i, j):
    # pi_ji read as +pi_ij: the lower triangle loses its sign
    return entry(structure, min(i, j), max(i, j))


def _short_series(matrix_inverse, algebra, matrix):
    return matrix_inverse(algebra, matrix, terms=algebra.height)


MUTATIONS: dict[str, tuple[object, str, Callable]] = {
    "tau_sign_flip": (poisson, "_derivation", _flipped_derivation),
    "leibniz_drop": (expression, "_product_rule", _dropped_branch),
    "taylor_truncate": (expression, "_taylor_lift", _truncated_lift),
    "bivector_transpose": (PoissonStructure, "entry", _unsigned_entry),
    "neumann_skip": (symplectic, "_matrix_inverse", _short_series),
}

MUTATION_TARGETS: dict[str, tuple[str, ...]] = {
    "tau_sign_flip": ("tau_calculus", "prop4_prop5_global_witness"),
    "leibniz_drop": ("leibniz_derivation",),
    "taylor_truncate": ("taylor_coefficients", "dual_forward_derivative"),
    "bivector_transpose": ("tau_calculus",),
    "neumann_skip": ("matrix_inverse_neumann",),
}


# -- cases and the runner's shared steps ---------------------------------------------
#
# A check is a generator of (residual, witness) cases; ``_worst_case`` runs one
# and keeps the first case with the largest residual.  Cases are produced
# lazily, so every draw happens at the same place in the check's RNG stream
# as it would in a hand-written loop.  A witness holds its expressions and
# points as nodes and arrays until ``_worst_case`` renders it.

def _worst_case(check: Callable, spec: CheckSpec,
                rng: np.random.Generator) -> tuple[float, dict | None]:
    """The first-seen worst (residual, witness) of a check, as ``worst_case``
    gives it; DomainError as soon as a residual that is not finite is made.
    Only a worst-so-far witness is rendered, and the check resumes without
    any, so no witness keeps a node alive."""
    worst, kept = -1.0, None
    for residual, witness in check(spec, rng):
        residual = float(residual)
        if not math.isfinite(residual):
            raise DomainError(f"{spec.name}: a residual is not finite")
        if residual > worst:
            worst, kept = residual, _rendered(witness)
        witness = None
    return max(worst, 0.0), kept


def _rendered(value):
    """A witness value with its nodes as texts and its arrays and sequences
    as lists."""
    if isinstance(value, dict):
        return {key: _rendered(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rendered(item) for item in value]
    return (value.text if isinstance(value, ScalarExpr)
            else value.tolist() if isinstance(value, np.ndarray) else value)


def _sampled_group(group, spec: CheckSpec,
                   rng: np.random.Generator) -> list[tuple[float, dict]]:
    """One case per (lhs, rhs, witness) of a comparison group, in order: the
    worst |lhs - rhs| on the member's own sampled points, with its point
    added to the witness.  The group draws the points of drawing member
    after member in one batch (``max_difference``), so the members share
    the work on the nodes they have in common."""
    results = max_difference([(lhs, rhs) for lhs, rhs, _ in group],
                             samples=spec.samples, rng=rng)
    return [(residual, {**witness, "point": point.coeffs})
            for (_, _, witness), (residual, point) in zip(group, results)]


def _sampled(lhs: BundleFunction, rhs: BundleFunction, spec: CheckSpec,
             rng: np.random.Generator, **witness) -> tuple[float, dict]:
    """One case: the worst sampled |lhs - rhs|, with its point in the witness."""
    [case] = _sampled_group([(lhs, rhs, witness)], spec, rng)
    return case


def _componentwise(fields, spec: CheckSpec, rng: np.random.Generator,
                   **witness) -> list[tuple[float, dict]]:
    """One sampled case per component of each (lhs field, rhs field, extra
    witness), all of them one comparison group."""
    return _sampled_group(
        [(lhs, rhs, {**witness, **extra, "component": i})
         for lhs_field, rhs_field, extra in fields
         for i, (lhs, rhs) in enumerate(zip(lhs_field.components,
                                            rhs_field.components))],
        spec, rng)


def _derivation_sides(apply: Callable, field, bracket: Callable,
                      phi: BundleFunction, psi: BundleFunction):
    """Both sides of field(phi . psi) = field(phi) . psi + phi . field(psi)."""
    lhs = apply(field, bracket(phi, psi))
    rhs = bracket(apply(field, phi), psi) + bracket(phi, apply(field, psi))
    return lhs, rhs


def _spec_algebras(spec: CheckSpec):
    """(key, algebra) for each battery algebra the spec names."""
    return ((key, battery_algebra(key)) for key in spec.algebras)


def _poisson_cases(spec: CheckSpec):
    """Each spec algebra against both Poisson structures, with the witness
    context naming the pair."""
    for key, algebra in _spec_algebras(spec):
        for sname, structure in (("canonical2", PoissonStructure.canonical(2)),
                                 ("rotational3", PoissonStructure.rotational())):
            yield {"algebra": key, "structure": sname}, algebra, structure


def _lifted_pair(n: int, algebra: WeilAlgebra, rng: np.random.Generator):
    """Two prolonged random polynomials of degree at most 2."""
    return [prolong_function(random_polynomial(n, rng, max_degree=2), algebra)
            for _ in range(2)]


def _worst_real(exprs, points: np.ndarray) -> float:
    """Largest |expr(x)| over base expressions and probe points."""
    return max((abs(eval_real(expr, x.tolist())) for expr in exprs for x in points),
               default=0.0)


def _base_poisson_defect(theta: BaseVectorField, structure: PoissonStructure,
                         points: np.ndarray) -> float:
    """Worst sampled residual of the base bracket-compatibility defect on
    the coordinate pairs."""
    defect = adjoint_differential(theta, structure)
    pairs = itertools.combinations([var(i, structure.arity)
                                    for i in range(structure.arity)], 2)
    return _worst_real((defect(f, g) for f, g in pairs), points)


def _base_symplectic_defect(theta: BaseVectorField, structure: SymplecticStructure,
                            points: np.ndarray) -> float:
    """Worst sampled coefficient of d(i_theta Omega) on the base."""
    closed = exterior_derivative(base_interior_product(theta, structure.form))
    return _worst_real(closed.coeffs.values(), points)


def _verdict_agreement(spec: CheckSpec, rng: np.random.Generator, structures,
                       potential_field: Callable, base_defect: Callable,
                       lifted_test: Callable):
    """One case counting the disagreements of base and lifted local verdicts.

    Per structure, closed fields come from random potentials and open fields
    from a search of up to 50 random fields for a visible base defect; every
    field is then decided over each spec algebra.  The witness is the last
    disagreement, or the case count when there is none.
    """
    disagreements, total, witness = 0, 0, None
    for where, structure in structures:
        n = structure.arity
        probe = rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1], size=(4, n))
        cases: list[tuple[str, BaseVectorField, float]] = []
        for _ in range(spec.expressions):
            theta = potential_field(random_polynomial(n, rng, max_degree=2),
                                    structure)
            cases.append(("closed", theta, base_defect(theta, structure, probe)))
        for _ in range(spec.expressions):
            theta, defect = None, 0.0
            for _ in range(50):
                candidate = random_base_field(n, rng, max_degree=2)
                value = base_defect(candidate, structure, probe)
                if value > defect:
                    theta, defect = candidate, value
                if defect > _OPEN_MARGIN:
                    break
            cases.append(("open", theta, defect))
        for key, algebra in _spec_algebras(spec):
            for kind, theta, defect in cases:
                total += 1
                base_verdict = defect <= _VERDICT_TOL
                lifted_verdict = lifted_test(
                    prolong_vector_field(theta, algebra), structure,
                    samples=spec.samples, tol=_VERDICT_TOL, rng=rng)
                if lifted_verdict != base_verdict:
                    disagreements += 1
                    witness = {
                        **where, "algebra": key, "kind": kind,
                        "theta": _rendered(theta.components),
                        "base_defect": float(defect),
                        "base_verdict": base_verdict,
                        "lifted_verdict": lifted_verdict,
                    }
    yield float(disagreements), witness or {"cases": total, "disagreements": 0}


# -- checks -----------------------------------------------------------------------

# callable(spec, rng) runs the whole check and returns (residual, witness)
_REGISTRY: dict[str, tuple[Callable, CheckSpec]] = {}


def _check(spec: CheckSpec) -> Callable:
    """Register a case generator as the check named by its spec."""
    def register(cases: Callable) -> Callable:
        _REGISTRY[spec.name] = (functools.partial(_worst_case, cases), spec)
        return cases
    return register


@_check(CheckSpec("morphism_function_lift",
                  "sums, scalar multiples, and products lift through prolongation",
                  1e-9, samples=32, expressions=8))
def _check_morphism_function_lift(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        for n in itertools.islice(itertools.cycle(spec.arities), spec.expressions):
            f = random_expression(n, rng)
            g = random_expression(n, rng)
            lam = round(float(rng.uniform(-2.0, 2.0)), 3)
            cases = (
                ("sum", add(f, g), lambda fv, gv: fv + gv),
                ("scale", mul(const(lam, n), f), lambda fv, gv: fv * lam),
                ("product", mul(f, g), lambda fv, gv: _product(algebra, fv, gv)),
            )
            # f, g and each combination evaluate separately: a shared cache
            # would check f + g against its own cached summands
            xi = sample_near_points(algebra, n, rng, spec.samples)
            fv = eval_weil(f, xi)
            gv = eval_weil(g, xi)
            residuals = [(label, np.max(np.abs(eval_weil(combined, xi)
                                               - expected(fv, gv)), axis=-1))
                         for label, combined, expected in cases]
            for s in range(spec.samples):
                for label, residual in residuals:
                    yield float(residual[s]), {
                        "algebra": key, "identity": label, "f": f, "g": g,
                        "scalar": lam, "point": xi.coeffs[s],
                    }


@_check(CheckSpec("dual_forward_derivative",
                  "dual-number nilpotent parts recover first derivatives, checked "
                  "against symbolic and central finite differences",
                  1e-6, samples=4, expressions=20, algebras=("dual",)))
def _check_dual_forward_derivative(spec: CheckSpec, rng: np.random.Generator):
    algebra = battery_algebra("dual")
    step = 1e-5
    for n in itertools.islice(itertools.cycle(spec.arities), spec.expressions):
        f = random_expression(n, rng)
        grads = [differentiate(f, d) for d in range(n)]
        xs = [rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1], size=n)
              for _ in range(spec.samples)]
        # one batch of every sample along every direction: point (s, d) is
        # x_s with a unit nilpotent part on coordinate d
        batch = np.zeros((spec.samples, n, n, algebra.dim))
        batch[..., 0] = np.reshape(xs, (spec.samples, 1, n))
        batch[..., 1] = np.eye(n)
        slopes = eval_weil(f, NearPoint.from_coeffs(algebra, batch))[..., 1].tolist()
        for x, sample_slopes in zip(xs, slopes):
            base = x.tolist()
            for d, slope in enumerate(sample_slopes):
                exact = eval_real(grads[d], base)
                bumped = list(base)
                bumped[d] = base[d] + step
                upper = eval_real(f, bumped)
                bumped[d] = base[d] - step
                lower = eval_real(f, bumped)
                fd = (upper - lower) / (2.0 * step)
                residual = max(abs(slope - fd) / max(1.0, abs(fd)),
                               abs(slope - exact) / max(1.0, abs(exact)))
                yield residual, {
                    "f": f, "direction": d, "x": base,
                    "slope": slope, "finite_difference": float(fd),
                }


@_check(CheckSpec("taylor_coefficients",
                  "single-variable jets carry k-th derivatives over k! as "
                  "coefficients",
                  1e-7, samples=4, expressions=8,
                  algebras=("dual", "t3", "t4"), arities=(1,)))
def _check_taylor_coefficients(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        if _BATTERY_BY_KEY[key].width != 1:
            continue
        height = algebra.height
        for _ in range(spec.expressions):
            f = random_expression(1, rng)
            derivs = [f]
            for _ in range(height):
                derivs.append(differentiate(derivs[-1], 0))
            for _ in range(spec.samples):
                x = float(rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1]))
                jet = eval_weil(f, NearPoint([algebra.from_real(x)
                                              + algebra.basis_element(1)]))
                factorial = 1.0
                for k in range(height + 1):
                    if k:
                        factorial *= k
                    expected = eval_real(derivs[k], [x]) / factorial
                    yield abs(float(jet[k]) - expected), {
                        "algebra": key, "f": f, "x": x, "order": k,
                        "coefficient": float(jet[k]),
                        "expected": float(expected),
                    }


@_check(CheckSpec("lie_morphism_fields",
                  "field prolongation preserves brackets, function scaling, and "
                  "sums",
                  1e-8, samples=6, expressions=8, arities=(1, 2, 3)))
def _check_lie_morphism_fields(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        for n in itertools.islice(itertools.cycle(spec.arities), spec.expressions):
            theta1 = random_base_field(n, rng)
            theta2 = random_base_field(n, rng)
            f = random_polynomial(n, rng, max_degree=2)
            lifted1 = prolong_vector_field(theta1, algebra)
            lifted2 = prolong_vector_field(theta2, algebra)
            scaled_base = BaseVectorField(
                [mul(f, c) for c in theta1.components])
            summed_base = BaseVectorField(
                [add(a, b) for a, b in zip(theta1.components, theta2.components)])
            cases = (
                ("bracket", prolong_vector_field(theta1.bracket(theta2), algebra),
                 lie_bracket(lifted1, lifted2)),
                ("scaling", prolong_vector_field(scaled_base, algebra),
                 lifted1.scaled(prolong_function(f, algebra))),
                ("sum", prolong_vector_field(summed_base, algebra),
                 lifted1 + lifted2),
            )
            yield from _componentwise(
                [(lhs, rhs, {"identity": label}) for label, lhs, rhs in cases],
                spec, rng, algebra=key, theta1=theta1.components,
                theta2=theta2.components, factor=f)


@_check(CheckSpec("functoriality_composition",
                  "composition with a polynomial map lifts through the "
                  "pushforward of near-points",
                  1e-9, samples=8, expressions=8, arities=(2,)))
def _check_functoriality_composition(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        for _ in range(spec.expressions):
            smooth_map = [random_polynomial(2, rng, max_degree=2, max_terms=3)
                          for _ in range(2)]
            g = random_expression(2, rng)
            composed = compose(g, smooth_map)
            xi = sample_near_points(algebra, 2, rng, spec.samples)
            eta = pushforward_map(smooth_map, xi)
            residuals = np.max(np.abs(eval_weil(composed, xi) - eval_weil(g, eta)),
                               axis=-1)
            for s in range(spec.samples):
                yield float(residuals[s]), {
                    "algebra": key, "map": smooth_map, "g": g,
                    "point": xi.coeffs[s],
                }


@_check(CheckSpec("prop1_cochain_prolongation",
                  "the adjoint differential of a lifted 1-cochain is the lifted "
                  "base defect",
                  1e-8, samples=6, expressions=4))
def _check_prop1_cochain_prolongation(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        for _ in range(spec.expressions):
            eta = random_base_field(n, rng, max_degree=2)
            base_defect = adjoint_differential(eta, structure)
            lifted_defect = prolonged_adjoint_differential(
                prolong_vector_field(eta, algebra), structure)
            for _ in range(6):
                f = random_polynomial(n, rng, max_degree=2)
                g = random_polynomial(n, rng, max_degree=2)
                lhs = lifted_defect(prolong_function(f, algebra),
                                    prolong_function(g, algebra))
                rhs = prolong_function(base_defect(f, g), algebra)
                yield _sampled(lhs, rhs, spec, rng, **where,
                               eta=eta.components, f=f, g=g)


@_check(CheckSpec("prop2_local_iff",
                  "base and lifted local-hamiltonicity verdicts agree (residual "
                  "counts disagreements)",
                  0.5, samples=4, expressions=6, arities=(3,)))
def _check_prop2_local_iff(spec: CheckSpec, rng: np.random.Generator):
    return _verdict_agreement(
        spec, rng, [({}, PoissonStructure.rotational())],
        lambda f, structure: structure.ad(f), _base_poisson_defect,
        is_locally_hamiltonian_poisson)


@_check(CheckSpec("prop3_bracket_derivation",
                  "locally hamiltonian fields derive the prolonged Poisson "
                  "bracket",
                  1e-8, samples=4, expressions=10))
def _check_prop3_bracket_derivation(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        chi = random_polynomial(n, rng, max_degree=3)
        derivation = poisson_derivation(structure, prolong_function(chi, algebra))
        if not is_locally_hamiltonian_poisson(derivation, structure, samples=spec.samples,
                                              tol=_VERDICT_TOL, rng=rng):
            yield 1.0, {**where, "chi": chi,
                        "reason": "premise field failed the local test"}
            continue
        for _ in range(spec.expressions):
            lhs, rhs = _derivation_sides(apply_field, derivation,
                                         functools.partial(prolonged_bracket, structure),
                                         *_lifted_pair(n, algebra, rng))
            yield _sampled(lhs, rhs, spec, rng, **where, chi=chi)


@_check(CheckSpec("prop4_prop5_global_witness",
                  "hamiltonian fields prolong to the Poisson derivation of the "
                  "lifted potential, as fields and on brackets",
                  1e-8, samples=6, expressions=10))
def _check_prop4_prop5_global_witness(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        f = random_polynomial(n, rng, max_degree=3)
        lifted_potential = prolong_function(f, algebra)
        lifted_field = prolong_vector_field(structure.ad(f), algebra)
        derivation = poisson_derivation(structure, lifted_potential)
        yield from _componentwise([(lifted_field, derivation, {})], spec, rng,
                                  **where, part="field", f=f)
        for _ in range(spec.expressions):
            psi = random_bundle_function(algebra, n, rng)
            yield _sampled(apply_field(lifted_field, psi),
                           apply_field(derivation, psi), spec, rng, **where,
                           part="bracket", f=f)
        if not check_global_witness_poisson(
                lifted_field, lifted_potential, structure,
                samples=spec.samples, tol=_VERDICT_TOL, rng=rng):
            yield 1.0, {**where, "part": "witness", "f": f}


@_check(CheckSpec("prop6_interior_prolongation",
                  "interior products commute with prolongation in degrees 1 and 2",
                  1e-8, samples=6, expressions=4, arities=(3,)))
def _check_prop6_interior_prolongation(spec: CheckSpec, rng: np.random.Generator):
    n = spec.arities[0]
    for key, algebra in _spec_algebras(spec):
        for degree in (1, 2):
            for _ in range(spec.expressions):
                theta = random_base_field(n, rng, max_degree=2)
                omega = random_base_form(n, degree, rng)
                lhs = prolong_form(base_interior_product(theta, omega), algebra)
                rhs = interior_product(prolong_vector_field(theta, algebra),
                                       prolong_form(omega, algebra))
                for idx in increasing_tuples(n, degree - 1):
                    yield _sampled(lhs.coefficient(idx), rhs.coefficient(idx),
                                   spec, rng, algebra=key, degree=degree,
                                   index=list(idx), theta=theta.components)


@_check(CheckSpec("thm1_bracket_coincidence",
                  "the symplectic bracket equals the inverse-bivector Poisson "
                  "bracket, and hamiltonian fields commute with prolongation",
                  1e-8, samples=4, expressions=5, arities=(2, 4)))
def _check_thm1_bracket_coincidence(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        for n in spec.arities:
            structure = SymplecticStructure.canonical(n)
            bivector = inverse_bivector(structure)
            for _ in range(spec.expressions):
                phi = random_bundle_function(algebra, n, rng)
                psi = random_bundle_function(algebra, n, rng)
                lhs = symplectic_bracket(phi, psi, structure)
                rhs = apply_field(poisson_derivation(bivector, phi), psi)
                yield _sampled(lhs, rhs, spec, rng, algebra=key, arity=n,
                               part="bracket")
            f = random_polynomial(n, rng, max_degree=3)
            solved = hamiltonian_field(prolong_function(f, algebra), structure)
            lifted = prolong_vector_field(base_hamiltonian_field(f, structure),
                                          algebra)
            yield from _componentwise([(solved, lifted, {})], spec, rng,
                                      algebra=key, arity=n, part="field",
                                      f=f)


@_check(CheckSpec("thm2_symplectic_derivation",
                  "locally hamiltonian fields derive the prolonged symplectic "
                  "bracket",
                  1e-8, samples=4, expressions=10, arities=(2,)))
def _check_thm2_symplectic_derivation(spec: CheckSpec, rng: np.random.Generator):
    structure = SymplecticStructure.canonical(2)
    bivector = inverse_bivector(structure)
    for key, algebra in _spec_algebras(spec):
        f = random_polynomial(2, rng, max_degree=3)
        lifted_field = prolong_vector_field(base_hamiltonian_field(f, structure),
                                            algebra)
        if not is_locally_hamiltonian_symplectic(
                lifted_field, structure,
                samples=spec.samples, tol=_VERDICT_TOL, rng=rng):
            yield 1.0, {"algebra": key, "f": f,
                        "reason": "premise field failed the local test"}
            continue
        # one anchor pair through the pointwise-solved bracket itself, the
        # remaining pairs through the equivalent inverse-bivector bracket
        solved_bracket = functools.partial(symplectic_bracket, structure=structure)
        bivector_bracket = functools.partial(prolonged_bracket, bivector)
        brackets = ([("solved_bracket", solved_bracket)]
                    + [("bivector_bracket", bivector_bracket)] * spec.expressions)
        for part, bracket in brackets:
            lhs, rhs = _derivation_sides(apply_field, lifted_field, bracket,
                                         *_lifted_pair(2, algebra, rng))
            yield _sampled(lhs, rhs, spec, rng, algebra=key, f=f, part=part)


@_check(CheckSpec("prop7_symplectic_global",
                  "lifted hamiltonian fields certify their lifted potentials "
                  "under the configured sign",
                  1e-8, samples=4, expressions=8, arities=(2,)))
def _check_prop7_symplectic_global(spec: CheckSpec, rng: np.random.Generator):
    structure = SymplecticStructure.canonical(2)
    for key, algebra in _spec_algebras(spec):
        for _ in range(spec.expressions):
            f = random_polynomial(2, rng, max_degree=3)
            lifted_field = prolong_vector_field(
                base_hamiltonian_field(f, structure), algebra)
            verdict = check_global_witness_symplectic(
                lifted_field, prolong_function(f, algebra), structure,
                sigma=1, samples=spec.samples, tol=spec.tolerance, rng=rng)
            residual = verdict.residual if verdict.ok else max(verdict.residual, 1.0)
            yield residual, {"algebra": key, "f": f,
                             "matched_sign": verdict.matched_sign}


@_check(CheckSpec("matrix_inverse_neumann",
                  "nilpotent-series inverses of matrices with well-conditioned "
                  "real part multiply back to the identity",
                  1e-9, samples=50, expressions=0))
def _check_matrix_inverse_neumann(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        matrices = []
        for trial in range(spec.samples):
            size = 2 + (trial % 3)
            while True:
                real = rng.uniform(-2.0, 2.0, size=(size, size))
                if np.linalg.cond(real) < 100.0:
                    break
            matrices.append(np.concatenate(
                (real[..., None], rng.uniform(-1.0, 1.0, (size, size, algebra.dim - 1))),
                axis=-1))
        # each size class inverts as one batch, every matrix to the bits it
        # would get alone; the kernel is read from its module at call time,
        # where a mutation replaces it
        residuals = {}
        for first in range(min(3, spec.samples)):
            trials = range(first, spec.samples, 3)
            stack = np.array([matrices[t] for t in trials])
            product = _matrix_product(
                algebra, stack, symplectic._matrix_inverse(algebra, stack))
            identity = np.eye(2 + first)[:, :, None] * algebra.unit().coeffs
            residuals.update(zip(trials, np.max(np.abs(product - identity),
                                                axis=(1, 2, 3)).tolist()))
        for trial, matrix in enumerate(matrices):
            yield residuals[trial], {"algebra": key, "size": len(matrix),
                                     "matrix": matrix}


@_check(CheckSpec("leibniz_derivation",
                  "prolonged fields satisfy the Leibniz rule on products",
                  1e-9, samples=8, expressions=4, arities=(2,)))
def _check_leibniz_derivation(spec: CheckSpec, rng: np.random.Generator):
    n = spec.arities[0]
    for key, algebra in _spec_algebras(spec):
        for _ in range(spec.expressions):
            theta = random_base_field(n, rng, max_degree=2)
            lifted = prolong_vector_field(theta, algebra)
            phi, psi = _lifted_pair(n, algebra, rng)
            chi = random_bundle_function(algebra, n, rng)
            group = []
            for label, left, right in (("pullbacks", phi, psi),
                                       ("mixed", phi, chi)):
                lhs, rhs = _derivation_sides(apply_field, lifted,
                                             operator.mul, left, right)
                group.append((lhs, rhs, {"algebra": key, "case": label,
                                         "theta": theta.components}))
            yield from _sampled_group(group, spec, rng)


@_check(CheckSpec("tau_calculus",
                  "the Poisson derivation map anchors to base brackets and is "
                  "additive, module-linear, and Leibniz",
                  1e-8, samples=4, expressions=3))
def _check_tau_calculus(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        for _ in range(spec.expressions):
            f = random_polynomial(n, rng, max_degree=2)
            g = random_polynomial(n, rng, max_degree=2)
            anchored = apply_field(
                poisson_derivation(structure, prolong_function(f, algebra)),
                prolong_function(g, algebra))
            yield _sampled(
                anchored, prolong_function(structure.bracket(f, g), algebra),
                spec, rng, **where, identity="base_anchor", f=f, g=g)
            phi = random_bundle_function(algebra, n, rng)
            psi = random_bundle_function(algebra, n, rng)
            scale = sample_element(algebra, rng)
            tau_phi = poisson_derivation(structure, phi)
            tau_psi = poisson_derivation(structure, psi)
            cases = (
                ("additivity", poisson_derivation(structure, phi + psi),
                 tau_phi + tau_psi),
                ("module_linearity", poisson_derivation(structure, phi * scale),
                 tau_phi.scaled(BundleFunction.constant(scale, algebra, n))),
                ("leibniz", poisson_derivation(structure, phi * psi),
                 tau_psi.scaled(phi) + tau_phi.scaled(psi)),
            )
            yield from _componentwise(
                [(lhs, rhs, {"identity": label}) for label, lhs, rhs in cases],
                spec, rng, **where)


@_check(CheckSpec("bracket_prolongation_poisson",
                  "the prolonged bracket restricts to the lifted base bracket "
                  "and is antisymmetric",
                  1e-8, samples=6, expressions=4))
def _check_bracket_prolongation_poisson(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        zero = BundleFunction.zero(algebra, n)
        for _ in range(spec.expressions):
            f = random_polynomial(n, rng, max_degree=2)
            g = random_polynomial(n, rng, max_degree=2)
            lhs = prolonged_bracket(structure, prolong_function(f, algebra),
                                    prolong_function(g, algebra))
            rhs = prolong_function(structure.bracket(f, g), algebra)
            yield _sampled(lhs, rhs, spec, rng, **where,
                           identity="prolongation", f=f, g=g)
            phi = random_bundle_function(algebra, n, rng)
            psi = random_bundle_function(algebra, n, rng)
            skew = (prolonged_bracket(structure, phi, psi)
                    + prolonged_bracket(structure, psi, phi))
            yield _sampled(skew, zero, spec, rng, **where, identity="antisymmetry")


@_check(CheckSpec("poisson_leibniz",
                  "the prolonged bracket is a derivation in its function slots",
                  1e-8, samples=6, expressions=4))
def _check_poisson_leibniz(spec: CheckSpec, rng: np.random.Generator):
    for where, algebra, structure in _poisson_cases(spec):
        n = structure.arity
        for _ in range(spec.expressions):
            phi1, phi2, phi3 = (random_bundle_function(algebra, n, rng)
                                for _ in range(3))
            # {., phi3} is a derivation of products
            lhs, rhs = _derivation_sides(
                lambda third, fn: prolonged_bracket(structure, fn, third), phi3,
                operator.mul, phi1, phi2)
            yield _sampled(lhs, rhs, spec, rng, **where)


@_check(CheckSpec("chain_rule_soundness",
                  "applying a prolonged field matches the lifted directional "
                  "derivative; canonical components reconstruct the field",
                  1e-9, samples=8, expressions=6, arities=(1, 2, 3)))
def _check_chain_rule_soundness(spec: CheckSpec, rng: np.random.Generator):
    for key, algebra in _spec_algebras(spec):
        for n in itertools.islice(itertools.cycle(spec.arities), spec.expressions):
            theta = random_base_field(n, rng)
            f = random_expression(n, rng)
            lifted = prolong_vector_field(theta, algebra)
            lhs = apply_field(lifted, prolong_function(f, algebra))
            rhs = prolong_function(theta.apply_to(f), algebra)
            yield _sampled(lhs, rhs, spec, rng, algebra=key, identity="chain",
                           theta=theta.components, f=f)
            applied = BundleVectorField(
                [apply_field(lifted, prolong_function(var(i, n), algebra))
                 for i in range(n)])
            yield from _componentwise([(applied, lifted, {})], spec, rng,
                                      algebra=key, identity="coordinate",
                                      theta=theta.components)


@_check(CheckSpec("jacobi_field_bracket",
                  "the bracket of prolonged fields is antisymmetric and "
                  "satisfies the Jacobi identity",
                  1e-8, samples=4, expressions=2, arities=(2,)))
def _check_jacobi_field_bracket(spec: CheckSpec, rng: np.random.Generator):
    n = spec.arities[0]
    for key, algebra in _spec_algebras(spec):
        zero = BundleVectorField([BundleFunction.zero(algebra, n)] * n)
        for _ in range(spec.expressions):
            fields = [prolong_vector_field(random_base_field(n, rng, max_degree=2),
                                           algebra) for _ in range(3)]
            x, y, z = fields
            skew = lie_bracket(x, y) + lie_bracket(y, x)
            cyclic = (lie_bracket(lie_bracket(x, y), z)
                      + lie_bracket(lie_bracket(y, z), x)
                      + lie_bracket(lie_bracket(z, x), y))
            for label, combo in (("antisymmetry", skew), ("jacobi", cyclic)):
                yield from _componentwise([(combo, zero, {})], spec, rng,
                                          algebra=key, identity=label)


@_check(CheckSpec("symplectic_local_equivalence",
                  "base and lifted symplectic local tests agree, including a "
                  "curved structure (residual counts disagreements)",
                  0.5, samples=3, expressions=3, arities=(2,)))
def _check_symplectic_local_equivalence(spec: CheckSpec, rng: np.random.Generator):
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    return _verdict_agreement(
        spec, rng, [({"structure": "canonical2"}, SymplecticStructure.canonical(2)),
                    ({"structure": "curved2"}, curved)],
        base_hamiltonian_field, _base_symplectic_defect,
        is_locally_hamiltonian_symplectic)


# -- runner -----------------------------------------------------------------------

CHECK_NAMES = tuple(sorted(_REGISTRY))


def default_specs(*, seed: int = DEFAULT_SEED, name_filter: str | None = None,
                  names: Sequence[str] | None = None,
                  samples: int | None = None) -> list[CheckSpec]:
    """The registered specs, reseeded and optionally filtered or resized."""
    wanted = None if names is None else set(names)
    if wanted is not None:
        unknown = wanted - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check {sorted(unknown)[0]!r}")
    out = []
    for name in CHECK_NAMES:
        if wanted is not None and name not in wanted:
            continue
        if name_filter and name_filter not in name:
            continue
        spec = replace(_REGISTRY[name][1], seed=seed)
        if samples is not None:
            spec = replace(spec, samples=samples)
        out.append(spec)
    return out


def run_suite(specs: Sequence[CheckSpec] | None = None, *,
              mutation: str | None = None) -> list[CheckReport]:
    """Run checks and return their reports sorted by name.

    A residual beyond its tolerance is data: a failing report.  Errors are
    not: a check that cannot compute a residual raises, for instance
    ValueError for specs with fewer than one sample and DomainError for a
    residual that is not finite.  ``mutation`` names an entry of
    ``MUTATIONS``; its wrong variant replaces the kernel on the owning
    module or class for the length of the run, and the kernel is put back
    however the run ends.  The swap is process-wide: the package starts no
    threads, so nothing else runs against the mutated kernel meanwhile.
    """
    if specs is None:
        specs = default_specs()
    with _mutated(mutation):
        reports = []
        for spec in sorted(specs, key=lambda s: s.name):
            entry = _REGISTRY.get(spec.name)
            if entry is None:
                raise ValueError(f"unknown check {spec.name!r}")
            fn = entry[0]
            rng = np.random.default_rng([spec.seed,
                                         zlib.crc32(spec.name.encode("ascii"))])
            start = time.perf_counter()
            residual, witness = fn(spec, rng)
            elapsed = time.perf_counter() - start
            reports.append(CheckReport(spec.name, residual <= spec.tolerance,
                                       residual, witness, elapsed))
    return reports


@contextlib.contextmanager
def _mutated(mutation: str | None):
    """Install the named mutation's wrong variant over its kernel, and put
    the kernel back on the way out."""
    if mutation is None:
        yield
        return
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; "
                         f"known: {', '.join(sorted(MUTATIONS))}")
    owner, attribute, wrong = MUTATIONS[mutation]
    kernel = getattr(owner, attribute)
    # partials kept on live nodes must not cross the boundary either way
    expression._forget_partials()
    setattr(owner, attribute, lambda *args: wrong(kernel, *args))
    try:
        yield
    finally:
        setattr(owner, attribute, kernel)
        expression._forget_partials()


__all__ = [
    "ALL_ALGEBRAS",
    "BATTERY",
    "CHECK_NAMES",
    "MUTATIONS",
    "MUTATION_TARGETS",
    "AlgebraSpec",
    "CheckReport",
    "CheckSpec",
    "battery_algebra",
    "default_specs",
    "run_suite",
]
