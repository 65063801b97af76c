"""Poisson structures, their prolongations, and hamiltonian decision helpers."""

import numpy as np
import pytest

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import (
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    _random_unit_scale,
    apply_field,
    functions_equal,
    max_difference,
    prolong_function,
    prolong_vector_field,
)
from weiljet.errors import ArityError, InvalidPoissonStructure
from weiljet.expression import add, eval_real, parse_expr
from weiljet.poisson import (
    PoissonStructure,
    ProlongedPoisson,
    _closedness_cases,
    adjoint_differential,
    check_global_witness_poisson,
    default_generators,
    is_locally_hamiltonian_poisson,
    poisson_closedness_defect,
    poisson_derivation,
    prolonged_adjoint_differential,
)
from weiljet.sampling import random_expression

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)

CANONICAL = PoissonStructure.canonical(2)
ROTATIONAL = PoissonStructure.rotational()


def _eval_grid(expr, rng, count=6, box=(-2.0, 2.0)):
    return [
        (point, eval_real(expr, point))
        for point in rng.uniform(box[0], box[1], (count, expr.arity))
    ]


def test_canonical_entries_are_antisymmetric():
    assert eval_real(CANONICAL.entry(0, 1), [0.3, 0.7]) == pytest.approx(1.0)
    assert eval_real(CANONICAL.entry(1, 0), [0.3, 0.7]) == pytest.approx(-1.0)
    assert eval_real(CANONICAL.entry(0, 0), [0.3, 0.7]) == pytest.approx(0.0)
    assert set(CANONICAL.upper_entries) == {(0, 1)}


def test_canonical_needs_even_arity():
    with pytest.raises(ArityError):
        PoissonStructure.canonical(3)


def test_rotational_brackets():
    rng = np.random.default_rng(5)
    x0, x1, x2 = (parse_expr(f"x{i}", 3) for i in range(3))
    pairs = [((x0, x1), x2), ((x1, x2), x0), ((x2, x0), x1)]
    for (f, g), want in pairs:
        got = ROTATIONAL.bracket(f, g)
        for point, value in _eval_grid(want, rng):
            assert eval_real(got, point) == pytest.approx(value, abs=1e-12)


def test_jacobi_violation_is_rejected():
    bivector = {(0, 1): "x0", (1, 2): "x1"}
    with pytest.raises(InvalidPoissonStructure):
        PoissonStructure(3, bivector)
    # the same table is accepted when validation is explicitly waived
    PoissonStructure(3, bivector, validate=False)


def test_base_bracket_laws_sampled():
    rng = np.random.default_rng(11)
    for structure in (CANONICAL, ROTATIONAL):
        arity = structure.arity
        f, g, h = (random_expression(arity, rng) for _ in range(3))
        anti = structure.bracket(f, g)
        flip = structure.bracket(g, f)
        jacobi_terms = [
            structure.bracket(f, structure.bracket(g, h)),
            structure.bracket(g, structure.bracket(h, f)),
            structure.bracket(h, structure.bracket(f, g)),
        ]
        for point in rng.uniform(-1.5, 1.5, (5, arity)):
            assert eval_real(anti, point) == pytest.approx(-eval_real(flip, point), abs=1e-8)
            total = sum(eval_real(term, point) for term in jacobi_terms)
            assert total == pytest.approx(0.0, abs=1e-7)


def test_hamiltonian_derivation_of_the_oscillator():
    # {H, x0} = -x1 and {H, x1} = x0 for H = (x0^2 + x1^2)/2
    energy = parse_expr("(x0^2 + x1^2) / 2", 2)
    field = CANONICAL.ad(energy)
    rng = np.random.default_rng(3)
    for point in rng.uniform(-2, 2, (6, 2)):
        assert eval_real(field.components[0], point) == pytest.approx(-point[1])
        assert eval_real(field.components[1], point) == pytest.approx(point[0])


def test_prolonged_bracket_extends_the_base_bracket():
    structure = ProlongedPoisson(CANONICAL, T3)
    rng = np.random.default_rng(17)
    f = random_expression(2, rng)
    g = random_expression(2, rng)
    got = structure.bracket(prolong_function(f, T3), prolong_function(g, T3))
    want = prolong_function(CANONICAL.bracket(f, g), T3)
    assert functions_equal(got, want, samples=8, tol=1e-8, rng=np.random.default_rng(1))


def test_poisson_derivation_matches_the_base_field():
    structure = ProlongedPoisson(CANONICAL, T3)
    energy = parse_expr("(x0^2 + x1^2) / 2", 2)
    field = poisson_derivation(structure, prolong_function(energy, T3))
    want = prolong_vector_field(CANONICAL.ad(energy), T3)
    probe = prolong_function(parse_expr("x0 * x1", 2), T3)
    assert functions_equal(
        apply_field(field, probe),
        apply_field(want, probe),
        samples=8,
        rng=np.random.default_rng(2),
    )


def test_poisson_derivation_requires_representability():
    from weiljet.symplectic import BaseForm, SymplecticStructure, hamiltonian_field

    structure = ProlongedPoisson(CANONICAL, T3)
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    lazy = hamiltonian_field(prolong_function(parse_expr("x0 * x1", 2), T3), curved, T3)
    stray = lazy.components[0]
    assert not stray.is_representable
    with pytest.raises(ValueError):
        poisson_derivation(structure, stray)


def test_adjoint_differential_squares_to_zero():
    h = parse_expr("x0^2 * x1 + cos(x1)", 2)
    defect = adjoint_differential(CANONICAL.ad(h), CANONICAL)(
        parse_expr("x0 + x1^2", 2), parse_expr("x0 * x1", 2))
    rng = np.random.default_rng(3)
    for point in rng.uniform(-2, 2, (6, 2)):
        assert eval_real(defect, point) == pytest.approx(0.0, abs=1e-9)


def test_prolonged_adjoint_differential_commutes_with_prolongation():
    structure = ProlongedPoisson(CANONICAL, DUAL)
    h = parse_expr("x0^2 + x0 * x1", 2)
    lifted_then_d = poisson_derivation(structure, prolong_function(h, DUAL))
    d_then_lifted = prolong_vector_field(CANONICAL.ad(h), DUAL)
    probe = prolong_function(parse_expr("x0 * x1", 2), DUAL)
    assert functions_equal(
        apply_field(lifted_then_d, probe),
        apply_field(d_then_lifted, probe),
        samples=8,
        rng=np.random.default_rng(6),
    )
    # in degree 1 the two differentials agree on prolonged arguments
    eta = BaseVectorField([parse_expr("x0 * x1", 2), parse_expr("x0^2", 2)])
    f, g = parse_expr("x0 + x1^2", 2), parse_expr("sin(x1)", 2)
    lifted = prolonged_adjoint_differential(prolong_vector_field(eta, DUAL), structure)(
        prolong_function(f, DUAL), prolong_function(g, DUAL))
    base = prolong_function(adjoint_differential(eta, CANONICAL)(f, g), DUAL)
    assert functions_equal(lifted, base, samples=8, rng=np.random.default_rng(7))


def test_default_generators_cover_coordinates_and_products():
    gens = default_generators(2)
    assert len(gens) == 2 + 3
    texts = {g.text for g in gens}
    assert "x0" in texts and "x1" in texts


def test_closedness_defect_separates_hamiltonian_fields():
    structure = ProlongedPoisson(CANONICAL, T3)
    energy = parse_expr("(x0^2 + x1^2) / 2", 2)
    good = poisson_derivation(structure, prolong_function(energy, T3))
    assert is_locally_hamiltonian_poisson(good, structure, samples=12, rng=np.random.default_rng(0))
    bad = prolong_vector_field(
        BaseVectorField([parse_expr("x0", 2), parse_expr("0", 2)]), T3
    )
    residual, witness = poisson_closedness_defect(
        bad, structure, samples=12, rng=np.random.default_rng(0)
    )
    assert residual > 1e-3
    assert {"left", "right", "left_scale", "right_scale", "point"} <= set(witness)
    assert not is_locally_hamiltonian_poisson(bad, structure, samples=12, rng=np.random.default_rng(0))


def test_global_witness_for_a_constant_field():
    structure = ProlongedPoisson(CANONICAL, DUAL)
    field = BundleVectorField(
        [BundleFunction.constant(1.0, DUAL, 2), BundleFunction.constant(0.0, DUAL, 2)]
    )
    good = prolong_function(parse_expr("-x1", 2), DUAL)
    wrong = prolong_function(parse_expr("x1", 2), DUAL)
    assert check_global_witness_poisson(field, good, structure, rng=np.random.default_rng(1))
    assert not check_global_witness_poisson(field, wrong, structure, rng=np.random.default_rng(1))


def _ref_closedness_cases(field, structure, gens, samples, rng):
    # the defect of every scaled pair built whole, as the pair form defines it
    algebra, n = structure.algebra, structure.arity
    prolonged = [prolong_function(g, algebra) for g in gens]
    defect = prolonged_adjoint_differential(field, structure)
    zero = BundleFunction.zero(algebra, n)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a = _random_unit_scale(algebra, rng)
            b = _random_unit_scale(algebra, rng)
            residual, point = max_difference(defect(prolonged[i] * a, prolonged[j] * b),
                                             zero, samples=samples, rng=rng)
            yield residual, {
                "left": gens[i].text,
                "right": gens[j].text,
                "left_scale": [float(c) for c in a.coeffs],
                "right_scale": [float(c) for c in b.coeffs],
                "point": [[float(v) for v in c.coeffs] for c in point.coords],
            }


CLOSEDNESS_CASES = {
    "canonical2": (PoissonStructure.canonical(2), "x0^2*x1 + sin(x0) + x1^3"),
    "rotational": (ROTATIONAL, "x0^2 + x1*x2 + cos(x2)"),
    "canonical4": (PoissonStructure.canonical(4), "x0*x2 + x1^2*x3 + sin(x3)"),
}


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "truncated:1,2"])
@pytest.mark.parametrize("name", CLOSEDNESS_CASES)
def test_hoisted_closedness_matches_the_whole_pair_defect(name, algebra):
    base, potential = CLOSEDNESS_CASES[name]
    n = base.arity
    structure = ProlongedPoisson(base, algebra)
    closed = base.ad(parse_expr(potential, n))
    perturbed = BaseVectorField([add(closed.components[0], parse_expr("0.7*x0^2", n)),
                                 *closed.components[1:]])
    gens = default_generators(n)
    for base_field, is_closed in ((closed, True), (perturbed, False)):
        field = prolong_vector_field(base_field, algebra)
        got = list(_closedness_cases(field, structure, gens, 8,
                                     np.random.default_rng(5)))
        ref = list(_ref_closedness_cases(field, structure, gens, 8, np.random.default_rng(5)))
        assert len(got) == len(ref) == len(gens) * (len(gens) - 1) // 2
        for (residual, case), (ref_residual, ref_case) in zip(got, ref):
            assert abs(residual - ref_residual) <= 1e-12 * (1.0 + abs(ref_residual))
            assert {k: case[k] for k in ("left", "right", "left_scale", "right_scale")} == \
                {k: ref_case[k] for k in ("left", "right", "left_scale", "right_scale")}
        worst, witness = poisson_closedness_defect(field, structure, gens, samples=8,
                                                   rng=np.random.default_rng(5))
        ref_worst, ref_witness = max(ref, key=lambda case: case[0])
        assert (worst <= 1e-9) == (ref_worst <= 1e-9) == is_closed
        if not is_closed:
            assert witness == ref_witness
