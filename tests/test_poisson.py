"""Poisson structures, their prolongations, and hamiltonian decision helpers."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from weiljet.algebra import make_truncated_algebra
from weiljet.bundle import (
    BaseVectorField,
    BundleFunction,
    BundleVectorField,
    apply_field,
    max_difference,
    prolong_function,
    prolong_vector_field,
    sample_near_points,
)
from weiljet.errors import ArityError, DomainError, InvalidPoissonStructure
from weiljet.expression import add, eval_real, mul, parse_expr, var
from weiljet.poisson import (
    PoissonStructure,
    adjoint_differential,
    check_global_witness_poisson,
    poisson_closedness_defect,
    poisson_derivation,
    prolonged_adjoint_differential,
    prolonged_bracket,
)
from weiljet.sampling import random_base_field, random_bundle_function, random_expression
from weiljet.symplectic import BaseForm

from one_at_a_time import worst_case

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)

ROTATIONAL = PoissonStructure.rotational()


# Built in each test that uses it, for the reason given in test_symplectic.py:
# a module-level two-dimensional structure would keep its nodes, and the
# partials tests hang on them, alive for the whole session.
def canonical_structure() -> PoissonStructure:
    return PoissonStructure.canonical(2)


def _eval_grid(expr, rng, count=6, box=(-2.0, 2.0)):
    return [
        (point, eval_real(expr, point))
        for point in rng.uniform(box[0], box[1], (count, expr.arity))
    ]


def test_canonical_entries_are_antisymmetric():
    canonical = canonical_structure()
    assert eval_real(canonical.entry(0, 1), [0.3, 0.7]) == pytest.approx(1.0)
    assert eval_real(canonical.entry(1, 0), [0.3, 0.7]) == pytest.approx(-1.0)
    assert eval_real(canonical.entry(0, 0), [0.3, 0.7]) == pytest.approx(0.0)
    assert canonical.entry(0, 1) is parse_expr("1.0", 2)
    four = PoissonStructure.canonical(4)
    assert [(i, j) for i in range(4) for j in range(i + 1, 4)
            if four.entry(i, j) is not parse_expr("0.0", 4)] == [(0, 1), (2, 3)]


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


# An infinite constant in an entry makes some Jacobi terms infinite and their
# sums NaN or infinite; a defect that is not finite at a sampled point is a
# domain error, not a pass.
@pytest.mark.parametrize("arity, bivector", [
    (3, {(0, 2): "1/x0", (1, 0): "1e308*10*x0"}),
    (5, {(0, 3): "-1e308*10", (1, 4): "-2", (2, 1): "1e308*10*x0"}),
    (5, {(0, 1): "1e308*10*x2"}),
    (5, {(1, 3): "x1 - x0", (0, 2): "1e308*10*x2*x1 + x0"}),
])
def test_jacobi_refuses_infinite_entries_as_domain_errors(arity, bivector):
    with pytest.raises(DomainError) as caught:
        PoissonStructure(arity, bivector)
    assert str(caught.value) == "a sampled residual is not finite"


def test_base_bracket_laws_sampled():
    rng = np.random.default_rng(11)
    for structure in (canonical_structure(), ROTATIONAL):
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
    field = canonical_structure().ad(energy)
    rng = np.random.default_rng(3)
    for point in rng.uniform(-2, 2, (6, 2)):
        assert eval_real(field.components[0], point) == pytest.approx(-point[1])
        assert eval_real(field.components[1], point) == pytest.approx(point[0])


def test_prolonged_bracket_extends_the_base_bracket():
    structure = canonical_structure()
    rng = np.random.default_rng(17)
    f = random_expression(2, rng)
    g = random_expression(2, rng)
    got = prolonged_bracket(structure, prolong_function(f, T3), prolong_function(g, T3))
    want = prolong_function(canonical_structure().bracket(f, g), T3)
    [(residual, _)] = max_difference([(got, want)], samples=8, rng=np.random.default_rng(1))
    assert residual <= 1e-8


def test_poisson_derivation_matches_the_base_field():
    structure = canonical_structure()
    energy = parse_expr("(x0^2 + x1^2) / 2", 2)
    field = poisson_derivation(structure, prolong_function(energy, T3))
    want = prolong_vector_field(canonical_structure().ad(energy), T3)
    probe = prolong_function(parse_expr("x0 * x1", 2), T3)
    [(residual, _)] = max_difference(
        [(apply_field(field, probe), apply_field(want, probe))],
        samples=8,
        rng=np.random.default_rng(2),
    )
    assert residual <= 1e-9


def test_poisson_derivation_accepts_solved_functions():
    from weiljet.symplectic import SymplecticStructure, hamiltonian_field

    structure = canonical_structure()
    curved = SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))
    solved = hamiltonian_field(prolong_function(parse_expr("x0 * x1", 2), T3), curved)
    stray = solved.components[0] * prolong_function(parse_expr("x0 + x1^2", 2), T3)
    probe = prolong_function(parse_expr("sin(x0) * x1", 2), T3)
    # {s, g} = -{g, s}, where the right side applies the prolonged base
    # hamiltonian field of g to the solved function
    forward = apply_field(poisson_derivation(structure, stray), probe)
    backward = apply_field(poisson_derivation(structure, probe), stray)
    zero = BundleFunction.zero(T3, 2)
    [(residual, _)] = max_difference([(forward + backward, zero)], samples=8,
                                     rng=np.random.default_rng(3))
    assert residual < 1e-9
    [(residual, _)] = max_difference([(forward, zero)], samples=8,
                                     rng=np.random.default_rng(3))
    assert residual > 1e-3
    with pytest.raises(ArityError):
        poisson_derivation(ROTATIONAL, stray)


@pytest.mark.parametrize("read", [
    lambda value: PoissonStructure(2, {(0, 1): value}),
    lambda value: BaseForm(2, 2, {(0, 1): value}),
], ids=["bivector_entry", "form_coefficient"])
def test_entry_coercion_rejects_lists_and_foreign_arities(read):
    assert read("1 + x0^2") is not None and read(2) is not None
    with pytest.raises(TypeError):
        read([1.0])
    with pytest.raises(ArityError):
        read(parse_expr("x0 * x2", 3))


def test_adjoint_differential_squares_to_zero():
    h = parse_expr("x0^2 * x1 + cos(x1)", 2)
    canonical = canonical_structure()
    defect = adjoint_differential(canonical.ad(h), canonical)(
        parse_expr("x0 + x1^2", 2), parse_expr("x0 * x1", 2))
    rng = np.random.default_rng(3)
    for point in rng.uniform(-2, 2, (6, 2)):
        assert eval_real(defect, point) == pytest.approx(0.0, abs=1e-9)


def test_prolonged_adjoint_differential_commutes_with_prolongation():
    structure = canonical_structure()
    h = parse_expr("x0^2 + x0 * x1", 2)
    lifted_then_d = poisson_derivation(structure, prolong_function(h, DUAL))
    d_then_lifted = prolong_vector_field(canonical_structure().ad(h), DUAL)
    probe = prolong_function(parse_expr("x0 * x1", 2), DUAL)
    [(residual, _)] = max_difference(
        [(apply_field(lifted_then_d, probe), apply_field(d_then_lifted, probe))],
        samples=8,
        rng=np.random.default_rng(6),
    )
    assert residual <= 1e-9
    # in degree 1 the two differentials agree on prolonged arguments
    eta = BaseVectorField([parse_expr("x0 * x1", 2), parse_expr("x0^2", 2)])
    f, g = parse_expr("x0 + x1^2", 2), parse_expr("sin(x1)", 2)
    lifted = prolonged_adjoint_differential(prolong_vector_field(eta, DUAL), structure)(
        prolong_function(f, DUAL), prolong_function(g, DUAL))
    base = prolong_function(adjoint_differential(eta, canonical_structure())(f, g), DUAL)
    [(residual, _)] = max_difference([(lifted, base)], samples=8, rng=np.random.default_rng(7))
    assert residual <= 1e-9


@pytest.mark.parametrize("make, pairs", [
    (canonical_structure, [[0, 1]]),
    (PoissonStructure.rotational, [[0, 1], [0, 2], [1, 2]]),
    (lambda: PoissonStructure.canonical(4),
     [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
], ids=["canonical2", "rotational", "canonical4"])
def test_closedness_samples_each_coordinate_pair_once(make, pairs):
    structure = make()
    n = structure.arity
    field = prolong_vector_field(BaseVectorField([parse_expr(f"x{i}^2", n)
                                                  for i in range(n)]), DUAL)
    rng, drawn = np.random.default_rng(0), np.random.default_rng(0)
    _, witness = poisson_closedness_defect(field, structure, samples=4, rng=rng)
    # the pairs' points, in pair order, and nothing more
    sample_near_points(DUAL, n, drawn, 4 * len(pairs))
    assert rng.bit_generator.state == drawn.bit_generator.state
    assert set(witness) == {"pair", "point"} and len(witness["point"]) == n
    assert witness["pair"] in pairs


def test_closedness_defect_separates_hamiltonian_fields():
    structure = canonical_structure()
    energy = parse_expr("(x0^2 + x1^2) / 2", 2)
    good = poisson_derivation(structure, prolong_function(energy, T3))
    residual, _ = poisson_closedness_defect(good, structure, samples=12,
                                            rng=np.random.default_rng(0))
    assert residual <= 1e-9
    bad = prolong_vector_field(
        BaseVectorField([parse_expr("x0", 2), parse_expr("0", 2)]), T3
    )
    residual, witness = poisson_closedness_defect(
        bad, structure, samples=12, rng=np.random.default_rng(0)
    )
    assert residual > 1e-3
    assert set(witness) == {"pair", "point"}
    assert witness["pair"] == [0, 1]


def test_a_one_dimensional_base_has_no_pairs_and_draws_no_point():
    structure = PoissonStructure(1, {})
    field = prolong_vector_field(BaseVectorField([parse_expr("x0", 1)]), DUAL)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert poisson_closedness_defect(field, structure, rng=rng) == (0.0, None)
    assert rng.bit_generator.state == before


def test_global_witness_for_a_constant_field():
    structure = canonical_structure()
    field = BundleVectorField(
        [BundleFunction.constant(1.0, DUAL, 2), BundleFunction.constant(0.0, DUAL, 2)]
    )
    good = prolong_function(parse_expr("-x1", 2), DUAL)
    wrong = prolong_function(parse_expr("x1", 2), DUAL)
    residual, _ = check_global_witness_poisson(field, good, structure,
                                               rng=np.random.default_rng(1))
    assert residual <= 1e-9
    residual, witness = check_global_witness_poisson(field, wrong, structure,
                                                     rng=np.random.default_rng(1))
    assert residual > 1e-9
    assert set(witness) == {"component", "point"} and len(witness["point"]) == 2


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "t3"])
@pytest.mark.parametrize("make", [canonical_structure, PoissonStructure.rotational,
                                  lambda: CURVED4], ids=["canonical2", "rotational", "curved4"])
def test_a_passing_witness_draws_as_its_components_one_after_another(make, algebra):
    structure = make()
    n = structure.arity
    potential = prolong_function(parse_expr("x0 * x1 + sin(x0) * x1^2", n), algebra)
    field = poisson_derivation(structure, potential)
    rng, single = np.random.default_rng(12), np.random.default_rng(12)
    assert check_global_witness_poisson(field, potential, structure, samples=6,
                                        rng=rng)[0] <= 1e-9
    for _ in range(n):
        sample_near_points(algebra, n, single, 6)
    assert rng.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("wrong", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("make", [canonical_structure, PoissonStructure.rotational],
                         ids=["canonical2", "rotational"])
def test_a_witness_failing_in_one_component_is_refused(make, wrong):
    structure = make()
    n = structure.arity
    potential = prolong_function(parse_expr("x0^2 * x1 + cos(x1)", n), DUAL)
    components = list(poisson_derivation(structure, potential).components)
    components[wrong] = components[wrong] + BundleFunction.constant(0.5, DUAL, n)
    field = BundleVectorField(components)
    residual, witness = check_global_witness_poisson(field, potential, structure,
                                                     samples=4, rng=np.random.default_rng(3))
    assert residual > 1e-9
    assert witness["component"] == range(n)[wrong]


def _ref_closedness_cases(field, structure, samples, rng):
    # the defect of every coordinate pair built whole and unscaled, as the
    # pair form defines it
    algebra, n = field.algebra, structure.arity
    coords = [prolong_function(var(i, n), algebra) for i in range(n)]
    defect = prolonged_adjoint_differential(field, structure)
    zero = BundleFunction.zero(algebra, n)
    for i, j in itertools.combinations(range(n), 2):
        [(residual, point)] = max_difference([(defect(coords[i], coords[j]), zero)],
                                             samples=samples, rng=rng)
        yield residual, {
            "pair": [i, j],
            "point": point.coeffs.tolist(),
        }


CLOSEDNESS_CASES = {
    "canonical2": (canonical_structure, "x0^2*x1 + sin(x0) + x1^3"),
    "rotational": (PoissonStructure.rotational, "x0^2 + x1*x2 + cos(x2)"),
    "canonical4": (lambda: PoissonStructure.canonical(4), "x0*x2 + x1^2*x3 + sin(x3)"),
}


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "truncated:1,2"])
@pytest.mark.parametrize("name", CLOSEDNESS_CASES)
def test_hoisted_closedness_matches_the_whole_pair_defect(name, algebra):
    make, potential = CLOSEDNESS_CASES[name]
    structure = make()
    n = structure.arity
    closed = structure.ad(parse_expr(potential, n))
    perturbed = BaseVectorField([add(closed.components[0], parse_expr("0.7*x0^2", n)),
                                 *closed.components[1:]])
    for base_field, is_closed in ((closed, True), (perturbed, False)):
        field = prolong_vector_field(base_field, algebra)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        worst, witness = poisson_closedness_defect(field, structure, samples=8, rng=rng)
        ref_worst, ref_witness = worst_case(
            _ref_closedness_cases(field, structure, 8, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(worst - ref_worst) <= 1e-12 * (1.0 + abs(ref_worst))
        assert (worst <= 1e-9) == (ref_worst <= 1e-9) == is_closed
        if not is_closed:
            assert witness == ref_witness


CURVED4 = PoissonStructure(4, {(0, 1): "1 + x0^2 + x1^2", (2, 3): "2 + x2*x3"})


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "t3"])
@pytest.mark.parametrize("base", [PoissonStructure.canonical(4), CURVED4],
                         ids=["canonical4", "curved4"])
def test_closedness_names_the_open_pair_in_four_dimensions(base, algebra):
    potential = prolong_function(parse_expr("x0 * x3 + x1^2 * x2", 4), algebra)
    closed = poisson_derivation(base, potential)
    assert poisson_closedness_defect(closed, base, samples=8)[0] <= 1e-9
    # x1 d1 moves only pi_01 and x3 d3 only pi_23; on the flat structure
    # x2 d1 carries pi_23 onto the cross pair (1, 3)
    opens = [(["0", "x1", "0", "0"], [0, 1]), (["0", "0", "0", "x3"], [2, 3])]
    if base is not CURVED4:
        opens.append((["0", "x2", "0", "0"], [1, 3]))
    for components, pair in opens:
        field = prolong_vector_field(
            BaseVectorField([parse_expr(c, 4) for c in components]), algebra)
        residual, witness = poisson_closedness_defect(field, base, samples=8)
        assert residual > 1e-3
        assert witness["pair"] == pair


def test_the_pair_defect_is_a_biderivation():
    # D(f, g*h) = g*D(f, h) + h*D(f, g) for a field that is not closed: the
    # identity that lets coordinate pairs decide closedness
    algebra = make_truncated_algebra(2, 2)
    rng = np.random.default_rng(21)
    field = prolong_vector_field(random_base_field(3, rng), algebra)
    f, g, h = (random_bundle_function(algebra, 3, rng) for _ in range(3))
    defect = prolonged_adjoint_differential(field, ROTATIONAL)
    [(size, _)] = max_difference([(defect(f, g), BundleFunction.zero(algebra, 3))],
                                 samples=6, rng=np.random.default_rng(1))
    assert size > 1e-3
    [(residual, _)] = max_difference(
        [(defect(f, g * h), g * defect(f, h) + h * defect(f, g))],
        samples=6, rng=np.random.default_rng(2))
    assert residual <= 1e-10 * (1.0 + size)


def _coordinates_and_products(n):
    # the generator list closedness was once sampled on
    coords = [var(i, n) for i in range(n)]
    return coords + [mul(coords[i], coords[j]) for i in range(n) for j in range(i, n)]


def _brute_force_closed(field, structure, samples, rng):
    algebra, n = field.algebra, structure.arity
    gens = [prolong_function(g, algebra) for g in _coordinates_and_products(n)]
    defect = prolonged_adjoint_differential(field, structure)
    zero = BundleFunction.zero(algebra, n)
    return all(max_difference([(defect(f, g), zero)], samples=samples, rng=rng)[0][0]
               <= 1e-9 for f, g in itertools.combinations(gens, 2))


def _battery_fields(structure, algebra, rng):
    """Four each of closed fields (Poisson derivations of random A-valued
    functions), prolonged random fields, and closed fields plus a nilpotent
    multiple of a random field, tagged by kind."""
    n = structure.arity
    nilpotent = algebra.element([0.0, *[1.0] * (algebra.dim - 1)])
    for _ in range(4):
        closed = poisson_derivation(structure, random_bundle_function(algebra, n, rng))
        yield "closed", closed
        yield "prolonged", prolong_vector_field(random_base_field(n, rng), algebra)
        drift = prolong_vector_field(random_base_field(n, rng), algebra)
        yield "nilpotent", closed + drift.scaled(nilpotent)


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "truncated:1,2"])
def test_coordinate_pairs_agree_with_the_brute_force_verdict(algebra):
    rng = np.random.default_rng(8)
    verdicts = {"closed": [], "prolonged": [], "nilpotent": []}
    for structure in (canonical_structure(), ROTATIONAL, PoissonStructure.canonical(4)):
        for kind, field in _battery_fields(structure, algebra, rng):
            residual, _ = poisson_closedness_defect(field, structure, samples=4,
                                                    rng=np.random.default_rng(0))
            local = residual <= 1e-9
            assert local == _brute_force_closed(field, structure, 4,
                                                np.random.default_rng(0)), (structure, kind)
            verdicts[kind].append(local)
    # both verdicts are exercised: a random drift is rarely closed (a
    # divergence-free one on canonical:2 is), a Poisson derivation always is
    assert all(verdicts["closed"])
    for kind in ("prolonged", "nilpotent"):
        assert sum(verdicts[kind]) <= len(verdicts[kind]) // 4, kind


def test_hamiltonian_fields_keep_no_expression_alive():
    refs = []
    for k in range(1000):
        f = parse_expr(f"{k}.5 * x0 * x1 + x2", 3)
        ROTATIONAL.ad(f)
        poisson_derivation(ROTATIONAL, prolong_function(f, DUAL))
        refs.append(weakref.ref(f))
        del f
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0
