"""Prolongation of functions and vector fields to near-points."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from weiljet.algebra import (
    AlgebraMismatch,
    NotInvertible,
    WeilElement,
    _product,
    make_truncated_algebra,
    validate_algebra,
)
from weiljet import bundle
from weiljet.bundle import (
    DEFAULT_BOX,
    GROUP_ROWS,
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
    sample_near_point,
    sample_near_points,
    zero_test,
)
from weiljet.errors import ArityError, DegreeError, DomainError
from weiljet.expression import (
    _Solved,
    _topological,
    add,
    compose,
    const,
    differentiate,
    eval_weil,
    mul,
    parse_expr,
    sub,
)
from weiljet.poisson import (
    PoissonStructure,
    poisson_derivation,
    prolonged_adjoint_differential,
)
from weiljet.sampling import (
    random_base_field,
    random_bundle_function,
    random_expression,
    sample_element,
)
from weiljet.symplectic import (
    BaseForm,
    BundleForm,
    SymplecticStructure,
    base_hamiltonian_field,
    base_interior_product,
    bundle_exterior_derivative,
    exterior_derivative,
    hamiltonian_field,
    interior_product,
    prolong_form,
)

from one_at_a_time import worst_case

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)
M2 = make_truncated_algebra(2, 1)


def test_prolong_evaluates_by_weil_substitution():
    f = prolong_function(parse_expr("x0^2", 1), DUAL)
    point = NearPoint([DUAL.element([2.0, 1.0])])
    np.testing.assert_allclose(f.evaluate(point).coeffs, [4.0, 4.0])


def test_constant_function():
    f = BundleFunction.constant(5.0, DUAL, 2)
    point = sample_near_point(DUAL, 2, np.random.default_rng(0))
    np.testing.assert_allclose(f.evaluate(point).coeffs, [5.0, 0.0])
    assert BundleFunction.zero(DUAL, 2).root is const(0.0, 2)


@pytest.mark.parametrize("algebra", [DUAL, T3, M2], ids=["dual", "t3", "m2"])
def test_prolongation_is_a_ring_morphism(algebra):
    rng = np.random.default_rng(7)
    for trial in range(5):
        f = random_expression(2, rng)
        g = random_expression(2, rng)
        prod = prolong_function(mul(f, g), algebra)
        split = prolong_function(f, algebra) * prolong_function(g, algebra)
        [(residual, _)] = max_difference([(prod, split)], samples=8,
                                         rng=np.random.default_rng(trial))
        assert residual < 1e-8
        total = prolong_function(add(f, g), algebra)
        parts = prolong_function(f, algebra) + prolong_function(g, algebra)
        [(residual, _)] = max_difference([(total, parts)], samples=8,
                                         rng=np.random.default_rng(trial))
        assert residual < 1e-8


def test_partial_commutes_with_prolongation():
    rng = np.random.default_rng(3)
    f = random_expression(2, rng)
    lifted = prolong_function(f, T3)
    for index in range(2):
        [(residual, _)] = max_difference(
            [(lifted.partial(index), prolong_function(differentiate(f, index), T3))],
            samples=8,
            rng=np.random.default_rng(index),
        )
        assert residual <= 1e-9


def test_prolonged_field_satisfies_chain_rule():
    rng = np.random.default_rng(11)
    base = random_base_field(2, rng)
    f = random_expression(2, rng)
    field = prolong_vector_field(base, M2)
    got = apply_field(field, prolong_function(f, M2))
    symbolic = None
    for j, component in enumerate(base.components):
        term = mul(component, differentiate(f, j))
        symbolic = term if symbolic is None else add(symbolic, term)
    want = prolong_function(symbolic, M2)
    [(residual, _)] = max_difference([(got, want)], samples=8, rng=np.random.default_rng(5))
    assert residual < 1e-8


def _base_bracket_field(v, w, arity):
    components = []
    for i in range(arity):
        acc = None
        for j in range(arity):
            term = sub(
                mul(v.components[j], differentiate(w.components[i], j)),
                mul(w.components[j], differentiate(v.components[i], j)),
            )
            acc = term if acc is None else add(acc, term)
        components.append(acc)
    return BaseVectorField(components)


def test_lie_bracket_prolongs_the_base_bracket():
    rng = np.random.default_rng(13)
    v = random_base_field(2, rng)
    w = random_base_field(2, rng)
    f = prolong_function(random_expression(2, rng), DUAL)
    bracket = lie_bracket(prolong_vector_field(v, DUAL), prolong_vector_field(w, DUAL))
    prolonged = prolong_vector_field(_base_bracket_field(v, w, 2), DUAL)
    [(residual, _)] = max_difference(
        [(apply_field(bracket, f), apply_field(prolonged, f))],
        samples=6,
        rng=np.random.default_rng(8),
    )
    assert residual < 1e-7


def test_lie_bracket_antisymmetry():
    rng = np.random.default_rng(19)
    x = prolong_vector_field(random_base_field(2, rng), DUAL)
    y = prolong_vector_field(random_base_field(2, rng), DUAL)
    f = prolong_function(random_expression(2, rng), DUAL)
    forward = apply_field(lie_bracket(x, y), f)
    backward = apply_field(lie_bracket(y, x), f)
    zero = BundleFunction.zero(DUAL, 2)
    [(residual, _)] = max_difference([(forward + backward, zero)], samples=6,
                                     rng=np.random.default_rng(2))
    assert residual < 1e-8


def test_scaled_field_scales_derivations():
    rng = np.random.default_rng(23)
    field = prolong_vector_field(random_base_field(2, rng), T3)
    weight = prolong_function(random_expression(2, rng), T3)
    f = prolong_function(random_expression(2, rng), T3)
    got = apply_field(field.scaled(weight), f)
    want = weight * apply_field(field, f)
    [(residual, _)] = max_difference([(got, want)], samples=6, rng=np.random.default_rng(4))
    assert residual < 1e-8


def test_pushforward_evaluates_componentwise():
    rng = np.random.default_rng(17)
    point = sample_near_point(M2, 2, rng)
    chart = [parse_expr("x0 * x1", 2), parse_expr("x0 + x1", 2), parse_expr("sin(x0)", 2)]
    image = pushforward_map(chart, point)
    assert image.arity == 3
    for component, coord in zip(chart, image.coeffs):
        assert np.allclose(coord, eval_weil(component, point), rtol=0.0, atol=1e-9)


def test_pushforward_functoriality():
    rng = np.random.default_rng(29)
    point = sample_near_point(M2, 2, rng)
    inner = [parse_expr("x0 + x1", 2), parse_expr("x0 * x1", 2)]
    outer = [parse_expr("x0^2 + x1", 2)]
    stepwise = pushforward_map(outer, pushforward_map(inner, point))
    collapsed = pushforward_map([compose(c, inner) for c in outer], point)
    assert np.allclose(stepwise.coeffs, collapsed.coeffs, rtol=0.0, atol=1e-9)


def test_max_difference_tolerance_and_determinism():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    near = f + BundleFunction.constant(1e-12, DUAL, 1)
    far = f + BundleFunction.constant(1e-3, DUAL, 1)
    [(small, _)] = max_difference([(f, near)], samples=8, rng=np.random.default_rng(0))
    [(large, _)] = max_difference([(f, far)], samples=8, rng=np.random.default_rng(0))
    assert small <= 1e-9 < large
    [(first, where)] = max_difference([(f, far)], samples=8, rng=np.random.default_rng(9))
    [(second, _)] = max_difference([(f, far)], samples=8, rng=np.random.default_rng(9))
    assert first == second == pytest.approx(1e-3)
    assert where is not None


def test_algebra_mismatch_is_rejected():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    point = sample_near_point(T3, 1, np.random.default_rng(0))
    with pytest.raises(AlgebraMismatch):
        f.evaluate(point)


def _summands():
    x0, x1 = parse_expr("x0", 2), parse_expr("x1", 2)
    c = M2.element([2.0, 0.5, -1.0])
    return [prolong_function(x0, M2) * c, prolong_function(x1, M2) * c]


def test_sum_rejects_mismatched_parts():
    parts = _summands()
    other_algebra = BundleFunction.constant(1.0, T3, 2)
    other_arity = BundleFunction.constant(1.0, M2, 3)
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g):
        with pytest.raises(AlgebraMismatch):
            op(parts[0], other_algebra)
        with pytest.raises(ArityError):
            op(parts[1], other_arity)
    with pytest.raises(AlgebraMismatch):
        parts[0] * T3.basis_element(1)
    with pytest.raises(AlgebraMismatch):
        BundleFunction.constant(T3.basis_element(1), M2, 2)


def test_max_difference_needs_a_sample():
    f = prolong_function(parse_expr("x0", 1), DUAL)
    with pytest.raises(ValueError):
        max_difference([(f, f)], samples=0)


@pytest.mark.parametrize("seed", [3, 5, 6])
def test_non_finite_residual_is_a_domain_error(seed):
    # x0^100000 overflows at most points of the box; at these seeds the first
    # point does not, and a residual of inf - inf there must not be dropped
    twice = prolong_function(parse_expr("2*x0^100000", 1), T3)
    once = prolong_function(parse_expr("x0^100000", 1), T3)
    with pytest.raises(DomainError):
        max_difference([(twice, once)], rng=np.random.default_rng(seed))


def test_worst_point_is_the_first_largest_in_sample_order():
    # constants differ by exactly 0.25 everywhere: every point ties
    f = BundleFunction.constant(1.0, DUAL, 1)
    g = BundleFunction.constant(1.25, DUAL, 1)
    [(residual, point)] = max_difference([(f, g)], samples=8, rng=np.random.default_rng(1))
    assert residual == 0.25
    assert point == sample_near_points(DUAL, 1, np.random.default_rng(1), 8)[0]


# -- comparison groups ------------------------------------------------------------

def _one_pair_at_a_time(pairs, samples, rng):
    # max_difference as it compared before groups: each pair on a draw and a
    # cache of its own
    out = []
    for f, g in pairs:
        points = sample_near_points(f.algebra, f.arity, rng, samples)
        residuals = np.max(np.abs(f.evaluate(points) - g.evaluate(points)), axis=-1)
        if not np.isfinite(residuals).all():
            raise DomainError("a sampled residual is not finite")
        worst = int(np.argmax(residuals))
        out.append((float(residuals[worst]), points[worst]))
    return out


def _pairs_one_at_a_time(component, algebra, arity, samples, rng):
    # the coordinate pairs of a 2-tensor compared as before groups
    zero = BundleFunction.zero(algebra, arity)
    for i, j in itertools.combinations(range(arity), 2):
        [(residual, point)] = _one_pair_at_a_time([(component(i, j), zero)], samples, rng)
        yield residual, {"pair": [i, j], "point": point.coeffs.tolist()}


def _zero_test_of_pairs(component, algebra, arity, samples, rng):
    # zero_test over the coordinate pairs, lazily built
    zero = BundleFunction.zero(algebra, arity)
    return zero_test(((component(i, j), zero, {"pair": [i, j]})
                      for i, j in itertools.combinations(range(arity), 2)),
                     samples=samples, rng=rng)


def _assert_same_bits(got, want):
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("samples", [4, 24, 80])
@pytest.mark.parametrize("algebra", [DUAL, T3, M2], ids=["dual", "t3", "m2"])
def test_a_group_of_field_components_compares_as_its_pairs_one_at_a_time(algebra, samples):
    rng = np.random.default_rng(31)
    rotational = PoissonStructure.rotational()
    theta1, theta2 = random_base_field(3, rng), random_base_field(3, rng)
    x, y = (prolong_vector_field(t, algebra) for t in (theta1, theta2))
    phi, psi = (random_bundle_function(algebra, 3, rng) for _ in range(2))
    tau_phi, tau_psi = poisson_derivation(rotational, phi), poisson_derivation(rotational, psi)
    fields = [
        (lie_bracket(x, y), prolong_vector_field(theta1.bracket(theta2), algebra)),
        (poisson_derivation(rotational, phi * psi), tau_psi.scaled(phi) + tau_phi.scaled(psi)),
        (x, y),
    ]
    pairs = [(lhs, rhs) for lhs_field, rhs_field in fields
             for lhs, rhs in zip(lhs_field.components, rhs_field.components)]
    grouped, single = np.random.default_rng(5), np.random.default_rng(5)
    got = max_difference(pairs, samples=samples, rng=grouped)
    want = _one_pair_at_a_time(pairs, samples, single)
    _assert_same_bits([r for r, _ in got], [r for r, _ in want])
    _assert_same_bits([p.coeffs for _, p in got], [p.coeffs for _, p in want])
    assert grouped.bit_generator.state == single.bit_generator.state
    assert max(r for r, _ in got) > 1e-3


def _poisson_pair_defect(structure, algebra, rng):
    field = prolong_vector_field(random_base_field(structure.arity, rng), algebra)
    defect = prolonged_adjoint_differential(field, structure)
    coords = [prolong_function(parse_expr(f"x{i}", structure.arity), algebra)
              for i in range(structure.arity)]
    return lambda i, j: defect(coords[i], coords[j])


def _form_pair_defect(form, algebra, rng, solved):
    structure = SymplecticStructure(form)
    if solved:
        field = hamiltonian_field(random_bundle_function(algebra, form.arity, rng),
                                  structure)
    else:
        field = prolong_vector_field(random_base_field(form.arity, rng), algebra)
    defect = bundle_exterior_derivative(
        interior_product(field, prolong_form(structure.form, algebra)))
    return lambda i, j: defect.coefficient((i, j))


CURVED_FORM4 = BaseForm(2, 4, {(0, 1): "1 + 0.5*x0^2", (0, 2): 0.25,
                               (2, 3): "2 + cos(0.5*x3)"})


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "t3"])
@pytest.mark.parametrize("components", [
    lambda algebra, rng: _poisson_pair_defect(PoissonStructure.rotational(), algebra, rng),
    lambda algebra, rng: _poisson_pair_defect(PoissonStructure.canonical(4), algebra, rng),
    lambda algebra, rng: _form_pair_defect(CURVED_FORM4, algebra, rng, solved=False),
    lambda algebra, rng: _form_pair_defect(CURVED_FORM4, algebra, rng, solved=True),
], ids=["rotational", "canonical4", "curved_form4", "curved_form4_solved"])
@pytest.mark.parametrize("samples", [4, 40])
def test_coordinate_pairs_compare_as_one_pair_at_a_time(components, algebra, samples):
    component = components(algebra, np.random.default_rng(17))
    arity = component(0, 1).arity
    grouped, single = np.random.default_rng(3), np.random.default_rng(3)
    got = _zero_test_of_pairs(component, algebra, arity, samples, grouped)
    want = worst_case(_pairs_one_at_a_time(component, algebra, arity, samples, single))
    _assert_same_bits(got[0], want[0])
    assert got[1] == want[1]
    assert grouped.bit_generator.state == single.bit_generator.state


def test_an_empty_group_is_zero_and_draws_nothing():
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    assert zero_test([], samples=4, rng=rng) == (0.0, None)
    assert zero_test(iter(()), samples=0, rng=rng) == (0.0, None)
    assert rng.bit_generator.state == before


def test_zero_test_names_the_first_pair_of_the_worst_residual():
    zero, one = (BundleFunction.constant(c, DUAL, 1) for c in (0.0, 1.0))
    pairs = [(zero, zero), (one, zero), (zero, one), (zero, zero)]
    cases = [(f, g, {"case": k, "label": "tied"}) for k, (f, g) in enumerate(pairs)]
    residual, witness = zero_test(cases, samples=8, rng=np.random.default_rng(2))
    want = max_difference(pairs, samples=8, rng=np.random.default_rng(2))
    assert [r for r, _ in want] == [0.0, 1.0, 1.0, 0.0]
    assert residual == 1.0
    assert witness == {"case": 1, "label": "tied", "point": want[1][1].coeffs.tolist()}
    # the case's own witness is copied, not extended
    assert cases[1][2] == {"case": 1, "label": "tied"}


@pytest.mark.parametrize("members, samples, batches", [
    (9, 4, [36]),
    (9, 20, [60, 60, 60]),
    (5, 16, [64, 16]),
    (3, 40, [40, 40, 40]),
    (2, 100, [100, 100]),
])
def test_a_group_draws_batches_of_whole_pairs_within_the_row_bound(
        monkeypatch, members, samples, batches):
    assert GROUP_ROWS == 64
    drawn = []

    def recording(algebra, arity, rng, count):
        drawn.append(count)
        return sample_near_points(algebra, arity, rng, count)

    monkeypatch.setattr(bundle, "sample_near_points", recording)
    pairs = [(prolong_function(parse_expr(f"x0 * {k + 1}", 1), DUAL),
              prolong_function(parse_expr("x0", 1), DUAL)) for k in range(members)]
    grouped, single = np.random.default_rng(8), np.random.default_rng(8)
    got = max_difference(pairs, samples=samples, rng=grouped)
    assert drawn == batches
    want = _one_pair_at_a_time(pairs, samples, single)
    _assert_same_bits([r for r, _ in got], [r for r, _ in want])
    _assert_same_bits([p.coeffs for _, p in got], [p.coeffs for _, p in want])
    assert grouped.bit_generator.state == single.bit_generator.state


def _logged_pair_seed(samples, x0_positive_on_own_rows):
    # the first seed whose draw puts x0 <= 0 on the rows of pairs (0, 2) and
    # (1, 2), and on the rows of pair (0, 1) exactly when asked
    for seed in range(1000):
        points = sample_near_points(T3, 3, np.random.default_rng(seed), 3 * samples)
        x0 = points.coeffs[:, 0, 0]
        own, others = x0[:samples], x0[samples:]
        if (own > 0).all() == x0_positive_on_own_rows and (others <= 0).any():
            return seed
    raise AssertionError("no seed found")


@pytest.mark.parametrize("defined", [True, False], ids=["defined", "undefined"])
def test_a_member_undefined_on_other_rows_decides_as_on_its_own(defined):
    # component (0, 1) reads log(x0) and the others do not
    logged = prolong_function(parse_expr("log(x0) * x1 + x2", 3), T3)
    plain = prolong_function(parse_expr("x0 * x1 - x2^2", 3), T3)
    parts = {(0, 1): logged, (0, 2): plain, (1, 2): plain * 2.0}

    def component(i, j):
        return parts[i, j]

    seed = _logged_pair_seed(2, defined)
    grouped, single = np.random.default_rng(seed), np.random.default_rng(seed)
    if defined:
        got = _zero_test_of_pairs(component, T3, 3, 2, grouped)
        want = worst_case(_pairs_one_at_a_time(component, T3, 3, 2, single))
        assert got == want
        assert grouped.bit_generator.state == single.bit_generator.state
        return
    with pytest.raises(DomainError, match="log needs a positive augmentation"):
        _zero_test_of_pairs(component, T3, 3, 2, grouped)
    with pytest.raises(DomainError, match="log needs a positive augmentation"):
        worst_case(_pairs_one_at_a_time(component, T3, 3, 2, single))


def test_a_component_that_cannot_be_built_fails_after_the_pairs_before_it():
    logged = prolong_function(parse_expr("log(x0 - 10)", 3), T3)

    def component(i, j):
        if (i, j) == (0, 1):
            return logged
        raise ArityError("not built")

    # the first pair fails to evaluate before the second fails to build
    with pytest.raises(DomainError):
        _zero_test_of_pairs(component, T3, 3, 2, np.random.default_rng(0))


def test_a_pair_that_cannot_be_built_fails_after_comparing_the_pairs_before_it():
    x0 = prolong_function(parse_expr("x0", 1), DUAL)

    def cases():
        yield x0, x0, {"case": 0}
        raise ArityError("not built")

    rng, single = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ArityError, match="not built"):
        zero_test(cases(), samples=5, rng=rng)
    sample_near_points(DUAL, 1, single, 5)
    assert rng.bit_generator.state == single.bit_generator.state


# -- batches ----------------------------------------------------------------------

def _drawn_one_at_a_time(algebra, arity, rng):
    # sample_near_point as it drew before batches: one coordinate at a time
    coords = []
    for _ in range(arity):
        coeffs = rng.uniform(-1.0, 1.0, size=algebra.dim)
        coeffs[0] = rng.uniform(*DEFAULT_BOX)
        coords.append(coeffs)
    return np.array(coords)


@pytest.mark.parametrize("algebra", [DUAL, make_truncated_algebra(2, 2),
                                     make_truncated_algebra(3, 3)],
                         ids=["dim2", "dim6", "dim20"])
def test_batch_sampling_reads_the_stream_as_single_draws(algebra):
    single, batched = np.random.default_rng(8), np.random.default_rng(8)
    batch = sample_near_points(algebra, 3, batched, 5)
    for s in range(5):
        assert np.array_equal(batch.coeffs[s], _drawn_one_at_a_time(algebra, 3, single))
    assert single.bit_generator.state == batched.bit_generator.state
    assert single.random() == batched.random()
    lo, hi = DEFAULT_BOX
    assert np.all((lo <= batch.coeffs[..., 0]) & (batch.coeffs[..., 0] <= hi))
    assert np.all(np.abs(batch.coeffs[..., 1:]) <= 1.0)


def _rescaled_truncated_1_3():
    # the rescaled table of tests/test_algebra.py: basis f_i = s_i t^i of
    # R[t]/(t^4), so f_i f_j = (s_i s_j / s_{i+j}) f_{i+j}
    scales = (1.0, 2.0, 0.5, 3.0)
    constants = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4 - i):
            constants[i, j, i + j] = scales[i] * scales[j] / scales[i + j]
    return validate_algebra(constants)


BATCH_ALGEBRAS = [DUAL, make_truncated_algebra(2, 2), make_truncated_algebra(3, 4),
                  make_truncated_algebra(4, 4), _rescaled_truncated_1_3()]
BATCH_EXPRS = ("(x0 + 2) / (x1^2 + 3) - (x0*x1 + 5)^-2",
               "log(x0^2 + x1^2 + 1) * exp(0.3*x0 - x1)",
               "sin(x0) * cos(x1) + exp(x0*x1) - x1^3")


def _points_of(batch):
    """Each point of a batch as a NearPoint of its own, sharing nothing."""
    return [NearPoint([batch.algebra.element(c) for c in coords])
            for coords in batch.coeffs]


@pytest.mark.parametrize("samples", [1, 4, 32])
@pytest.mark.parametrize("algebra", BATCH_ALGEBRAS,
                         ids=["dim2", "dim6", "dim35", "dim70", "rescaled-table"])
def test_batch_evaluation_equals_point_evaluation(algebra, samples):
    exprs = [parse_expr(text, 2) for text in BATCH_EXPRS]
    batch = sample_near_points(algebra, 2, np.random.default_rng(samples), samples)
    coeff = algebra.element(np.linspace(0.5, -0.5, algebra.dim))
    lifted = [prolong_function(f, algebra) for f in exprs]
    fn = lifted[0] * lifted[1] * coeff + lifted[2]
    jets = [eval_weil(f, batch) for f in exprs]
    values = fn.evaluate(batch)
    assert values.shape == (samples, algebra.dim)
    for s, point in enumerate(_points_of(batch)):
        assert np.array_equal(values[s], fn.evaluate(point).coeffs)
        for f, jet in zip(exprs, jets):
            assert np.array_equal(jet[s], eval_weil(f, point))


# Each structure is built by the test: one built at collection would live for
# the whole session, with every partial a test hangs on its nodes (see
# test_symplectic.py).
SOLVE_STRUCTURES = {
    "canonical2": lambda: SymplecticStructure.canonical(2),
    "canonical4": lambda: SymplecticStructure.canonical(4),
    "curved": lambda: SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"})),
}


@pytest.mark.parametrize("samples", [1, 4, 32])
@pytest.mark.parametrize("algebra", [T3, make_truncated_algebra(2, 2)], ids=["t3", "m3"])
@pytest.mark.parametrize("make", SOLVE_STRUCTURES.values(), ids=SOLVE_STRUCTURES.keys())
def test_batch_solves_equal_point_solves(make, algebra, samples):
    structure = make()
    n = structure.arity
    potential = prolong_function(
        parse_expr(f"sin(x0) * x1^2 + exp(0.5*x{n - 1})", n), algebra)
    weight = prolong_function(parse_expr("x0 + x1^2", n), algebra)
    field = hamiltonian_field(potential, structure)
    fn = field.components[0] * weight
    assert any(isinstance(node, _Solved) for node in _topological(fn.root))
    batch = sample_near_points(algebra, n, np.random.default_rng(samples), samples)
    for f in (fn, fn.partial(1)):
        values = f.evaluate(batch)
        for s, point in enumerate(_points_of(batch)):
            assert np.array_equal(values[s], f.evaluate(point).coeffs)


def test_batch_domain_error_at_the_last_point():
    coeffs = np.array(sample_near_points(T3, 1, np.random.default_rng(2), 4).coeffs)
    coeffs[:, 0, 0] = [1.0, 2.0, 0.5, -0.5]
    log = parse_expr("log(x0)", 1)
    assert eval_weil(log, NearPoint.from_coeffs(T3, coeffs[:3])).shape == (3, 3)
    with pytest.raises(DomainError):
        eval_weil(log, NearPoint.from_coeffs(T3, coeffs))


def test_batch_with_a_singular_point_is_not_invertible():
    coeffs = np.array(sample_near_points(T3, 1, np.random.default_rng(2), 4).coeffs)
    coeffs[2, 0, 0] = 0.0
    with pytest.raises(NotInvertible):
        eval_weil(parse_expr("1 / x0", 1), NearPoint.from_coeffs(T3, coeffs))


@pytest.mark.parametrize("shape", [(3,), (4, 0, 3), (4, 2, 4)],
                         ids=["no-coordinate-axis", "no-coordinates", "wrong-dim"])
def test_from_coeffs_rejects_a_wrong_shape(shape):
    with pytest.raises(ArityError):
        NearPoint.from_coeffs(T3, np.zeros(shape))


def test_a_batch_and_its_points_share_one_type():
    batch = sample_near_points(T3, 2, np.random.default_rng(6), 3)
    fn = prolong_function(parse_expr("sin(x0) * x1", 2), T3)
    values = fn.evaluate(batch)
    assert isinstance(values, np.ndarray) and values.shape == (3, 3)
    assert not values.flags.writeable and not batch.coeffs.flags.writeable
    for s in range(3):
        point = batch[s]
        assert point == NearPoint([T3.element(c) for c in batch.coeffs[s]])
        assert point._eval_cache == {}
        value = fn.evaluate(point)
        assert isinstance(value, WeilElement)
        assert np.array_equal(value.coeffs, values[s])
        with pytest.raises(ArityError):
            point[0]


def test_batches_go_through_the_class_pulled(monkeypatch):
    # a tracer wraps NearPoint.pulled by class attribute, so batches must
    # look it up there rather than through a copy bound when a class is made
    shapes = []
    pulled = NearPoint.pulled

    def counting(point, expr):
        shapes.append(point.coeffs.shape)
        return pulled(point, expr)

    monkeypatch.setattr(NearPoint, "pulled", counting)
    f = prolong_function(parse_expr("sin(x0) * x1", 2), T3)
    max_difference([(f, f * 2.0)], samples=4, rng=np.random.default_rng(0))
    assert shapes == [(4, 2, 3), (4, 2, 3)]


# -- operations against a term reference ----------------------------------------
#
# Each operand comes with its terms: (coefficient, base expressions) pairs
# whose sum of coefficient * product of prolongations is the operand.  A
# solved component of the canonical structure has a closed form, so it has
# terms too.  The reference applies each operation to the terms (the
# product rule per pullback, products term by term, the Poisson derivation
# per pullback through the base hamiltonian field) and must agree with the
# operation in value at a batch of near-points.

def _ref_value(terms, algebra, points):
    total = np.zeros((points.coeffs.shape[0], algebra.dim))
    for coeff, pulls in terms:
        value = np.broadcast_to(coeff.coeffs, total.shape)
        for p in pulls:
            value = _product(algebra, value, eval_weil(p, points))
        total = total + value
    return total


def _ref_mul(f, g):
    return [(a * b, pa + pb) for a, pa in f for b, pb in g]


def _ref_scale(f, scale):
    return [(coeff * scale, pulls) for coeff, pulls in f]


def _ref_partial(terms, index):
    return [(coeff, pulls[:j] + (differentiate(p, index),) + pulls[j + 1:])
            for coeff, pulls in terms for j, p in enumerate(pulls)]


def _ref_apply_field(field_terms, terms):
    return [t for i, comp in enumerate(field_terms)
            for t in _ref_mul(comp, _ref_partial(terms, i))]


def _ref_poisson_derivation(base, terms):
    return [[(coeff, pulls[:j] + pulls[j + 1:] + (base.ad(p).components[i],))
             for coeff, pulls in terms for j, p in enumerate(pulls)]
            for i in range(base.arity)]


def _operands(algebra, seed):
    """(function, terms) pairs: random sums, terms that cancel, constant
    partials, and the components of a solved field."""
    rng = np.random.default_rng(seed)
    x0, x1 = parse_expr("x0", 2), parse_expr("x1", 2)
    affine, product = parse_expr("3*x1 + 2", 2), parse_expr("x0*x1", 2)
    c = algebra.element(np.linspace(1.0, -0.5, algebra.dim))
    e, f = sample_element(algebra, rng), sample_element(algebra, rng)
    term_lists = [
        [(sample_element(algebra, rng), (random_expression(2, rng),)),
         (sample_element(algebra, rng), (x0, random_expression(2, rng)))],
        [(c, (x0,)), (c * -2.0, (affine,)), (algebra.unit(), (x0, x1)),
         (c, (product, x1)), (c * -1.0, (x1, x0))],
        [(e, (x0,)), (f, (x1, x1))],
    ]
    operands = []
    for terms in term_lists:
        fn = BundleFunction.zero(algebra, 2)
        for coeff, pulls in terms:
            term = BundleFunction.constant(coeff, algebra, 2)
            for p in pulls:
                term = term * prolong_function(p, algebra)
            fn = fn + term
        operands.append((fn, terms))
    # i_X (dx0 ^ dx1) = dphi gives X = (d_1 phi, -d_0 phi)
    phi = parse_expr("x0^2*x1 + sin(x1)", 2)
    solved = hamiltonian_field(prolong_function(phi, algebra),
                               SymplecticStructure.canonical(2))
    closed = [[(algebra.unit(), (differentiate(phi, 1),))],
              [(algebra.unit() * -1.0, (differentiate(phi, 0),))]]
    operands += list(zip(solved.components, closed))
    fn, terms = operands[4]
    operands.append((fn * operands[0][0] + operands[1][0],
                     _ref_mul(terms, operands[0][1]) + operands[1][1]))
    return operands, (solved, closed)


def _assert_same_values(got, terms, points):
    want = _ref_value(terms, got.algebra, points)
    np.testing.assert_allclose(got.evaluate(points), want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("algebra", [DUAL, T3, M2], ids=["dual", "t3", "m2"])
def test_operations_match_the_one_term_reference(algebra):
    operands, solved = _operands(algebra, 11)
    points = sample_near_points(algebra, 2, np.random.default_rng(5), 6)
    scale = algebra.element(np.linspace(-0.5, 0.75, algebra.dim))
    for f, tf in operands:
        _assert_same_values(f, tf, points)
        for index in range(2):
            _assert_same_values(f.partial(index), _ref_partial(tf, index), points)
        _assert_same_values(f * scale, _ref_scale(tf, scale), points)
        _assert_same_values(f * 2.5, _ref_scale(tf, 2.5), points)
        _assert_same_values(-f, _ref_scale(tf, -1.0), points)
        assert (f * 0.0).root is const(0.0, 2)
        for g, tg in operands:
            _assert_same_values(f * g, _ref_mul(tf, tg), points)
            _assert_same_values(f + g, tf + tg, points)
            _assert_same_values(f - g, tf + _ref_scale(tg, -1.0), points)
    (fn0, t0), (fn1, t1), (fn2, t2) = operands[:3]
    fields = [solved, (BundleVectorField([fn0, fn1]), [t0, t1]),
              (BundleVectorField([fn2, fn2]), [t2, t2])]
    for field, field_terms in fields:
        for f, tf in operands:
            _assert_same_values(apply_field(field, f),
                                _ref_apply_field(field_terms, tf), points)
    canonical = PoissonStructure.canonical(2)
    for f, tf in operands:
        for got, ref in zip(poisson_derivation(canonical, f).components,
                            _ref_poisson_derivation(canonical, tf)):
            _assert_same_values(got, ref, points)


# -- partials kept on the nodes ---------------------------------------------------

def test_partials_are_built_once_per_index():
    operands, _ = _operands(M2, 3)
    for f, _ in operands:
        assert f.partial(0).root is f.partial(0).root
        assert f.partial(1).root is f.partial(1).root
        assert f.partial(0).root is not f.partial(1).root
        with pytest.raises(ArityError):
            f.partial(2)
        with pytest.raises(ArityError):
            f.partial(-1)


def test_kept_partials_die_with_their_functions():
    x0, x1 = parse_expr("x0", 2), parse_expr("sin(x0*x1)", 2)
    potential = prolong_function(parse_expr("x0^2*x1", 2), T3)
    refs = []
    for k in range(1000):
        if k % 100 == 0:
            fn = hamiltonian_field(potential, SymplecticStructure.canonical(2)).components[1]
        else:
            fn = (prolong_function(x0, T3) * prolong_function(x1, T3)
                  * T3.element([k, 1.0, 0.5]))
        refs += [weakref.ref(fn.root), weakref.ref(fn.partial(k % 2).root),
                 weakref.ref(fn.partial(k % 2).partial(0).root)]
    del fn
    gc.collect()
    assert not [r for r in refs if r() is not None]


def test_solved_factors_merge_after_differentiation():
    # a solve's component is one interned node, so two equal products of it
    # are one function, and so are their partials
    f = prolong_function(parse_expr("x0*x1", 2), T3)
    field = hamiltonian_field(f, SymplecticStructure.canonical(2))
    component = field.components[0]
    h1, h2 = component * f, component * f
    assert h1.root is h2.root
    assert h1.partial(0).root is h2.partial(0).root
    assert field.components[1].partial(0).root is field.components[1].partial(0).root


def test_evaluate_hands_out_no_writable_cache():
    f = prolong_function(parse_expr("x0 * x1 + sin(x0)", 2), T3)
    batch = sample_near_points(T3, 2, np.random.default_rng(4), 3)
    values = f.evaluate(batch)
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    point = batch[0]
    with pytest.raises(ValueError):
        f.evaluate(point).coeffs[0] = 1.0
    assert np.array_equal(f.evaluate(batch), values)


def _fn(algebra, arity, text="x0"):
    return prolong_function(parse_expr(text, arity), algebra)


def _field(algebra, arity):
    return prolong_vector_field(BaseVectorField([parse_expr(f"x{i}", arity)
                                                 for i in range(arity)]), algebra)


# The parent's exception types and messages, copied.  The prolonged field
# and form operations are the base ones on their arguments' roots, so a
# form keeps only roots: a coefficient over another algebra or arity is
# refused when the form is built, with the message the parent gave when
# such a coefficient met another one.  Everything is built when a case runs.
MOVED_CHECKS = {
    "apply_field-arity": (lambda: apply_field(_field(DUAL, 2), _fn(DUAL, 3)),
                          ArityError, "field and function disagree on arity"),
    "apply_field-algebra": (lambda: apply_field(_field(DUAL, 2), _fn(T3, 2)),
                            AlgebraMismatch,
                            "field and function live over different algebras"),
    "lie_bracket-arity": (lambda: lie_bracket(_field(DUAL, 2), _field(DUAL, 3)),
                          ArityError, "fields disagree on arity"),
    "lie_bracket-algebra": (lambda: lie_bracket(_field(DUAL, 2), _field(T3, 2)),
                            AlgebraMismatch,
                            "field and function live over different algebras"),
    "poisson_derivation-arity": (
        lambda: poisson_derivation(PoissonStructure.canonical(2), _fn(DUAL, 3)),
        ArityError, "function arity does not match the structure"),
    "interior_product-degree": (
        lambda: interior_product(_field(DUAL, 2),
                                 BundleForm(0, 2, DUAL, {(): _fn(DUAL, 2)})),
        DegreeError, "cannot contract a form of degree zero"),
    "interior_product-arity": (
        lambda: interior_product(_field(DUAL, 3),
                                 BundleForm(1, 2, DUAL, {(0,): _fn(DUAL, 2)})),
        ArityError, "field and form disagree on arity"),
    "interior_product-algebra": (
        lambda: interior_product(_field(T3, 2),
                                 BundleForm(1, 2, DUAL, {(0,): _fn(DUAL, 2)})),
        AlgebraMismatch, "field and form live over different algebras"),
    "interior_product-coefficient-algebra": (
        lambda: interior_product(_field(DUAL, 2),
                                 BundleForm(1, 2, DUAL, {(0,): _fn(T3, 2)})),
        AlgebraMismatch, "functions live over different algebras"),
    "bundle_exterior_derivative-algebra": (
        lambda: bundle_exterior_derivative(
            BundleForm(1, 2, DUAL, {(0,): _fn(DUAL, 2, "x1"), (1,): _fn(T3, 2)})),
        AlgebraMismatch, "functions live over different algebras"),
    "bundle_exterior_derivative-arity": (
        lambda: bundle_exterior_derivative(
            BundleForm(1, 2, DUAL, {(0,): _fn(DUAL, 2, "x1"), (1,): _fn(DUAL, 3)})),
        ArityError, "functions disagree on the base arity"),
    "BundleForm-negative-degree": (lambda: BundleForm(-1, 2, DUAL, {}),
                                   DegreeError, "form degree must be nonnegative"),
    "BundleForm-degree": (lambda: BundleForm(2, 2, DUAL, {(0,): _fn(DUAL, 2)}),
                          DegreeError, "index (0,) does not have length 2"),
    "BundleForm-order": (lambda: BundleForm(2, 2, DUAL, {(1, 0): _fn(DUAL, 2)}),
                         DegreeError, "index (1, 0) must be strictly increasing"),
    "BundleForm-arity": (lambda: BundleForm(2, 2, DUAL, {(0, 2): _fn(DUAL, 2)}),
                         ArityError, "index (0, 2) out of range for arity 2"),
    "BundleForm-coefficient-type": (
        lambda: BundleForm(1, 2, DUAL, {(0,): parse_expr("x0", 2)}),
        TypeError, "prolonged-form coefficients must be A-valued functions"),
}


@pytest.mark.parametrize("call, error, message", MOVED_CHECKS.values(),
                         ids=MOVED_CHECKS.keys())
def test_prolonged_operations_keep_their_argument_checks(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_prolonged_operations_build_the_base_nodes(monkeypatch):
    # a prolonged field is its base field plus the algebra: the operations
    # build no base field besides the one a field-valued result wraps
    built = []
    init = BaseVectorField.__init__

    def counted_init(self, components):
        built.append(self)
        init(self, components)

    monkeypatch.setattr(BaseVectorField, "__init__", counted_init)

    def building_only_its_result(call):
        built.clear()
        result = call()
        assert [b for b in built if b is not getattr(result, "_base", None)] == []
        return result

    rng = np.random.default_rng(23)
    for algebra in (DUAL, T3):
        x = random_base_field(3, rng, max_degree=2)
        y = random_base_field(3, rng, max_degree=2)
        f = random_expression(3, rng)
        lifted = building_only_its_result(lambda: prolong_vector_field(x, algebra))
        assert lifted._base is x
        applied = building_only_its_result(
            lambda: apply_field(lifted, prolong_function(f, algebra)))
        assert applied.root is x.apply_to(f)
        bracket = building_only_its_result(
            lambda: lie_bracket(lifted, prolong_vector_field(y, algebra)))
        assert [c.root for c in bracket.components] == list(x.bracket(y).components)
        base = PoissonStructure.rotational()
        derivation = building_only_its_result(
            lambda: poisson_derivation(base, prolong_function(f, algebra)))
        assert [c.root for c in derivation.components] == list(base.ad(f).components)
        omega = BaseForm(2, 3, {(0, 1): f, (1, 2): "x0 * x2"})
        pairs = [(bundle_exterior_derivative(prolong_form(omega, algebra)),
                  exterior_derivative(omega)),
                 (building_only_its_result(
                     lambda: interior_product(lifted, prolong_form(omega, algebra))),
                  base_interior_product(x, omega))]
        for prolonged, expected in pairs:
            assert prolonged.degree == expected.degree
            assert {idx: fn.root for idx, fn in prolonged.coeffs.items()} == expected.coeffs


def test_structures_stay_on_the_base_and_read_the_algebra_from_their_arguments():
    # the Poisson and symplectic operations take the base structure; the
    # algebra of their result is the one their A-valued argument carries
    import weiljet

    rotational, canonical = PoissonStructure.rotational(), SymplecticStructure.canonical(2)
    rng = np.random.default_rng(25)
    for algebra in (DUAL, T3):
        f = random_expression(3, rng)
        derivation = poisson_derivation(rotational, prolong_function(f, algebra))
        assert derivation.algebra is algebra
        assert [c.root for c in derivation.components] == list(rotational.ad(f).components)
        g = random_expression(2, rng)
        solved = hamiltonian_field(prolong_function(g, algebra), canonical)
        assert solved.algebra is algebra
        # the solve holds the partials of the root, whose closed form the
        # inverse bivector gives
        [solve] = {c.solve for c in solved._base.components}
        assert solve.rhs == (differentiate(g, 0), differentiate(g, 1))
        closed = prolong_vector_field(base_hamiltonian_field(g, canonical), algebra)
        for residual, _ in max_difference(list(zip(solved.components, closed.components)),
                                          samples=4, rng=np.random.default_rng(1)):
            assert residual <= 1e-9
    with pytest.raises(AttributeError):
        weiljet.ProlongedPoisson
