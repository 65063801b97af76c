"""Differential forms, matrix inversion over a Weil algebra, and symplectic brackets."""

import gc
import weakref

import numpy as np
import pytest

from weiljet.algebra import _add_live, _live, _product, _unit, make_truncated_algebra
from weiljet.bundle import (
    BaseVectorField,
    BundleFunction,
    NearPoint,
    max_difference,
    prolong_function,
    prolong_vector_field,
    sample_near_point,
    sample_near_points,
)
from weiljet.errors import DegreeError, InvalidSymplecticStructure, SingularRealPart
from weiljet.expression import eval_real, parse_expr
from weiljet.harness import ALL_ALGEBRAS, battery_algebra
from weiljet.poisson import prolonged_bracket
from weiljet.symplectic import (
    BaseForm,
    _matrix_inverse,
    _matrix_product,
    SymplecticStructure,
    base_hamiltonian_field,
    base_interior_product,
    bundle_exterior_derivative,
    check_global_witness_symplectic,
    exterior_derivative,
    hamiltonian_field,
    interior_product,
    inverse_bivector,
    prolong_form,
    symplectic_bracket,
    symplectic_closedness_defect,
    weil_matrix_inverse,
)
from weiljet.sampling import random_base_form

DUAL = make_truncated_algebra(1, 1)
T3 = make_truncated_algebra(1, 2)


# The two-dimensional structures are built in each test that uses them.  A
# module-level one is built when the module is collected and lives for the
# whole session, keeping its nodes alive with every partial any test hangs on
# them; the live-node counts of other tests would then depend on which of
# those partials earlier tests happened to build.
def canonical_structure() -> SymplecticStructure:
    return SymplecticStructure(BaseForm(2, 2, {(0, 1): 1.0}))


def curved_structure() -> SymplecticStructure:
    return SymplecticStructure(BaseForm(2, 2, {(0, 1): "1 + x0^2"}))


def test_coefficient_lookup_is_signed():
    omega = BaseForm(2, 2, {(0, 1): 1.0})
    assert eval_real(omega.coefficient((1, 0)), [0.0, 0.0]) == pytest.approx(-1.0)
    assert eval_real(omega.coefficient((0, 0)), [0.0, 0.0]) == pytest.approx(0.0)
    with pytest.raises(DegreeError):
        BaseForm(2, 2, {(1, 0): 1.0})


def test_exterior_derivative_oracle():
    # d(x0 dx1) = dx0 ^ dx1
    alpha = BaseForm(1, 2, {(1,): "x0"})
    got = exterior_derivative(alpha)
    assert got.degree == 2
    assert eval_real(got.coefficient((0, 1)), [0.4, -0.3]) == pytest.approx(1.0)


def test_exterior_derivative_squares_to_zero():
    rng = np.random.default_rng(31)
    for _ in range(4):
        alpha = random_base_form(3, 1, rng)
        dd = exterior_derivative(exterior_derivative(alpha))
        for key, entry in dd.coeffs.items():
            for point in rng.uniform(-2, 2, (4, 3)):
                assert eval_real(entry, point) == pytest.approx(0.0, abs=1e-9)


def test_top_degree_derivative_is_empty():
    top = exterior_derivative(BaseForm(2, 2, {(0, 1): "x0 * x1"}))
    assert top.degree == 3
    assert top.coeffs == {}


def test_gradient_of_a_scalar_form():
    dd = exterior_derivative(BaseForm(0, 2, {(): "x0 * x1"}))
    assert eval_real(dd.coefficient((0,)), [2.0, 3.0]) == pytest.approx(3.0)
    assert eval_real(dd.coefficient((1,)), [2.0, 3.0]) == pytest.approx(2.0)


def test_interior_product_contracts_the_first_slot():
    omega = BaseForm(2, 2, {(0, 1): 1.0})
    pulled = base_interior_product(BaseVectorField([parse_expr("1", 2), parse_expr("0", 2)]), omega)
    assert pulled.degree == 1
    assert eval_real(pulled.coefficient((1,)), [0.0, 0.0]) == pytest.approx(1.0)
    assert eval_real(pulled.coefficient((0,)), [0.0, 0.0]) == pytest.approx(0.0)


def test_matrix_inverse_matches_a_dual_number_oracle():
    # A + tB inverts to A^{-1} - t A^{-1} B A^{-1} when t^2 = 0
    rng = np.random.default_rng(23)
    real = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
    nil = rng.uniform(-1, 1, (3, 3))
    rows = [
        [DUAL.element([real[i, j], nil[i, j]]) for j in range(3)]
        for i in range(3)
    ]
    got = weil_matrix_inverse(rows)
    inv = np.linalg.inv(real)
    correction = -inv @ nil @ inv
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(
                got[i][j].coeffs, [inv[i, j], correction[i, j]], atol=1e-9
            )


def test_matrix_inverse_is_exact_at_full_depth():
    rng = np.random.default_rng(29)
    rows = [
        [
            T3.element(np.concatenate([[4 * np.eye(2)[i, j] + rng.uniform(-1, 1)], rng.uniform(-1, 1, 2)]))
            for j in range(2)
        ]
        for i in range(2)
    ]
    inverse = weil_matrix_inverse(rows)
    for i in range(2):
        for j in range(2):
            acc = T3.zero()
            for k in range(2):
                acc = acc + rows[i][k] * inverse[k][j]
            target = T3.unit() if i == j else T3.zero()
            assert acc.almost_equal(target, tol=1e-9)


def test_truncating_the_neumann_tail_is_detected():
    entry = T3.unit() + T3.basis_element(1)
    exact = weil_matrix_inverse([[entry]])[0][0]
    assert (entry * exact).almost_equal(T3.unit(), tol=1e-12)
    short = T3.element(_matrix_inverse(T3, entry.coeffs[None, None, :],
                                       terms=T3.height)[0, 0])
    assert not (entry * short).almost_equal(T3.unit(), tol=1e-6)


def test_singular_real_part_is_rejected():
    with pytest.raises(SingularRealPart):
        weil_matrix_inverse([[T3.basis_element(1)]])


def _matrix_product_by_k(algebra, a, b):
    """One kernel call per summation index k: the reference the one-call
    matrix product must match bit for bit."""
    acc = None
    for k in range(a.shape[-2]):
        left, right = np.broadcast_arrays(a[..., :, k:k + 1, :], b[..., k:k + 1, :, :])
        term = _product(algebra, left, right)
        acc = term if acc is None else acc + term
    return acc


def _mixed_matrices(rng, shape, dim):
    """Random matrices over A in which about a third of the entries are
    real, some of those with a negative zero nilpotent part."""
    out = rng.uniform(-1.0, 1.0, shape + (dim,))
    real = rng.random(shape) < 0.35
    out[real, 1:] = np.where(rng.random((real.sum(), dim - 1)) < 0.5, -0.0, 0.0)
    return out


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_one_call_matrix_product_equals_the_sum_over_k(key, batch):
    algebra = battery_algebra(key)
    rng = np.random.default_rng(len(batch) + algebra.dim)
    for m in range(1, 5):
        for p in range(1, 5):
            for q in range(1, 5):
                a = _mixed_matrices(rng, batch + (m, p), algebra.dim)
                b = _mixed_matrices(rng, batch + (p, q), algebra.dim)
                pairs = [(a, b)]
                if batch:
                    pairs += [(a[0], b), (a, b[0])]
                for left, right in pairs:
                    got = _matrix_product(algebra, left, right)
                    want = _matrix_product_by_k(algebra, left, right)
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("terms", ["full", "height"])
@pytest.mark.parametrize("samples", [1, 5])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_stacked_matrix_kernel_equals_single_inverses(key, size, samples, terms):
    algebra = battery_algebra(key)
    count = algebra.height if terms == "height" else None
    rng = np.random.default_rng(10 * size + samples)
    stack = rng.uniform(-1.0, 1.0, (samples, size, size, algebra.dim))
    stack[..., 0] += 3.0 * np.eye(size)
    stack[:, 0, -1, 1:] = 0.0  # a real entry in every matrix
    stack[-1, ..., 1:] = 0.0   # a real matrix, whose series ends at once
    inverses = _matrix_inverse(algebra, stack, terms=count)
    products = _matrix_product(algebra, stack, inverses)
    assert inverses.shape == products.shape == stack.shape
    for s in range(samples):
        single = _matrix_inverse(algebra, stack[s], terms=count)
        assert np.array_equal(inverses[s], single)
        rows = [[algebra.element(entry) for entry in row] for row in stack[s]]
        inverse = [[algebra.element(entry) for entry in row] for row in single]
        if count is None:
            public = weil_matrix_inverse(rows)
            assert np.array_equal(single, [[e.coeffs for e in row] for row in public])
        for i in range(size):
            for j in range(size):
                acc = rows[i][0] * inverse[0][j]
                for k in range(1, size):
                    acc = acc + rows[i][k] * inverse[k][j]
                assert np.array_equal(products[s, i, j], acc.coeffs)


def _unit_embedded_inverse(algebra, matrix, terms=None):
    """The solve as it read with M0^{-1} held as A-valued entries, multiples
    of the unit, and the series started at the identity: the reference the
    real-matrix form must match bit for bit."""
    real_inv = np.linalg.inv(matrix[..., 0])[..., None] * _unit(algebra)
    nil = matrix.copy()
    nil[..., 0] = 0.0
    c = _matrix_product(algebra, nil, -real_inv)
    count = algebra.height + 1 if terms is None else terms
    identity = np.eye(matrix.shape[-2])[..., None] * _unit(algebra)
    series, power, live = identity.reshape(-1), identity, True
    for _ in range(count - 1):
        power = _matrix_product(algebra, c, power)
        flat = power.reshape(matrix.shape[:-3] + (-1,))
        live = _live(flat, live)
        if live is False:
            break
        series = _add_live(series, flat, live)
    series = series.reshape(series.shape[:-1] + identity.shape)
    return _matrix_product(algebra, series.swapaxes(-3, -2),
                           real_inv.swapaxes(-3, -2)).swapaxes(-3, -2)


@pytest.mark.parametrize("terms", ["full", "height", "one"])
@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_real_inverse_matches_the_unit_embedded_form(key, batch, terms):
    algebra = battery_algebra(key)
    count = {"full": None, "height": algebra.height, "one": 1}[terms]
    rng = np.random.default_rng(algebra.dim + len(batch))
    for size in [1, 2, 3, 4, 5, 6, 16]:
        stack = _mixed_matrices(rng, batch + (size, size), algebra.dim)
        stack[..., 0] += 3.0 * np.eye(size)
        matrices = [stack, stack[..., 0:1] * _unit(algebra)]  # and its real part
        if batch:
            stack[-1, ..., 1:] = 0.0  # a real matrix among general ones
        for matrix in matrices:
            got = _matrix_inverse(algebra, matrix, terms=count)
            want = _unit_embedded_inverse(algebra, matrix, terms=count)
            assert got.shape == want.shape == matrix.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_batch_with_a_singular_solve_point_raises():
    structure = SymplecticStructure(BaseForm(2, 2, {(0, 1): "x0"}), validate=False)
    potential = prolong_function(parse_expr("x0 * x1^2", 2), T3)
    component = hamiltonian_field(potential, structure).components[0]
    coeffs = np.array(sample_near_points(T3, 2, np.random.default_rng(3), 4).coeffs)
    assert component.evaluate(NearPoint.from_coeffs(T3, coeffs)).shape == (4, 3)
    coeffs[2, 0, 0] = 0.0
    with pytest.raises(SingularRealPart):
        component.evaluate(NearPoint.from_coeffs(T3, coeffs))


def test_solves_do_not_keep_their_points_alive():
    potential = prolong_function(parse_expr("sin(x0) * x1^2", 2), T3)
    component = hamiltonian_field(potential, curved_structure()).components[0]
    derivative = component.partial(1)
    rng = np.random.default_rng(5)
    refs = []
    for _ in range(1000):
        point = sample_near_point(T3, 2, rng)
        component.evaluate(point)
        derivative.evaluate(point)
        refs.append(weakref.ref(point))
    del point
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_structure_validation():
    with pytest.raises(InvalidSymplecticStructure):
        SymplecticStructure(BaseForm(2, 3, {(0, 1): 1.0, (1, 2): 1.0}))
    with pytest.raises(InvalidSymplecticStructure):
        SymplecticStructure(BaseForm(2, 4, {(0, 1): 1.0}))
    with pytest.raises(DegreeError):
        SymplecticStructure(BaseForm(1, 2, {(0,): 1.0}))


def test_hamiltonian_field_oracles():
    rng = np.random.default_rng(7)
    point = sample_near_point(DUAL, 2, rng)
    # the energy rotates: X_H = (x1, -x0)
    energy = prolong_function(parse_expr("(x0^2 + x1^2) / 2", 2), DUAL)
    field = hamiltonian_field(energy, canonical_structure())
    assert field.components[0].evaluate(point).almost_equal(DUAL.element(point.coeffs[1]), tol=1e-9)
    assert field.components[1].evaluate(point).almost_equal(
        DUAL.element(point.coeffs[0]) * DUAL.from_real(-1.0), tol=1e-9
    )
    # coordinate functions move each other: X_{x1} = (1, 0) and X_{x0} = (0, -1)
    first = hamiltonian_field(prolong_function(parse_expr("x1", 2), DUAL),
                              canonical_structure())
    assert first.components[0].evaluate(point).almost_equal(DUAL.unit(), tol=1e-9)
    assert first.components[1].evaluate(point).almost_equal(DUAL.zero(), tol=1e-9)


def test_symplectic_bracket_of_coordinates():
    x0 = prolong_function(parse_expr("x0", 2), DUAL)
    x1 = prolong_function(parse_expr("x1", 2), DUAL)
    bracket = symplectic_bracket(x0, x1, canonical_structure())
    point = sample_near_point(DUAL, 2, np.random.default_rng(3))
    assert bracket.evaluate(point).almost_equal(DUAL.from_real(-1.0), tol=1e-10)


def test_inverse_bivector_oracles():
    flat = inverse_bivector(canonical_structure())
    assert eval_real(flat.entry(0, 1), [0.5, 0.5]) == pytest.approx(-1.0)
    curved = inverse_bivector(curved_structure())
    rng = np.random.default_rng(11)
    for point in rng.uniform(-2, 2, (6, 2)):
        assert eval_real(curved.entry(0, 1), point) == pytest.approx(
            -1.0 / (1.0 + point[0] ** 2), abs=1e-10
        )


def test_bracket_coincides_with_the_inverse_bivector_bracket():
    f = prolong_function(parse_expr("x0^2 + x1", 2), T3)
    g = prolong_function(parse_expr("sin(x0) * x1", 2), T3)
    via_form = symplectic_bracket(f, g, curved_structure())
    via_bivector = prolonged_bracket(inverse_bivector(curved_structure()), f, g)
    [(residual, _)] = max_difference([(via_form, via_bivector)], samples=8,
                                     rng=np.random.default_rng(5))
    assert residual <= 1e-9


def test_local_decision_for_flat_and_curved_structures():
    rng = np.random.default_rng(13)
    for structure in (canonical_structure(), curved_structure()):
        base = base_hamiltonian_field(parse_expr("x0 * x1 + x1^2", 2), structure)
        good = prolong_vector_field(base, DUAL)
        residual, _ = symplectic_closedness_defect(
            good, structure, samples=10, rng=np.random.default_rng(0)
        )
        assert residual <= 1e-9
        bad = prolong_vector_field(
            BaseVectorField([parse_expr("0", 2), parse_expr("x1", 2)]), DUAL
        )
        residual, _ = symplectic_closedness_defect(
            bad, structure, samples=10, rng=np.random.default_rng(0)
        )
        assert residual > 1e-9


def test_global_witness_signs():
    canonical = canonical_structure()
    energy = prolong_function(parse_expr("(x0^2 + x1^2) / 2", 2), DUAL)
    field = hamiltonian_field(energy, canonical)
    residual, _ = check_global_witness_symplectic(
        field, energy, canonical, rng=np.random.default_rng(2)
    )
    assert residual <= 1e-9
    # the opposite convention is the negated witness, which this field refuses
    flipped = energy * -1.0
    residual, witness = check_global_witness_symplectic(
        field, flipped, canonical, rng=np.random.default_rng(2)
    )
    assert residual > 1e-9
    assert set(witness) == {"component", "point"} and witness["component"] in (0, 1)
    negated = field.scaled(BundleFunction.constant(-1.0, DUAL, 2))
    residual, _ = check_global_witness_symplectic(
        negated, flipped, canonical, rng=np.random.default_rng(2)
    )
    assert residual <= 1e-9
    stray = prolong_function(parse_expr("x0 * x1", 2), DUAL)
    residual, _ = check_global_witness_symplectic(
        field, stray, canonical, rng=np.random.default_rng(2)
    )
    assert residual > 1e-9


def _one_coefficient_at_a_time(field, witness, structure, samples, rng):
    """The witness check comparing the coefficients one at a time, each on
    its own draw: the reference for the grouped check.  Returns the worst
    residual and the first component that holds it."""
    n = structure.arity
    contracted = interior_product(field, prolong_form(structure.form, field.algebra))
    worst, component = -1.0, None
    for i in range(n):
        [(residual, _)] = max_difference(
            [(contracted.coefficient((i,)), witness.partial(i))],
            samples=samples, rng=rng)
        if residual > worst:
            worst, component = residual, i
    return worst, component


def curved_four_form() -> SymplecticStructure:
    return SymplecticStructure(BaseForm(2, 4, {(0, 1): "1 + 0.5*x0^2", (0, 2): 0.3,
                                               (2, 3): "2 + cos(0.7*x3)"}))


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "t3"])
@pytest.mark.parametrize("form", ["canonical:4", "curved4"])
@pytest.mark.parametrize("samples", [3, 32])
def test_witness_groups_give_the_verdict_and_draws_of_one_coefficient_at_a_time(
        algebra, form, samples):
    structure = (SymplecticStructure.canonical(4) if form == "canonical:4"
                 else curved_four_form())
    potential = prolong_function(parse_expr("x0*x2 + sin(x1)*x3^2", 4), algebra)
    field = hamiltonian_field(potential, structure)
    stray = prolong_function(parse_expr("x0*x1 + x3", 4), algebra)
    for witness, ok in ((potential, True), (stray, False)):
        grouped, alone = np.random.default_rng(4), np.random.default_rng(4)
        residual, found = check_global_witness_symplectic(
            field, witness, structure, samples=samples, rng=grouped)
        assert (residual, found["component"]) == _one_coefficient_at_a_time(
            field, witness, structure, samples, alone)
        assert (residual <= 1e-9) is ok
        # one group is drawn, whether the witness passes or not
        assert grouped.bit_generator.state == alone.bit_generator.state


# Closedness is one sampled group, naming the worst coefficient and point;
# the determinant is then sampled at points drawn after that group.
@pytest.mark.parametrize("coeffs, message", [
    ({(0, 1): "x1 + x2"}, "the form is not closed: d-coefficient (0, 1, 2) is 1.000e+00 "
                          "at (-0.2445, 0.7895, 1.9025, 1.1443)"),
    ({(0, 1): 1.0}, "the form degenerates (det 0.000e+00) at "
                    "(-0.2445, 0.7895, 1.9025, 1.1443)"),
    ({(0, 1): "1e-6*log(x1 + 1.5)", (2, 3): 1e-6},
     "the form degenerates (det 2.333e-24) at (1.3245, -1.2829, 1.4982, -0.7587)"),
    ({(0, 1): 1e-6, (2, 3): "1e-6 + 1e-7*x1^3"},
     "the form is not closed: d-coefficient (1, 2, 3) is 1.165e-06 at "
     "(-1.441, -1.9706, 0.6594, 1.1229)"),
], ids=["not-closed", "degenerate", "degenerate-log", "nearly-closed"])
def test_validation_names_its_worst_coefficient_or_degenerate_point(coeffs, message):
    with pytest.raises(InvalidSymplecticStructure) as caught:
        SymplecticStructure(BaseForm(2, 4, coeffs))
    assert str(caught.value) == message


def test_prolonged_contraction_of_a_hamiltonian_field_is_closed():
    omega = prolong_form(curved_structure().form, T3)
    fn = prolong_function(parse_expr("x0^2 * x1", 2), T3)
    field = hamiltonian_field(fn, curved_structure())
    closed = bundle_exterior_derivative(interior_product(field, omega))
    rng = np.random.default_rng(17)
    paired = closed.coefficient((0, 1))
    for _ in range(5):
        point = sample_near_point(T3, 2, rng)
        assert paired.evaluate(point).almost_equal(T3.zero(), tol=1e-8)


def test_scaled_contraction_is_function_linear():
    omega = prolong_form(canonical_structure().form, DUAL)
    fn = prolong_function(parse_expr("x0 + x1^2", 2), DUAL)
    field = hamiltonian_field(fn, canonical_structure())
    weight = prolong_function(parse_expr("x0 * x1", 2), DUAL)
    left = interior_product(field.scaled(weight), omega)
    right = interior_product(field, omega)
    for idx in ((0,), (1,)):
        [(residual, _)] = max_difference(
            [(left.coefficient(idx), right.coefficient(idx) * weight)],
            samples=8, rng=np.random.default_rng(8))
        assert residual <= 1e-9


@pytest.mark.parametrize("algebra", [DUAL, T3], ids=["dual", "t3"])
@pytest.mark.parametrize("structure", [
    SymplecticStructure.canonical(4),
    SymplecticStructure(BaseForm(2, 4, {(0, 1): "1 + x0^2 + x1^2", (2, 3): "2 + x2*x3",
                                        (0, 2): 0.5})),
], ids=["canonical4", "closed4"])
def test_closedness_names_the_open_pair_in_four_dimensions(structure, algebra):
    potential = prolong_function(parse_expr("x0 * x3 + x1^2 * x2", 4), algebra)
    solved = hamiltonian_field(potential, structure)
    assert symplectic_closedness_defect(solved, structure, samples=8)[0] <= 1e-9
    for components, pair in ((["0", "x1", "0", "0"], [0, 1]),
                             (["0", "0", "0", "x3"], [2, 3])):
        field = prolong_vector_field(
            BaseVectorField([parse_expr(c, 4) for c in components]), algebra)
        residual, witness = symplectic_closedness_defect(field, structure, samples=8)
        assert residual > 1e-3
        assert witness["pair"] == pair
