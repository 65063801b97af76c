"""Ring laws, validation, and inversion for Weil algebras."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weiljet.algebra import (
    _monomials,
    _table_height,
    CapacityError,
    NoUnit,
    NotAssociative,
    NotCommutative,
    NotInvertible,
    NotLocal,
    make_truncated_algebra,
    validate_algebra,
)
from weiljet import algebra as algebra_module
from weiljet.harness import ALL_ALGEBRAS, battery_algebra

DUAL = make_truncated_algebra(1, 1)
T4 = make_truncated_algebra(1, 3)
M2 = make_truncated_algebra(2, 1)
M3 = make_truncated_algebra(2, 2)
ALGEBRAS = (DUAL, T4, M2, M3)

coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


def elements(algebra, count=1):
    return st.lists(
        st.lists(coeff, min_size=algebra.dim, max_size=algebra.dim).map(algebra.element),
        min_size=count,
        max_size=count,
    )


@pytest.mark.parametrize(
    "width,height,dim",
    [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 3), (2, 2, 6), (3, 2, 10)],
)
def test_truncated_dimension_and_height(width, height, dim):
    algebra = make_truncated_algebra(width, height)
    assert algebra.dim == dim == math.comb(width + height, width)
    assert algebra.height == height
    assert algebra.basis_labels[0] == "1"


def test_dual_basis_labels():
    assert DUAL.basis_labels == ("1", "t")
    t = DUAL.basis_element(1)
    assert (t * t).is_zero()


def test_capacity_cap_is_enforced():
    # C(25, 22) = 2300 basis monomials, well past the cap
    with pytest.raises(CapacityError):
        make_truncated_algebra(22, 3)


def _table(dim):
    return [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]


def _with_unit(constants):
    dim = len(constants)
    for i in range(dim):
        constants[0][i][i] = 1.0
        constants[i][0][i] = 1.0
    return constants


def test_validate_accepts_a_known_table():
    algebra = validate_algebra(DUAL.structure_constants)
    assert algebra.dim == 2
    assert algebra.height == 1


def test_validate_rejects_missing_unit():
    constants = _table(1)
    constants[0][0][0] = 2.0
    with pytest.raises(NoUnit):
        validate_algebra(constants)


def test_validate_rejects_noncommutative_table():
    constants = _with_unit(_table(3))
    constants[1][2][1] = 1.0  # e1*e2 = e1 but e2*e1 = 0
    with pytest.raises(NotCommutative):
        validate_algebra(constants)


def test_validate_rejects_nonassociative_table():
    constants = _with_unit(_table(3))
    constants[1][1][2] = 1.0  # e1*e1 = e2
    constants[2][2][1] = 1.0  # e2*e2 = e1, so (e1 e1) e2 != e1 (e1 e2)
    with pytest.raises(NotAssociative):
        validate_algebra(constants)


def test_validate_rejects_nonlocal_table():
    constants = _with_unit(_table(2))
    constants[1][1][1] = 1.0  # e1 idempotent, so the ideal is not nilpotent
    with pytest.raises(NotLocal):
        validate_algebra(constants)


@given(st.data())
def test_ring_laws(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    a, b, c = data.draw(elements(algebra, 3))
    assert (a * b).almost_equal(b * a, tol=1e-9)
    assert ((a * b) * c).almost_equal(a * (b * c), tol=1e-7)
    assert (a * (b + c)).almost_equal(a * b + a * c, tol=1e-7)
    assert (algebra.unit() * a).almost_equal(a, tol=1e-12)
    assert (a - a).is_zero()


@given(st.data())
def test_maximal_ideal_is_nilpotent(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    factors = [e.nilpotent_part() for e in data.draw(elements(algebra, algebra.height + 1))]
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    assert product.is_zero()


def test_augmentation_and_zero_tolerance():
    assert DUAL.from_real(3.5).augmentation == pytest.approx(3.5)
    assert DUAL.zero().is_zero()
    # is_zero is structural; tolerant comparison goes through almost_equal
    assert not DUAL.element([0.0, 1e-12]).is_zero()
    assert DUAL.element([0.0, 1e-12]).almost_equal(DUAL.zero())
    # the working tolerance governs invertibility decisions
    with pytest.raises(NotInvertible):
        DUAL.element([1e-12, 1.0]).inverse()


@given(st.data())
def test_inverse_roundtrip(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    (a,) = data.draw(elements(algebra, 1))
    if abs(a.augmentation) < 0.5:
        a = a + algebra.from_real(1.0)
    assert (a * a.inverse()).almost_equal(algebra.unit(), tol=1e-6)


def test_geometric_series_inverse():
    # (1 + t)^{-1} = 1 - t + t^2 - t^3 once t^4 = 0
    e = T4.unit() + T4.basis_element(1)
    np.testing.assert_allclose(e.inverse().coeffs, [1.0, -1.0, 1.0, -1.0], atol=1e-12)


def test_zero_augmentation_is_not_invertible():
    with pytest.raises(NotInvertible):
        DUAL.basis_element(1).inverse()


def test_compatibility_is_structural():
    assert DUAL.compatible_with(make_truncated_algebra(1, 1))
    assert not DUAL.compatible_with(T4)


def test_hash_agrees_with_equality_on_signed_zeros():
    a, b = DUAL.element([0.0, 1.0]), DUAL.element([-0.0, 1.0])
    assert a == b
    assert len({a, b}) == 1


def _dense_product(a, b):
    constants = a.algebra.structure_constants
    return np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, constants)


def _random_element(algebra, rng):
    coeffs = rng.uniform(-1.0, 1.0, size=algebra.dim)
    coeffs[0] = rng.uniform(0.5, 2.0)
    return algebra.element(coeffs)


def _rescaled_truncated_1_3():
    # basis f_i = s_i t^i of R[t]/(t^4), so f_i f_j = (s_i s_j / s_{i+j}) f_{i+j}
    scales = (1.0, 2.0, 0.5, 3.0)
    constants = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4 - i):
            constants[i, j, i + j] = scales[i] * scales[j] / scales[i + j]
    return validate_algebra(constants)


@pytest.mark.parametrize(
    "algebra",
    [make_truncated_algebra(1, 1), make_truncated_algebra(3, 2),
     make_truncated_algebra(4, 3), make_truncated_algebra(4, 4),
     _rescaled_truncated_1_3()],
    ids=["dim2", "dim10", "dim35", "dim70", "rescaled-table"],
)
def test_product_matches_the_dense_table(algebra):
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = _random_element(algebra, rng), _random_element(algebra, rng)
        np.testing.assert_allclose((a * b).coeffs, _dense_product(a, b),
                                   rtol=1e-12, atol=1e-12)
        # a real operand on either side gives the dense product exactly: its
        # only nonzero summands scale the other factor
        real = algebra.from_real(float(rng.uniform(-2.0, 2.0)))
        assert np.array_equal((a * real).coeffs, _dense_product(a, real))
        assert np.array_equal((real * a).coeffs, _dense_product(real, a))
        assert (a * a.inverse()).almost_equal(algebra.unit(), tol=1e-9)


def _special_rows(rng, rows, dim, kinds):
    """``rows`` coefficient rows, each of a kind drawn from ``kinds``:
    "general" (every slot nonzero), "real" (nilpotent part +0.0 or -0.0) or
    "partial" (some nilpotent slots zero); about one slot in eight holds
    -0.0, +-inf or NaN instead."""
    out = rng.uniform(-2.0, 2.0, (rows, dim))
    for r, kind in enumerate(rng.choice(kinds, rows)):
        if kind == "real":
            out[r, 1:] = rng.choice([0.0, -0.0], dim - 1)
        elif kind == "partial":
            out[r, 1:][rng.random(dim - 1) < 0.5] = 0.0
    special = rng.random((rows, dim)) < 0.125
    out[special] = rng.choice([-0.0, np.inf, -np.inf, np.nan], special.sum())
    return out


def _same_bits(got, want):
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("kinds", [("general",), ("real",), ("partial",),
                                   ("general", "real", "partial")])
@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_batched_products_equal_single_products_bit_for_bit(key, kinds):
    algebra = battery_algebra(key)
    rng = np.random.default_rng(algebra.dim * 10 + len(kinds))
    product = algebra_module._product
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(20):
            a = _special_rows(rng, 6, algebra.dim, kinds)
            b = _special_rows(rng, 6, algebra.dim, kinds)
            batched = product(algebra, a, b)
            assert _same_bits(batched, [product(algebra, a[r], b[r]) for r in range(6)])
            # a single element against a batch, on either side
            for single in (a[0], b[0]):
                assert _same_bits(product(algebra, single, b),
                                  [product(algebra, single, row) for row in b])
                assert _same_bits(product(algebra, a, single),
                                  [product(algebra, row, single) for row in a])
            # leading axes of any rank
            assert _same_bits(product(algebra, a.reshape(2, 3, -1),
                                      b.reshape(2, 3, -1)),
                              batched.reshape(2, 3, -1))


@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_a_real_factor_gets_the_general_sum(key):
    """The kernel has one rule for every pair of factors: a real factor's
    product has the nonzero bits of scaling the other factor, and +0.0
    wherever a coefficient is zero, whatever the signs of the zeros."""
    algebra = battery_algebra(key)
    rng = np.random.default_rng(algebra.dim)
    product = algebra_module._product
    a = _special_rows(rng, 6, algebra.dim, ("general", "real", "partial"))
    a[~np.isfinite(a)] = -0.0
    real = np.zeros((6, algebra.dim))
    real[:, 0] = rng.uniform(-2.0, 2.0, 6)
    real[1:4, 0] = (0.0, -0.0, -1.0)
    real[::2, 1:] = -0.0
    scaled = a * real[:, :1]
    zero = scaled == 0.0
    for got in (product(algebra, a, real), product(algebra, real, a),
                [product(algebra, a[r], real[r]) for r in range(6)],
                [product(algebra, real[r], a[r]) for r in range(6)]):
        got = np.asarray(got)
        assert _same_bits(got[~zero], scaled[~zero])
        assert not np.signbit(got[zero]).any()


def test_arithmetic_results_are_read_only():
    a = M3.element([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = M3.element([0.5, -1.0, 0.0, 2.0, 1.0, -3.0])
    results = (a + b, a - b, -a, a * b, a * 2.0, 2.0 - a, a / 2.0, a ** 3,
               a.inverse(), a.nilpotent_part(), M3.from_real(1.5), M3.zero())
    for result in results:
        assert not result.coeffs.flags.writeable


@pytest.mark.parametrize("a0,exponent", [(1.0, 100_000_000), (1.00001, 1_000_000),
                                         (0.9999, 100_000), (-1.5, 33)])
def test_large_integer_powers_of_dual_numbers(a0, exponent):
    # (a0 + t)^N = a0^N + N a0^(N-1) t once t^2 = 0
    power = DUAL.element([a0, 1.0]) ** exponent
    expected = [a0 ** exponent, exponent * a0 ** (exponent - 1)]
    np.testing.assert_allclose(power.coeffs, expected, rtol=1e-9)


def _counting_products(monkeypatch):
    """Count the kernel's products inside the algebra module from here on."""
    calls = []

    def counted(*args):
        calls.append(1)
        return product(*args)

    product = algebra_module._product
    monkeypatch.setattr(algebra_module, "_product", counted)
    return calls


@pytest.mark.parametrize("exponent,products", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_a_power_multiplies_no_factor_into_the_unit(monkeypatch, exponent, products):
    a = M3.element([1.5, -0.5, 0.25, 2.0, -1.0, 0.75])
    calls = _counting_products(monkeypatch)
    power = a ** exponent
    assert len(calls) == products
    expected = a
    for _ in range(exponent - 1):
        expected = expected * a
    np.testing.assert_allclose(power.coeffs, expected.coeffs, rtol=1e-12)


def test_powers_zero_and_one_are_the_unit_and_the_element():
    a = M3.element([1.5, -0.5, 0.25, 2.0, -1.0, 0.75])
    assert np.array_equal((a ** 0).coeffs, M3.unit().coeffs)
    assert np.array_equal((a ** 1).coeffs, a.coeffs)
    for result in (a ** 0, a ** 1):
        assert not result.coeffs.flags.writeable


@pytest.mark.parametrize("height", [1, 2, 5])
def test_an_inverse_at_a_general_point_costs_height_minus_one_products(
        monkeypatch, height):
    algebra = make_truncated_algebra(1, height)
    a = algebra.element(np.arange(2.0, algebra.dim + 2.0))
    calls = _counting_products(monkeypatch)
    inverse = a.inverse()
    assert len(calls) == height - 1
    # the series as it read with the unit as its zeroth term, bit for bit
    nil = a.nilpotent_part() * (1.0 / a.augmentation)
    acc = term = algebra.unit()
    for _ in range(height):
        term = -(term * nil)
        acc = acc + term
    assert np.array_equal(inverse.coeffs, acc.coeffs * (1.0 / a.augmentation))


def _recursive_compositions(total, parts):
    """The recursive enumeration the iterative one replaced: the reference
    for the graded basis order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


@pytest.mark.parametrize("width", range(1, 6))
def test_monomial_order_matches_the_recursive_enumeration(width):
    for height in range(7):
        expected = [mono for degree in range(height + 1)
                    for mono in _recursive_compositions(degree, width)]
        assert _monomials(width, height) == expected, height


def test_the_widest_truncated_algebra_builds_quickly():
    # the recursive enumeration took about 0.5 s for the 511 degree-1
    # monomials alone; the whole build now takes about 0.05 s
    def build():
        t0 = time.perf_counter()
        algebra = make_truncated_algebra(511, 1)
        assert algebra.dim == 512
        return time.perf_counter() - t0

    assert min(build() for _ in range(3)) < 0.25


def _dense_truncated(width, height):
    """The dense d x d x d table of truncated:width,height and the height the
    linear-algebra filtration gives it: the reference for the sparse build."""
    monos = _monomials(width, height)
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    constants = np.zeros((dim, dim, dim))
    for i, left in enumerate(monos):
        for j in range(i, dim):
            k = index.get(tuple(a + b for a, b in zip(left, monos[j])))
            if k is not None:
                constants[i, j, k] = constants[j, i, k] = 1.0
    return constants, _table_height(constants)


# small algebras, then the jets workload's seven, dimensions 2 to 70
SMALL_AND_JETS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2),
                  (1, 10), (2, 4), (3, 3), (2, 7), (3, 5), (4, 4)]


@pytest.mark.parametrize("width,height", [*SMALL_AND_JETS, (3, 8)])
def test_sparse_build_matches_the_dense_table(width, height):
    algebra = make_truncated_algebra(width, height)
    constants, dense_height = _dense_truncated(width, height)
    left, right, out = np.nonzero(constants)
    expected = (left, right, out, constants[left, right, out])
    for got, want in zip((algebra._left, algebra._right, algebra._out,
                          algebra._weights), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert algebra.height == dense_height == height
    assert np.array_equal(algebra.structure_constants, constants)


@pytest.mark.parametrize("width,height", SMALL_AND_JETS)
def test_validated_table_is_compatible(width, height):
    algebra = make_truncated_algebra(width, height)
    validated = validate_algebra(algebra.structure_constants)
    assert validated.compatible_with(algebra)
    assert validated.height == algebra.height


@pytest.mark.parametrize("key", ALL_ALGEBRAS)
def test_sparse_height_matches_the_filtration(key):
    algebra = battery_algebra(key)
    assert algebra.height == _table_height(algebra.structure_constants)


def _monomial_rank(suffix, height):
    """Basis index of each monomial of degree <= height, given as the rows
    of ``suffix``: s_u, its degree in t_{u+1}..t_k, for u = 0..k-1.

    In the graded order a monomial comes after those of lower degree, and
    for u = 1..k-1 after those of its degree that agree with it before t_u
    and have a larger exponent of t_u.  Each count is of the monomials in
    t_{u+1}..t_k of degree below s_u, and there are comb(s_u - 1 + k - u,
    k - u) of those.  The ranking formula the construction used before it
    looked the products up by exponent tuple: the reference for ``_out``.
    """
    width = suffix.shape[1]
    below = np.array([[math.comb(s - 1 + width - u, width - u)
                       for s in range(height + 1)] for u in range(width)],
                     dtype=np.intp)
    return below[np.arange(width), suffix].sum(axis=1)


# shapes whose dense table would take d^3 memory, at and near the cap
@pytest.mark.parametrize("width,height", [(1, 511), (511, 1), (2, 30), (30, 2), (7, 4)])
def test_product_indices_match_the_ranking_formula(width, height):
    algebra = make_truncated_algebra(width, height)
    exps = np.array(_monomials(width, height), dtype=np.intp).reshape(algebra.dim, width)
    # suffix[i, u]: the degree of monomial i in the variables t_{u+1}..t_k
    suffix = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
    expected = _monomial_rank(suffix[algebra._left] + suffix[algebra._right], height)
    assert algebra._out.dtype == expected.dtype
    assert np.array_equal(algebra._out, expected)


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_memory_stays_cubic():
    # the d^4 intermediates of an all-at-once associativity check would
    # take about 300 MB here
    constants = make_truncated_algebra(3, 5).structure_constants
    assert _traced_peak(lambda: validate_algebra(constants)) < 32e6


@pytest.mark.parametrize("width,height", [(1, 511), (3, 8)])
def test_construction_builds_no_dense_table(width, height):
    # the dense table of truncated:1,511 alone is 1.07 GB
    assert _traced_peak(lambda: make_truncated_algebra(width, height)) < 64e6
