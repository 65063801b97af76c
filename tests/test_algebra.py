"""Ring laws, validation, and inversion for Weil algebras."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weiljet.algebra import (
    _ideal_filtration,
    _monomials,
    CapacityError,
    NoUnit,
    NotAssociative,
    NotCommutative,
    NotInvertible,
    NotLocal,
    make_truncated_algebra,
    validate_algebra,
)
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


def test_ideal_filtration_shrinks():
    filtration = M3.ideal_filtration
    assert len(filtration) == M3.height
    ranks = [basis.shape[0] for basis in filtration]
    assert ranks[0] == M3.dim - 1
    assert ranks == sorted(ranks, reverse=True)
    # two generators at height two leave the three quadratic monomials on top
    assert ranks[-1] == 3


def test_compatibility_is_structural():
    assert DUAL.compatible_with(make_truncated_algebra(1, 1))
    assert not DUAL.compatible_with(T4)


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
        # a real operand on either side only scales the other factor
        real = algebra.from_real(float(rng.uniform(-2.0, 2.0)))
        assert np.array_equal((a * real).coeffs, _dense_product(a, real))
        assert np.array_equal((real * a).coeffs, _dense_product(real, a))
        assert (a * a.inverse()).almost_equal(algebra.unit(), tol=1e-9)


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
    return constants, _ideal_filtration(constants)[0]


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
    assert algebra.height == len(algebra.ideal_filtration)


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
