"""Weil algebras over the reals: structure-constant tables, elements, inversion.

A Weil algebra is a finite-dimensional commutative unital real algebra with a
unique maximal ideal m of codimension one; m is nilpotent and the largest h
with m^h != (0) is the height.  The basis convention is fixed throughout the
package: e_0 is the unit and e_1, ..., e_{d-1} span m, so the coefficient of
e_0 is the augmentation (real part) of an element.

An algebra is held as its nonzero structure constants only: the triples
e_left[n] * e_right[n] -> weights[n] * e_out[n], in the row-major order of
the dense d x d x d table.  Products, the fingerprint and the height read the
triples; the dense table and the ideal filtration are built only when asked
for, at d^3 cost.

``make_truncated_algebra(k, h)`` builds the truncated polynomial ring in k
variables modulo all monomials of total degree > h; dual numbers are the
(1, 1) member.  Its basis is monomial, so it lists the products of basis
elements that stay below degree h + 1 directly, and derives the height from
them.  Arbitrary tables enter through ``validate_algebra``, which re-derives
every axiom numerically on the dense table it is given and never trusts a
caller-supplied height.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import (
    AlgebraMismatch,
    AlgebraValidationError,
    CapacityError,
    NoUnit,
    NotAssociative,
    NotCommutative,
    NotInvertible,
    NotLocal,
)

# Working tolerance: ranks, axiom checks and invertibility are decided at it.
ZERO_TOL = 1e-10
# Largest algebra dimension make_truncated_algebra builds.
MAX_DIM = 512


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of ``parts`` entries summing to ``total``, in reverse
    lexicographic order: (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), ...

    Each step takes one unit from the pivot, the last nonzero entry before
    the final one, and moves it with the final entry's whole value into the
    pivot's right neighbour.  The pivot moves at most one place right per
    step, so the scan back to it costs O(1) amortized and each tuple
    O(parts).
    """
    exps = [total] + [0] * (parts - 1)
    last = parts - 1
    pivot = 0 if last else -1
    while True:
        yield tuple(exps)
        while pivot >= 0 and not exps[pivot]:
            pivot -= 1
        if pivot < 0:
            return
        exps[pivot] -= 1
        carry = exps[last] + 1
        exps[last] = 0
        exps[pivot + 1] = carry
        if pivot + 1 < last:
            pivot += 1


def _monomials(width: int, height: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= height, in graded order.

    Within one degree the first variable dominates, so for two variables the
    order is 1, t1, t2, t1^2, t1*t2, t2^2, ...  The order is part of the
    serialization contract: coefficient vectors are exchanged positionally.
    """
    monos: list[tuple[int, ...]] = []
    for degree in range(height + 1):
        monos.extend(_compositions(degree, width))
    return monos


def _monomial_label(mono: tuple[int, ...]) -> str:
    if not any(mono):
        return "1"
    parts = []
    for idx, exp in enumerate(mono):
        if exp == 0:
            continue
        name = "t" if len(mono) == 1 else f"t{idx + 1}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _row_space_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, ranks decided at ZERO_TOL."""
    d = rows.shape[1] if rows.ndim == 2 else 0
    rows = rows[np.any(np.abs(rows) > ZERO_TOL, axis=1)]
    if rows.shape[0] == 0:
        return np.zeros((0, d))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > ZERO_TOL))
    return vt[:rank]


def _ideal_filtration(constants: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Compute the filtration m, m^2, ... and the height from the table alone.

    Raises NotLocal when span(e_1..e_{d-1}) is not an ideal or fails to be
    nilpotent within dim steps.
    """
    d = constants.shape[0]
    if d == 1:
        return 0, []
    if np.max(np.abs(constants[1:, 1:, 0])) > ZERO_TOL:
        raise NotLocal("span(e_1..e_{d-1}) is not closed under multiplication")
    generators = np.eye(d)[1:]
    levels = [generators.copy()]
    current = generators
    for _ in range(d):
        # products v * e_j for v in the current level, j >= 1
        prods = np.einsum("ri,ijk->rjk", current, constants)[:, 1:, :].reshape(-1, d)
        basis = _row_space_basis(prods)
        if basis.shape[0] == 0:
            return len(levels), levels
        levels.append(basis)
        current = basis
    raise NotLocal("maximal-ideal candidate is not nilpotent")


def _monomial_rank(suffix: np.ndarray, height: int) -> np.ndarray:
    """Basis index of each monomial of degree <= height, given as the rows
    of ``suffix``: s_u, its degree in t_{u+1}..t_k, for u = 0..k-1.

    In the graded order a monomial comes after those of lower degree, and
    for u = 1..k-1 after those of its degree that agree with it before t_u
    and have a larger exponent of t_u.  Each count is of the monomials in
    t_{u+1}..t_k of degree below s_u, and there are comb(s_u - 1 + k - u,
    k - u) of those.
    """
    width = suffix.shape[1]
    below = np.array([[math.comb(s - 1 + width - u, width - u)
                       for s in range(height + 1)] for u in range(width)],
                     dtype=np.intp)
    return below[np.arange(width), suffix].sum(axis=1)


def _monomial_height(dim: int, left: np.ndarray, right: np.ndarray,
                     out: np.ndarray) -> int:
    """The height from the triples of a monomial basis: m^n is spanned by
    basis elements, and e_j is in m^(n+1) when some e_a e_b with e_a in m^n
    and b >= 1 hits it, as products of monomials never cancel."""
    ideal = (left > 0) & (right > 0)
    left, out = left[ideal], out[ideal]
    level = np.arange(dim) > 0
    for power in range(dim):
        if not level.any():
            return power
        level = np.bincount(out[level[left]], minlength=dim) > 0
    raise NotLocal("maximal-ideal candidate is not nilpotent")


class WeilAlgebra:
    """Immutable structure-constant algebra, held as its nonzero constants.

    Construct through ``make_truncated_algebra`` or ``validate_algebra``; the
    raw constructor trusts its inputs and is meant for code that has already
    established the axioms.  ``left``, ``right`` and ``out`` are intp index
    arrays and ``weights`` a float64 array, listed in the row-major order
    ``np.nonzero`` gives for the dense table: e_left[n] * e_right[n]
    contributes weights[n] to e_out[n].
    """

    __slots__ = ("_dim", "_labels", "_height", "_family", "_fingerprint",
                 "_left", "_right", "_out", "_weights", "_row_slots",
                 "_constants", "_filtration")

    def __init__(self, dim, left, right, out, weights, labels, height,
                 family=("table",)):
        self._dim = int(dim)
        self._left, self._right, self._out, self._weights = (
            left, right, out, weights)
        for arr in (left, right, out, weights):
            arr.setflags(write=False)
        self._labels = tuple(labels)
        self._height = int(height)
        self._family = tuple(family)
        self._fingerprint = hash((self._dim, left.tobytes(), right.tobytes(),
                                  out.tobytes(), weights.tobytes()))
        # _out shifted by d * row for rows 0, 1, ...: the output slots of a
        # batch of products, grown on demand
        self._row_slots = self._out
        self._constants = None
        self._filtration = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def height(self) -> int:
        return self._height

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def structure_constants(self) -> np.ndarray:
        """The dense d x d x d table, built on first request."""
        if self._constants is None:
            table = np.zeros((self._dim,) * 3)
            table[self._left, self._right, self._out] = self._weights
            table.setflags(write=False)
            self._constants = table
        return self._constants

    @property
    def ideal_filtration(self) -> tuple[np.ndarray, ...]:
        """Orthonormal bases of m, m^2, ..., computed from the dense table on
        first request."""
        if self._filtration is None:
            levels = _ideal_filtration(self.structure_constants)[1]
            for level in levels:
                level.setflags(write=False)
            self._filtration = tuple(levels)
        return self._filtration

    @property
    def family(self) -> tuple:
        """Provenance tag used by serialization: ("truncated", k, h) or ("table",)."""
        return self._family

    def compatible_with(self, other: "WeilAlgebra") -> bool:
        return self is other or self._fingerprint == other._fingerprint

    def element(self, coeffs) -> "WeilElement":
        return WeilElement(self, coeffs)

    def from_real(self, value: float) -> "WeilElement":
        coeffs = np.zeros(self.dim)
        coeffs[0] = value
        return _wrap(self, coeffs)

    def unit(self) -> "WeilElement":
        return self.from_real(1.0)

    def zero(self) -> "WeilElement":
        return _wrap(self, np.zeros(self.dim))

    def basis_element(self, index: int) -> "WeilElement":
        coeffs = np.zeros(self.dim)
        coeffs[index] = 1.0
        return _wrap(self, coeffs)

    def __repr__(self) -> str:
        return f"WeilAlgebra(dim={self.dim}, height={self.height})"


def _require_same_algebra(a: WeilAlgebra, b: WeilAlgebra) -> None:
    if not a.compatible_with(b):
        raise AlgebraMismatch("operands live in different algebras")


def _wrap(algebra: WeilAlgebra, coeffs: np.ndarray) -> "WeilElement":
    """Element over a fresh float array of the right shape, which it takes
    over without a copy; arithmetic results come through here."""
    coeffs.setflags(write=False)
    elem = object.__new__(WeilElement)
    elem.algebra = algebra
    elem._coeffs = coeffs
    return elem


# -- the kernel ----------------------------------------------------------------
#
# Arithmetic on coefficient arrays of shape (..., d): one element, or one per
# point of a batch.  Operands share their leading axes, or one of them is a
# single element (d,) that applies to every point.  Every point of a
# batch gets the bits it would get alone, so a batch of S points equals S
# single evaluations exactly.  WeilElement is the front end for one element.

def _unit(algebra: WeilAlgebra) -> np.ndarray:
    coeffs = np.zeros(algebra.dim)
    coeffs[0] = 1.0
    return coeffs


def _product(algebra: WeilAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products through the nonzero structure constants only; a factor with
    zero nilpotent part is a real multiple of the unit e_0 and just scales
    the other factor (the right one is tested first)."""
    if a.ndim == 1 and b.ndim == 1:
        if not np.count_nonzero(b[1:]):
            return a * b[0]
        if not np.count_nonzero(a[1:]):
            return b * a[0]
        weights = a[algebra._left] * b[algebra._right] * algebra._weights
        return np.bincount(algebra._out, weights=weights, minlength=a.shape[0])
    d = algebra.dim
    a2, b2 = a.reshape(-1, d), b.reshape(-1, d)
    # counts of nonzero nilpotent coefficients decide most batches at once
    b_count = np.count_nonzero(b2[:, 1:])
    if not b_count:
        return a * b[..., :1]
    a_count = np.count_nonzero(a2[:, 1:])
    if b_count == b2.shape[0] * (d - 1):
        # no right factor is real
        if not a_count:
            return b * a[..., :1]
        if a_count == a2.shape[0] * (d - 1):
            weights = (a2[:, algebra._left] * b2[:, algebra._right]
                       * algebra._weights)
            return _bincount(algebra, weights, len(weights)).reshape(
                a.shape if a.ndim > 1 else b.shape)
    # real and general factors mixed: each point on its own rule
    a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.reshape(-1, d), b.reshape(-1, d)
    b_real = ~b[:, 1:].any(axis=1)
    a_real = ~a[:, 1:].any(axis=1) & ~b_real
    out = a * b[:, :1]
    out[a_real] = b[a_real] * a[a_real, :1]
    rows = np.flatnonzero(~(b_real | a_real))
    if rows.size:
        weights = (a[rows][:, algebra._left] * b[rows][:, algebra._right]
                   * algebra._weights)
        out[rows] = _bincount(algebra, weights, rows.size).reshape(-1, d)
    return out.reshape(shape)


def _bincount(algebra: WeilAlgebra, weights: np.ndarray, rows: int) -> np.ndarray:
    """Sum the (rows, nnz) products of a batch into rows * d output slots:
    row r of the batch goes to slots d*r + _out, in the order of one product."""
    size = rows * algebra._out.size
    slots = algebra._row_slots
    if slots.size < size:
        slots = algebra._row_slots = (
            algebra._out + algebra.dim * np.arange(rows)[:, None]).ravel()
    return np.bincount(slots[:size], weights=weights.ravel(),
                       minlength=rows * algebra.dim)


def _inverse(algebra: WeilAlgebra, a: np.ndarray) -> np.ndarray:
    """Inverse via the finite Neumann series 1/a0 * sum (-nu/a0)^k.

    The series terminates because the nilpotent part nu satisfies
    nu^(h+1) = 0; each point stops at its first vanishing term.  Raises
    NotInvertible when an augmentation sits within ZERO_TOL of zero.
    """
    a0 = a[..., 0]
    if np.any(np.abs(a0) <= ZERO_TOL):
        raise NotInvertible("augmentation is zero to working tolerance")
    scale = (1.0 / a0)[..., None]
    nil = a.copy()
    nil[..., 0] = 0.0
    scaled_nil = nil * scale
    acc = term = _unit(algebra)
    live = True
    for _ in range(algebra.height):
        term = -_product(algebra, term, scaled_nil)
        live = _live(term, live)
        if live is False:
            break
        acc = _add_live(acc, term, live)
    return acc * scale


def _live(term: np.ndarray, live):
    """Which points still go on after ``term``: a point stops at its first
    term that vanishes, as its series has ended there.  ``live`` is True
    while every point goes on, False when none does, else a mask."""
    if term.ndim == 1:
        return live and bool(np.count_nonzero(term))
    going = term.any(axis=-1)
    if live is not True:
        going &= live
    if going.all():
        return True
    return going if going.any() else False


def _add_live(acc: np.ndarray, term: np.ndarray, live) -> np.ndarray:
    """acc + term at the points still going on, acc elsewhere."""
    if live is True:
        return acc + term
    return np.where(live[..., None], acc + term, acc)


def _power(algebra: WeilAlgebra, a: np.ndarray, exponent: int) -> np.ndarray:
    """Integer power by repeated squaring: O(log |exponent|) products."""
    if exponent < 0:
        return _power(algebra, _inverse(algebra, a), -exponent)
    result = _unit(algebra)
    square = a
    while exponent:
        if exponent & 1:
            result = _product(algebra, result, square)
        exponent >>= 1
        if exponent:
            square = _product(algebra, square, square)
    return result


class WeilElement:
    """An element of a fixed Weil algebra, held as a coefficient vector."""

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs):
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (algebra.dim,):
            raise AlgebraMismatch(
                f"expected {algebra.dim} coefficients, got shape {arr.shape}")
        arr.setflags(write=False)
        self.algebra = algebra
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def augmentation(self) -> float:
        """Image under the algebra map to the reals (the e_0 coefficient)."""
        return float(self._coeffs[0])

    def nilpotent_part(self) -> "WeilElement":
        coeffs = self._coeffs.copy()
        coeffs[0] = 0.0
        return _wrap(self.algebra, coeffs)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, WeilElement):
            _require_same_algebra(self.algebra, other.algebra)
            return _wrap(self.algebra, self._coeffs + other._coeffs)
        if isinstance(other, (int, float)):
            coeffs = self._coeffs.copy()
            coeffs[0] += other
            return _wrap(self.algebra, coeffs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, WeilElement):
            _require_same_algebra(self.algebra, other.algebra)
            return _wrap(self.algebra, self._coeffs - other._coeffs)
        if isinstance(other, (int, float)):
            coeffs = self._coeffs.copy()
            coeffs[0] -= other
            return _wrap(self.algebra, coeffs)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            coeffs = -self._coeffs
            coeffs[0] += other
            return _wrap(self.algebra, coeffs)
        return NotImplemented

    def __neg__(self):
        return _wrap(self.algebra, -self._coeffs)

    def __mul__(self, other):
        if isinstance(other, WeilElement):
            algebra = self.algebra
            _require_same_algebra(algebra, other.algebra)
            return _wrap(algebra, _product(algebra, self._coeffs, other._coeffs))
        if isinstance(other, (int, float)):
            return _wrap(self.algebra, self._coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, WeilElement):
            return self * other.inverse()
        if isinstance(other, (int, float)):
            return _wrap(self.algebra, self._coeffs / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, exponent: int):
        """Integer power by repeated squaring: O(log |exponent|) products."""
        if not isinstance(exponent, int):
            return NotImplemented
        return _wrap(self.algebra, _power(self.algebra, self._coeffs, exponent))

    def inverse(self) -> "WeilElement":
        """Inverse via the finite Neumann series 1/a0 * sum (-nu/a0)^k;
        raises NotInvertible when the augmentation sits within ZERO_TOL of
        zero."""
        return _wrap(self.algebra, _inverse(self.algebra, self._coeffs))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return (self.algebra.compatible_with(other.algebra)
                and np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self):
        return hash((self.algebra._fingerprint, self._coeffs.tobytes()))

    def almost_equal(self, other: "WeilElement", tol: float = 1e-9) -> bool:
        _require_same_algebra(self.algebra, other.algebra)
        return float(np.max(np.abs(self._coeffs - other._coeffs))) <= tol

    def __repr__(self) -> str:
        parts = []
        for c, label in zip(self._coeffs, self.algebra.basis_labels):
            if c == 0.0:
                continue
            parts.append(f"{c:g}" if label == "1" else f"{c:g}*{label}")
        return " + ".join(parts) if parts else "0"


def make_truncated_algebra(width: int, height: int) -> WeilAlgebra:
    """Truncated polynomial algebra R[t1..tk] modulo total degree > height.

    Basis: all monomials of degree <= height in graded order, so the unit is
    basis element 0 and dim = binomial(width + height, width).
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    if height < 0:
        raise ValueError("height must be nonnegative")
    dim = math.comb(width + height, width)
    if dim > MAX_DIM:
        raise CapacityError(f"dimension {dim} exceeds the cap of {MAX_DIM}")
    monos = _monomials(width, height)
    # suffix[i, u]: the degree of monomial i in the variables t_{u+1}..t_k
    suffix = np.cumsum(np.array(monos, dtype=np.intp).reshape(dim, width)[:, ::-1],
                       axis=1)[:, ::-1]
    # e_i e_j is a monomial when deg i + deg j <= height, else zero.  The
    # basis is graded, so those j are the first comb(width + g, width) basis
    # elements, g = height - deg i; row by row they come in np.nonzero order.
    lengths = np.array([math.comb(width + g, width)
                        for g in range(height, -1, -1)])[suffix[:, 0]]
    left = np.repeat(np.arange(dim), lengths)
    right = np.arange(left.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out = _monomial_rank(suffix[left] + suffix[right], height)
    labels = [_monomial_label(m) for m in monos]
    # The monomial table is commutative/associative/local by construction, but
    # the height is still recomputed from the table rather than trusted.
    computed_height = _monomial_height(dim, left, right, out)
    if computed_height != height:
        raise AssertionError("computed height disagrees with the construction")
    return WeilAlgebra(dim, left, right, out, np.ones(left.size), labels,
                       computed_height, family=("truncated", width, height))


def validate_algebra(constants) -> WeilAlgebra:
    """Check a raw structure-constant table and wrap it as a WeilAlgebra.

    Verifies commutativity, unitality of basis element 0, associativity, and
    locality (the complement of the unit spans a nilpotent ideal).  The height
    and the ideal filtration are computed, never taken on faith.
    """
    arr = np.asarray(constants, dtype=float)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise ValueError("structure constants must form a d x d x d array")
    d = arr.shape[0]
    if not np.isfinite(arr).all():
        # every axiom test below compares against ZERO_TOL, and NaN passes them all
        raise AlgebraValidationError("the structure-constant table has non-finite entries")
    if np.max(np.abs(arr - arr.transpose(1, 0, 2))) > ZERO_TOL:
        raise NotCommutative("c[i,j,:] != c[j,i,:]")
    if np.max(np.abs(arr[0] - np.eye(d))) > ZERO_TOL:
        raise NoUnit("basis element 0 does not act as the unit")
    # one left factor e_i at a time, so no d^4 array is formed:
    # [j, (k, l)] of (e_i e_j) e_k and of e_i (e_j e_k)
    rows, columns = arr.reshape(d, d * d), arr.reshape(d * d, d)
    for i in range(d):
        if np.max(np.abs(arr[i] @ rows
                         - (columns @ arr[i]).reshape(d, d * d))) > ZERO_TOL:
            raise NotAssociative("(e_i e_j) e_k != e_i (e_j e_k)")
    height, _ = _ideal_filtration(arr)
    left, right, out = np.nonzero(arr)
    return WeilAlgebra(d, left, right, out, arr[left, right, out],
                       [f"e{i}" for i in range(d)], height, family=("table",))
