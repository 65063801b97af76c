"""Weil algebras over the reals: structure-constant tables, elements, inversion.

A Weil algebra is a finite-dimensional commutative unital real algebra with a
unique maximal ideal m of codimension one; m is nilpotent and the largest h
with m^h != (0) is the height.  The basis convention is fixed throughout the
package: e_0 is the unit and e_1, ..., e_{d-1} span m, so the coefficient of
e_0 is the augmentation (real part) of an element.

``make_truncated_algebra(k, h)`` builds the truncated polynomial ring in k
variables modulo all monomials of total degree > h; dual numbers are the
(1, 1) member.  Arbitrary tables enter through ``validate_algebra``, which
re-derives every axiom numerically and never trusts a caller-supplied height.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

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

DEFAULT_ZERO_TOL = 1e-10
DEFAULT_MAX_DIM = 512


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


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


def _row_space_basis(rows: np.ndarray, zero_tol: float) -> np.ndarray:
    """Orthonormal basis of the row space, ranks decided at zero_tol."""
    d = rows.shape[1] if rows.ndim == 2 else 0
    rows = rows[np.any(np.abs(rows) > zero_tol, axis=1)]
    if rows.shape[0] == 0:
        return np.zeros((0, d))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > zero_tol))
    return vt[:rank]


def _ideal_filtration(constants: np.ndarray, zero_tol: float) -> tuple[int, list[np.ndarray]]:
    """Compute the filtration m, m^2, ... and the height from the table alone.

    Raises NotLocal when span(e_1..e_{d-1}) is not an ideal or fails to be
    nilpotent within dim steps.
    """
    d = constants.shape[0]
    if d == 1:
        return 0, []
    if np.max(np.abs(constants[1:, 1:, 0])) > zero_tol:
        raise NotLocal("span(e_1..e_{d-1}) is not closed under multiplication")
    generators = np.eye(d)[1:]
    levels = [generators.copy()]
    current = generators
    for _ in range(d):
        # products v * e_j for v in the current level, j >= 1
        prods = np.einsum("ri,ijk->rjk", current, constants)[:, 1:, :].reshape(-1, d)
        basis = _row_space_basis(prods, zero_tol)
        if basis.shape[0] == 0:
            return len(levels), levels
        levels.append(basis)
        current = basis
    raise NotLocal("maximal-ideal candidate is not nilpotent")


class WeilAlgebra:
    """Immutable structure-constant algebra.

    Construct through ``make_truncated_algebra`` or ``validate_algebra``; the
    raw constructor trusts its inputs and is meant for code that has already
    established the axioms.
    """

    __slots__ = ("_constants", "_labels", "_height", "_filtration", "_zero_tol",
                 "_family", "_fingerprint", "_left", "_right", "_out", "_weights",
                 "_row_slots")

    def __init__(self, constants, basis_labels, height, ideal_filtration,
                 zero_tol=DEFAULT_ZERO_TOL, family=("table",)):
        arr = np.array(constants, dtype=float)
        arr.setflags(write=False)
        self._constants = arr
        self._labels = tuple(basis_labels)
        self._height = int(height)
        filt = []
        for level in ideal_filtration:
            level = np.array(level, dtype=float)
            level.setflags(write=False)
            filt.append(level)
        self._filtration = tuple(filt)
        self._zero_tol = float(zero_tol)
        self._family = tuple(family)
        self._fingerprint = hash((arr.shape[0], arr.tobytes()))
        # Products read only the nonzero constants: e_left[n] * e_right[n]
        # contributes weights[n] to e_out[n].
        self._left, self._right, self._out = np.nonzero(arr)
        self._weights = arr[self._left, self._right, self._out]
        # _out shifted by d * row for rows 0, 1, ...: the output slots of a
        # batch of products, grown on demand
        self._row_slots = self._out

    @property
    def dim(self) -> int:
        return self._constants.shape[0]

    @property
    def height(self) -> int:
        return self._height

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def structure_constants(self) -> np.ndarray:
        return self._constants

    @property
    def ideal_filtration(self) -> tuple[np.ndarray, ...]:
        return self._filtration

    @property
    def zero_tol(self) -> float:
        return self._zero_tol

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
    NotInvertible when an augmentation sits inside the algebra's zero
    tolerance.
    """
    a0 = a[..., 0]
    if np.any(np.abs(a0) <= algebra.zero_tol):
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
        raises NotInvertible when the augmentation sits inside the algebra's
        zero tolerance."""
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


def make_truncated_algebra(width: int, height: int, *,
                           max_dim: int = DEFAULT_MAX_DIM,
                           zero_tol: float = DEFAULT_ZERO_TOL) -> WeilAlgebra:
    """Truncated polynomial algebra R[t1..tk] modulo total degree > height.

    Basis: all monomials of degree <= height in graded order, so the unit is
    basis element 0 and dim = binomial(width + height, width).
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    if height < 0:
        raise ValueError("height must be nonnegative")
    dim = math.comb(width + height, width)
    if dim > max_dim:
        raise CapacityError(f"dimension {dim} exceeds the cap of {max_dim}")
    monos = _monomials(width, height)
    index = {m: i for i, m in enumerate(monos)}
    constants = np.zeros((dim, dim, dim))
    for i, left in enumerate(monos):
        for j in range(i, dim):
            prod = tuple(a + b for a, b in zip(left, monos[j]))
            k = index.get(prod)
            if k is not None:
                constants[i, j, k] = 1.0
                constants[j, i, k] = 1.0
    labels = [_monomial_label(m) for m in monos]
    # The monomial table is commutative/associative/local by construction, but
    # the height is still recomputed from the table rather than trusted.
    computed_height, filtration = _ideal_filtration(constants, zero_tol)
    if computed_height != height:
        raise AssertionError("computed height disagrees with the construction")
    return WeilAlgebra(constants, labels, computed_height, filtration,
                       zero_tol, family=("truncated", width, height))


def validate_algebra(constants, *, basis_labels: Sequence[str] | None = None,
                     zero_tol: float = DEFAULT_ZERO_TOL) -> WeilAlgebra:
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
        # every axiom test below compares against zero_tol, and NaN passes them all
        raise AlgebraValidationError("the structure-constant table has non-finite entries")
    if np.max(np.abs(arr - arr.transpose(1, 0, 2))) > zero_tol:
        raise NotCommutative("c[i,j,:] != c[j,i,:]")
    if np.max(np.abs(arr[0] - np.eye(d))) > zero_tol:
        raise NoUnit("basis element 0 does not act as the unit")
    left = np.einsum("ijm,mkl->ijkl", arr, arr)
    right = np.einsum("jkm,iml->ijkl", arr, arr)
    if np.max(np.abs(left - right)) > zero_tol:
        raise NotAssociative("(e_i e_j) e_k != e_i (e_j e_k)")
    height, filtration = _ideal_filtration(arr, zero_tol)
    if basis_labels is None:
        basis_labels = [f"e{i}" for i in range(d)]
    elif len(basis_labels) != d:
        raise ValueError("label count does not match the dimension")
    return WeilAlgebra(arr, basis_labels, height, filtration, zero_tol,
                       family=("table",))
