"""Exact dense linear algebra over prime fields F_p and the rationals.

Matrices are immutable, carry their field, and every operation is exact.
Row reduction uses a fixed deterministic pivot rule (first nonzero entry in
column order), so kernel bases, image bases and solutions are reproducible
across runs.

Zero-sized matrices (0 x n and n x 0) are legal; they are the unique maps
to and from the zero space and compose like any other matrix.

Matrices are values.  ``Matrix.identity`` returns one shared instance per
(field, n), keeping the most recently used ones: neither a Matrix nor its
array can be written, so no caller can change another's identity.

Every matrix is an integer numerator array ``_num`` over a positive
denominator ``_den``:

- over F_p, ``_num`` is an int64 array of residues in [0, p) and ``_den``
  is 1;
- over Q, the matrix is ``_num / _den`` in lowest terms: no prime divides
  ``_den`` and every numerator, so a zero matrix has ``_den`` 1.  The
  numerators are int64 when every one is below 2**62 in absolute value,
  and Python ints in an ``object`` array otherwise.  The form depends on
  the values alone, so equal matrices compare and hash equal.

A numerator array is never written after construction, so it may be a
read-only view of another matrix's array: ``take_rows``, ``take_cols``
and ``block`` slice when given a step-1 range inside the matrix.

Sums, products, Kronecker products, stacks and the vec helpers work on
numerators; ``Fraction`` appears only at the boundary, in ``__getitem__``,
``entries`` and :meth:`FieldSpec.coerce`.

The int64 limits, in one place:

- Over F_p, p < 2**20, so a product of two residues is below 2**40 and a
  sum of up to 2**23 of them still fits in int64 before ``% p``.  The
  staged hunt of ``search`` sums at most max(m, n) such products in one
  contraction (m slot coordinates, n = dim Ind(P)), so it needs
  max(m, n) * p**2 < 2**63; :func:`batched_rank` keeps every entry below
  p**2.
- Over Q, numerator arithmetic runs in int64 when a bound on every
  partial result is below the guard 2**62, and on Python ints otherwise;
  the values are the same either way.  Every bound is :func:`_bound`'s
  factor * max(|A|, 1) over the operands A, with the factor max(k, 1)
  for a product with k terms per entry (1 for a Kronecker product), the
  scalar's numerator for ``scale``, and L / a over the common
  denominator L of a sum (bounds added) or a stack.  Each Q matrix keeps
  the bound its operation proved, or the exact largest numerator, which
  every Python int result stores, so a loose bound never compounds.

Row reduction over Q is modular and certified.  A matrix and its
numerator array N (m x n) have the same RREF.

1. For the primes p below 2**20, largest first, the F_p elimination gives
   the RREF of N mod p and its pivots.  The rank of N mod p is at most its
   rank over Q, and when they are equal the i-th pivot mod p is never
   left of the i-th pivot over Q.  So the pivot list with the most pivots,
   then the leftmost, is kept; a prime with any other list is set aside,
   and a better list replaces the primes kept so far.
2. The RREFs of the kept primes combine by CRT modulo their product M,
   and are rebuilt over one common denominator d: integers a with
   a = d * residue (mod M) and |a|, d <= sqrt(M / 2), where d grows by the
   denominator that rational reconstruction (Wang, SYMSAC 1981; Monagan,
   ISSAC 2004) finds for the first entry not yet an integer over it.
   That gives a candidate R = a / d, in RREF form by construction, with r
   pivots and kernel basis K (each free column set to 1 in turn, the pivot
   coordinates read off R).
3. R is accepted only when both hold:

   - N K = 0, checked as an exact integer product, so dim ker N >= n - r
     and rank N <= r;
   - rank N mod p = r for the kept primes, so rank N >= r (a minor that
     vanishes over the integers vanishes mod p).

   Then ker N is spanned by K, so the row space of N is the orthogonal
   complement of K, which is the row space of R (R K = 0 and R has rank
   r).  A row space has one RREF, so R is the RREF of N.  Otherwise
   another prime is added.  All but finitely many primes give the true
   pivots, and once sqrt(M / 2) reaches the common denominator of the true
   RREF and every numerator over it, the reconstruction returns it, so the
   loop ends.

:meth:`Matrix.solve` over Q returns x only after A x = b is checked
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

_PRIME_LIMIT = 1 << 20
_INT64_GUARD = 1 << 62
_IDENTITY_MEMO = 512  # identity matrices kept, the most recently used
_PRIMES = []  # the primes below _PRIME_LIMIT, largest first, found as needed


class ExactLinError(Exception):
    """Base error for the linear algebra layer."""


class DimensionMismatch(ExactLinError):
    pass


class FieldMismatch(ExactLinError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: either a prime field F_p or the rationals Q."""

    kind: str  # "prime" | "rational"
    p: Optional[int] = None
    # read by nearly every matrix operation, so stored rather than derived
    is_prime: bool = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_prime", self.kind == "prime")
        if self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ExactLinError(f"not a prime: {self.p!r}")
            if self.p >= _PRIME_LIMIT:
                raise ExactLinError(f"prime too large for the int64 backend: {self.p}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ExactLinError("rational field takes no modulus")
        else:
            raise ExactLinError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    def coerce(self, value) -> Scalar:
        """Canonicalize a scalar: reduced residue in [0, p) or a Fraction."""
        if self.kind == "prime":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    num = value.numerator % self.p
                    den = value.denominator % self.p
                    if den == 0:
                        raise ExactLinError(f"denominator divisible by {self.p}")
                    return (num * pow(den, self.p - 2, self.p)) % self.p
                value = value.numerator
            return int(value) % self.p
        return Fraction(value)

    def zero(self) -> Scalar:
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.kind == "prime" else Fraction(1)

    def inv(self, value: Scalar) -> Scalar:
        if self.kind == "prime":
            v = int(value) % self.p
            if v == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(v, self.p - 2, self.p)
        if value == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / Fraction(value)

    def elements(self) -> Iterable[Scalar]:
        """All field elements; only available for prime fields."""
        if self.kind != "prime":
            raise ExactLinError("cannot enumerate the rationals")
        return range(self.p)

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "prime" else "Q"


QQ = FieldSpec.rational()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)


def _check_same_field(a: "Matrix", b: "Matrix"):
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")


# -- integer numerator arrays over Q ----------------------------------------------


def _magnitude(arr: np.ndarray) -> int:
    """The largest absolute value of an integer array; 0 when it is empty."""
    return int(np.abs(arr).max()) if arr.size else 0


def _canonical_rows(field: FieldSpec, data, rows: int, cols: int):
    """The canonical numerator array and denominator of given rows of
    scalars."""
    if field.is_prime:
        return np.array(data, dtype=np.int64).reshape(rows, cols) % field.p, 1
    # ints and Fractions carry their numerator and denominator already
    grid = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in data]
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise DimensionMismatch("ragged entry grid")
    # over the lcm of reduced denominators the numerators share no factor
    den = lcm(*(v.denominator for row in grid for v in row))
    nums = [v.numerator * (den // v.denominator) for row in grid for v in row]
    wide = max(map(abs, nums), default=0) >= _INT64_GUARD
    return np.array(nums, dtype=object if wide else np.int64).reshape(rows, cols), den


def _rational(field: FieldSpec, num: np.ndarray, den: int = 1,
              bound: Optional[int] = None) -> "Matrix":
    """The Q matrix num / den, for an integer array and den > 0, brought to
    lowest terms and to int64 numerators when they fit under the guard.
    ``bound``, when given, bounds the absolute numerators; it is kept as
    the matrix's magnitude bound."""
    if den != 1:
        g = gcd(int(np.gcd.reduce(num, axis=None)), den)
        if g != 1:
            # an int64 array divisible by g >= 2**62 is zero
            num = num // g if g < _INT64_GUARD or num.dtype == object else 0 * num
            den //= g
            bound = None if bound is None else bound // g
    if num.dtype == object:
        bound = _magnitude(num)
        if bound < _INT64_GUARD:
            num = num.astype(np.int64)
    m = Matrix._from_np(field, num, den)
    object.__setattr__(m, "_mag", bound)
    return m


def _exact(op, a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``op(a, b)`` on integer arrays: in int64 when ``bound`` bounds every
    partial result below the guard, otherwise on Python ints."""
    if bound < _INT64_GUARD:
        return op(a, b)
    return op(a.astype(object), b.astype(object))


def _bound(factor: int, *mats: "Matrix") -> int:
    """The bound rule of the module docstring: factor * max(|A|, 1) over
    the numerators A of each matrix, read from its cached magnitude."""
    for m in mats:
        factor *= max(m._magnitude(), 1)
    return factor


def _product(op, a: "Matrix", b: "Matrix", x: np.ndarray, y: np.ndarray,
             terms: int) -> "Matrix":
    """The matrix ``op(x, y)`` for numerator arrays x of a and y of b, with
    ``terms`` products summed per entry: reduced mod p over F_p, and over Q
    guarded by :func:`_bound` and over the product of the denominators."""
    f = a.field
    if f.is_prime:
        return Matrix._from_np(f, op(x, y) % f.p)
    bound = _bound(max(terms, 1), a, b)
    return _rational(f, _exact(op, x, y, bound), a._den * b._den, bound)


def _common(mats: Sequence["Matrix"], summed: bool = False):
    """The numerator arrays of Q matrices over their common denominator,
    that denominator, and a bound on the scaled numerators (with
    ``summed``, on their sum), or None for int64 arrays left unscaled.  The
    arrays are int64 when the bound is under the guard, and Python ints
    otherwise."""
    dens = [m._den for m in mats]
    den = lcm(*dens)
    if not summed and den == min(dens) and all(m._num.dtype != object for m in mats):
        return [m._num for m in mats], den, None
    factors = [den // d for d in dens]
    bound = (sum if summed else max)(_bound(f, m) for m, f in zip(mats, factors))
    arrays = [m._num.astype(object) if bound >= _INT64_GUARD else m._num for m in mats]
    return [a if f == 1 else a * f for a, f in zip(arrays, factors)], den, bound


class Matrix:
    """Immutable exact dense matrix over a fixed :class:`FieldSpec`.

    The entries are ``_num / _den`` (see the module docstring): a read-only
    int64 array of residues in [0, p) over F_p, and numerators over one
    positive denominator in lowest terms over Q.  ``entries`` and indexing
    return ``int`` over F_p and ``Fraction`` over Q.
    """

    __slots__ = ("field", "rows", "cols", "_num", "_den", "_mag", "_hash", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data, _raw: bool = False,
                 _den: int = 1):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimensions")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_mag", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_rref", None)
        if not _raw:
            data, _den = _canonical_rows(field, data, rows, cols)
            data.setflags(write=False)
        object.__setattr__(self, "_num", data)
        object.__setattr__(self, "_den", _den)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        return Matrix(field, r, len(rows[0]) if r else 0, rows)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._from_np(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        """The n x n identity, one shared instance per (field, n): a Matrix
        and its array are read-only, so sharing it is safe."""
        return _identity(field, n)

    @staticmethod
    def column(field: FieldSpec, entries: Sequence) -> "Matrix":
        return Matrix(field, len(entries), 1, [[v] for v in entries])

    @staticmethod
    def basis_column(field: FieldSpec, n: int, i: int) -> "Matrix":
        """The i-th standard basis vector of k^n, as an n x 1 matrix."""
        entries = [field.zero()] * n
        entries[i] = field.one()
        return Matrix.column(field, entries)

    @staticmethod
    def _from_np(field: FieldSpec, arr: np.ndarray, den: int = 1) -> "Matrix":
        """Wrap a numerator array and denominator already canonical for the
        field."""
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        return Matrix(field, arr.shape[0], arr.shape[1], arr, _raw=True, _den=den)

    def _part(self, arr: np.ndarray) -> "Matrix":
        """The matrix of some of this matrix's numerators, reshaped or
        selected, over its denominator."""
        if self.field.is_prime:
            return Matrix._from_np(self.field, arr)
        return _rational(self.field, arr, self._den, self._mag)

    def _magnitude(self) -> int:
        """The bound on the absolute numerators that :func:`_bound` reads
        (cached): the one its operation proved, or else the exact largest
        absolute numerator, as for every Python int result."""
        if self._mag is None:
            object.__setattr__(self, "_mag", _magnitude(self._num))
        return self._mag

    def _same_entries(self, arr: np.ndarray) -> "Matrix":
        """The matrix of a reshaping of this matrix's numerators."""
        m = Matrix._from_np(self.field, arr, self._den)
        if self._mag is not None:
            object.__setattr__(m, "_mag", self._mag)
        return m

    # -- inspection ---------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self):
        """Row-major tuple-of-row-tuples of canonical scalars."""
        if self.field.is_prime:
            return tuple(map(tuple, self._num.tolist()))
        d = self._den
        fraction = Fraction if d == 1 else (lambda v: Fraction(v, d))
        return tuple(tuple(map(fraction, row)) for row in self._num.tolist())

    def __getitem__(self, ij) -> Scalar:
        if self.field.is_prime:
            return self._num.item(*ij)
        return Fraction(self._num.item(*ij), self._den)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._num)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape or self._den != other._den:
            return False
        if self._num.dtype == other._num.dtype == np.int64:
            return self._num.tobytes() == other._num.tobytes()
        return bool(np.array_equal(self._num, other._num))

    def __hash__(self):
        if self._hash is None:
            # the bytes of an object array are pointers, so Q hashes its entries
            key = self._num.tobytes() if self._num.dtype != object else tuple(self._num.flat)
            if not self.field.is_prime:
                key = (self._den, key)
            object.__setattr__(self, "_hash", hash((self.field, self.rows, self.cols, key)))
        return self._hash

    def __repr__(self):
        if self.rows * self.cols > 64:
            return f"Matrix({self.field}, {self.rows}x{self.cols})"
        return f"Matrix({self.field}, {self.rows}x{self.cols}, {self.entries})"

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return _product(np.matmul, self, other, self._num, other._num, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        f = self.field
        if f.is_prime:
            return Matrix._from_np(f, (self._num + other._num) % f.p)
        (a, b), den, bound = _common([self, other], summed=True)
        return _rational(f, a + b, den, bound)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        f = self.field
        if f.is_prime:
            return Matrix._from_np(f, -self._num % f.p)
        return self._same_entries(-self._num)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        if f.is_prime:
            return Matrix._from_np(f, self._num * c % f.p)
        n = c.numerator
        bound = _bound(max(abs(n), 1), self)
        num = self._num.astype(object) if bound >= _INT64_GUARD else self._num
        return _rational(f, num * n, self._den * c.denominator, bound)

    def transpose(self) -> "Matrix":
        return self._same_entries(self._num.T)

    # -- block operations ----------------------------------------------

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        if _in_bounds(indices, self.rows):
            return self._part(self._num[indices.start:indices.stop])
        return self._part(self._num[list(indices), :].reshape(len(indices), self.cols))

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        if _in_bounds(indices, self.cols):
            return self._part(self._num[:, indices.start:indices.stop])
        return self._part(self._num[:, list(indices)].reshape(self.rows, len(indices)))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Contiguous submatrix with rows [r0, r1) and columns [c0, c1)."""
        return self.take_rows(range(r0, r1)).take_cols(range(c0, c1))

    def col(self, j: int) -> "Matrix":
        return self.take_cols([j])

    # -- elimination ----------------------------------------------------

    def _compute_rref(self):
        f = self.field
        if not f.is_prime:
            return _certified_rref(self)
        R = self._num.copy()
        pivots = _eliminate(R, f.p)
        return Matrix._from_np(f, R), pivots

    def rref(self):
        """Reduced row echelon form and its pivot columns (cached)."""
        if self._rref is None:
            object.__setattr__(self, "_rref", self._compute_rref())
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form the canonical basis of the kernel.

        Shape is cols x (cols - rank); the basis assigns 1 to each free
        column in increasing order and back-fills the pivot coordinates.
        """
        R, pivots = self.rref()
        f = self.field
        K = _kernel_numerators(R._num[:len(pivots)], R._den, pivots)
        if f.is_prime:
            return Matrix._from_np(f, K % f.p)
        return _rational(f, K, R._den, max(R._magnitude(), R._den))

    def image_basis(self) -> "Matrix":
        """Original columns at the pivot positions: a basis of the column space."""
        return self.take_cols(self.rref()[1])

    def solve(self, b: "Matrix") -> Optional["Matrix"]:
        """Exact solution x of self @ x = b, or None when none exists.

        Free variables are set to zero, so the result is deterministic.
        ``b`` may have several columns; all are solved simultaneously.
        Over Q, x is returned only after self @ x = b is checked exactly.
        """
        _check_same_field(self, b)
        if self.rows != b.rows:
            raise DimensionMismatch(f"solve: {self.shape} vs {b.shape}")
        aug = hstack([self, b])
        R, pivots = aug.rref()
        if any(pc >= self.cols for pc in pivots):
            return None
        x = np.zeros((self.cols, b.cols), dtype=R._num.dtype)
        x[list(pivots), :] = R._num[:len(pivots), self.cols:]
        if self.field.is_prime:
            return Matrix._from_np(self.field, x)
        x = _rational(self.field, x, R._den, R._magnitude())
        if self @ x != b:
            raise ExactLinError("internal: a solution does not solve its system")
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None or self.rank() != self.rows:
            raise ExactLinError("matrix is singular")
        return x


def _in_bounds(indices, n: int) -> bool:
    """Whether the indices are a step-1 ``range`` inside [0, n], which a
    slice selects; any other index list takes numpy's fancy indexing."""
    return type(indices) is range and indices.step == 1 and \
        0 <= indices.start <= indices.stop <= n


@lru_cache(maxsize=_IDENTITY_MEMO)
def _identity(field: FieldSpec, n: int) -> Matrix:
    arr = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(arr, 1)
    return Matrix._from_np(field, arr)


# -- row reduction ---------------------------------------------------------------


def _eliminate(R: np.ndarray, p: int) -> tuple:
    """Bring an int64 array of residues mod p to its RREF in place; return
    the pivot columns."""
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = R[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            row = R[pr].copy()
            R[pr] = R[r]
            R[r] = row
        pv = int(R[r, c])
        if pv != 1:
            R[r] = R[r] * pow(pv, p - 2, p) % p
        # only the rows with a nonzero entry in the pivot column change
        col = R[:, c].copy()
        col[r] = 0
        others = col.nonzero()[0]
        if others.size:
            R[others] = (R[others] - np.outer(col[others], R[r])) % p
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _primes():
    """The primes below _PRIME_LIMIT, largest first."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = (_PRIMES[-1] if _PRIMES else _PRIME_LIMIT) - 1
            while p > 1 and not _is_prime(p):
                p -= 1
            if p < 2:
                return
            _PRIMES.append(p)
        yield _PRIMES[i]
        i += 1


def _kernel_numerators(rows: np.ndarray, den: int, pivots: tuple) -> np.ndarray:
    """Numerators over ``den`` of the kernel basis of the RREF whose nonzero
    rows are ``rows / den``: den on each free column in turn, and minus the
    row entries at the pivot coordinates."""
    n = rows.shape[1]
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    K = np.zeros((n, len(free)), dtype=rows.dtype)
    K[free, range(len(free))] = den
    K[list(pivots), :] = -rows[:, free]
    return K


def _reconstruct(residues: np.ndarray, modulus: int):
    """Rational reconstruction over a common denominator: integers a and
    d <= sqrt(modulus / 2) with |a| <= sqrt(modulus / 2) and a = d * residue
    (mod modulus) entrywise, as (the array a, d); None when there are none.

    d grows by the denominator of the first entry that is not yet an
    integer over it, found by the extended Euclidean algorithm (Wang's
    reconstruction), so a matrix whose entries share a denominator takes
    one step per prime factor of it at most."""
    bound = isqrt(modulus // 2)
    if modulus * (bound + 1) >= _INT64_GUARD:
        residues = residues.astype(object)
    den = 1
    while True:
        # the residues of the integers a with |a| <= bound shift into [0, 2 bound]
        shifted = ((residues * den if den > 1 else residues) + bound) % modulus
        todo = np.flatnonzero(shifted > 2 * bound)
        if not todo.size:
            return shifted - bound, den
        r0, r1, t0, t1 = modulus, int(residues.flat[todo[0]]) * den % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound:
            return None


def _certified_rref(x: "Matrix"):
    """The RREF over Q of the matrix x and its pivots, by the certified
    modular elimination of the module docstring."""
    num = x._num
    n = num.shape[1]
    best = None
    for p in _primes():
        residues = (num % p).astype(np.int64, copy=False)
        pivots = _eliminate(residues, p)
        r = len(pivots)
        if r == n:
            # [I; 0] mod p is [I; 0] over Q: N K = 0 holds with no kernel,
            # and rank N >= n by the prime
            return Matrix._from_np(x.field, residues), pivots
        key = (r, [-c for c in pivots])
        if best is None or key > best:
            # a better pivot list: the primes kept so far were unlucky
            best, modulus, combined = key, p, residues
        elif key == best:
            combined = _crt(combined, modulus, residues, p)
            modulus *= p
        else:
            continue
        candidate = _reconstruct(combined, modulus)
        if candidate is None:
            continue
        R, den = candidate  # numerators over den, all at most sqrt(modulus / 2)
        bound = isqrt(modulus // 2)
        K = _kernel_numerators(R[:r], den, pivots)
        if _exact(np.matmul, num, K, _bound(bound * n, x)).any():
            continue  # N K != 0: the candidate is not the RREF
        return _rational(x.field, R, den, bound), pivots
    raise ExactLinError("internal: no prime below 2**20 certified the row reduction")


def _crt(x: np.ndarray, modulus: int, y: np.ndarray, p: int) -> np.ndarray:
    """The residues modulo modulus * p congruent to x mod ``modulus`` and to
    y mod p, as Python ints."""
    x = x.astype(object)
    t = (y - x) * pow(modulus, -1, p) % p
    return x + modulus * t


# -- free functions ------------------------------------------------------


def _stacked(mats: Sequence[Matrix], axis: int) -> Matrix:
    """hstack (axis 1) or vstack (axis 0) of a nonempty list of matrices
    over one field that agree on the other axis."""
    name, other = ("vstack", "column") if axis == 0 else ("hstack", "row")
    if not mats:
        raise ExactLinError(f"{name} of nothing")
    for m in mats[1:]:
        _check_same_field(mats[0], m)
        if m.shape[1 - axis] != mats[0].shape[1 - axis]:
            raise DimensionMismatch(f"{name}: {other} counts differ")
    field = mats[0].field
    if field.is_prime:
        return Matrix._from_np(field, np.concatenate([m._num for m in mats], axis=axis))
    arrays, den, bound = _common(mats)
    return _rational(field, np.concatenate(arrays, axis=axis), den, bound)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    return _stacked(mats, 1)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    return _stacked(mats, 0)


def block_matrix(blocks, heights=None, widths=None) -> Matrix:
    """The matrix with the given grid of blocks, ``None`` meaning a zero
    block.

    Row block i has height ``heights[i]`` and column block j width
    ``widths[j]``; either list may be omitted when every row (column) of
    the grid holds a block to read it from.  Every block must have the
    shape of its cell and the field of the first block.
    """
    given = [m for row in blocks for m in row if m is not None]
    if not given:
        raise ExactLinError("block_matrix needs at least one block")
    field = given[0].field
    if heights is None:
        heights = [next(m.rows for m in row if m is not None) for row in blocks]
    if widths is None:
        widths = [next(row[j].cols for row in blocks if row[j] is not None)
                  for j in range(len(blocks[0]))]
    r_off = [0, *accumulate(heights)]
    c_off = [0, *accumulate(widths)]
    for m in given[1:]:
        _check_same_field(given[0], m)
    if field.is_prime:
        arrays, den = iter([m._num for m in given]), 1
        arr = np.zeros((r_off[-1], c_off[-1]), dtype=np.int64)
    else:
        scaled, den, bound = _common(given)
        arrays = iter(scaled)
        arr = np.zeros((r_off[-1], c_off[-1]), dtype=scaled[0].dtype)
    for i, row in enumerate(blocks):
        if len(row) != len(widths):
            raise DimensionMismatch("block_matrix: ragged block grid")
        for j, m in enumerate(row):
            if m is None:
                continue
            if m.shape != (heights[i], widths[j]):
                raise DimensionMismatch(f"block_matrix: block ({i}, {j}) has shape "
                                        f"{m.shape}, not {(heights[i], widths[j])}")
            arr[r_off[i]:r_off[i + 1], c_off[j]:c_off[j + 1]] = next(arrays)
    return Matrix._from_np(field, arr) if field.is_prime else _rational(field, arr, den, bound)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """The block diagonal matrix of the given blocks, zero elsewhere."""
    return block_matrix([[b if i == j else None for j in range(len(blocks))]
                         for i, b in enumerate(blocks)])


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """Block diagonal sum a (+) b."""
    return block_diagonal([a, b])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left factor index major.

    Basis order of the target is (i_a, i_b) lexicographic, i.e. the entry
    at (i_a * b.rows + i_b, j_a * b.cols + j_b) is a[i_a, j_a] * b[i_b, j_b].
    """
    _check_same_field(a, b)
    return _product(_kron, a, b, a._num, b._num, 1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-d arrays as one broadcast product, without its
    general-rank overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_sum(lefts: Matrix, rights: Sequence[Matrix]) -> Matrix:
    """sum_t kron(L_t, rights[t]), where row j of L_t is row j * d + t of
    ``lefts`` and d = len(rights) >= 1.

    One matrix product with d terms per entry: the rows (L_0[j, i], ...,
    L_(d-1)[j, i]) against the flattened rights, regrouped into Kronecker
    blocks.
    """
    d = len(rights)
    if not d or lefts.rows % d:
        raise DimensionMismatch(f"kron_sum: {lefts.rows} rows for {d} right factors")
    field = lefts.field
    r, c = rights[0].shape
    for m in rights:
        _check_same_field(lefts, m)
        if m.shape != (r, c):
            raise DimensionMismatch("kron_sum: right factors of different shapes")
    n, k = lefts.rows // d, lefts.cols
    left = lefts._num.reshape(n, d, k).transpose(0, 2, 1).reshape(n * k, d)
    if field.is_prime:
        right = np.stack([m._num for m in rights]).reshape(d, r * c)
        prod, den = np.matmul(left, right) % field.p, 1
    else:
        arrays, den, right_bound = _common(rights)
        right = np.stack(arrays).reshape(d, r * c)
        if right_bound is None:
            right_bound = max(_bound(1, m) for m in rights)
        bound = _bound(right_bound * d, lefts)
        prod = _exact(np.matmul, left, right, bound)
        den *= lefts._den
    prod = prod.reshape(n, k, r, c).transpose(0, 2, 1, 3).reshape(n * r, k * c)
    return Matrix._from_np(field, prod) if field.is_prime else _rational(field, prod, den, bound)

def batched_rank(field: FieldSpec, arr) -> np.ndarray:
    """Ranks over F_p of the slices of a (batch, rows, cols) integer array.

    Entries may be unreduced; they are taken mod p.  The elimination runs
    column by column on the whole batch at once: each slice takes as pivot
    its first unused row with a nonzero entry in the column and clears the
    rows below it, so every step is a few int64 array operations whose
    entries stay below p**2.  Returns an int64 array of length batch.
    """
    if not field.is_prime:
        raise ExactLinError("batched rank needs a prime field")
    p = field.p
    a = np.asarray(arr, dtype=np.int64) % p
    batch, rows, cols = a.shape
    rank = np.zeros(batch, dtype=np.int64)
    inverse = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
    row_index = np.arange(rows)
    for c in range(cols):
        free = (a[:, :, c] != 0) & (row_index >= rank[:, None])
        hit = np.flatnonzero(free.any(axis=1))
        if hit.size == 0:
            continue
        top = rank[hit]
        piv = free[hit].argmax(axis=1)
        pivot_rows = a[hit, piv]
        a[hit, piv] = a[hit, top]
        pivot_rows = pivot_rows * inverse[pivot_rows[:, c]][:, None] % p
        a[hit, top] = pivot_rows
        below = a[hit, :, c] * (row_index > top[:, None])
        a[hit] = (a[hit] - below[:, :, None] * pivot_rows[:, None, :]) % p
        rank[hit] += 1
    return rank


def is_exact_pair(f: Matrix, g: Matrix) -> bool:
    """True iff im(f) = ker(g), for composable matrices f then g.

    Decided exactly: the composite g @ f must vanish and rank(f) must equal
    dim ker(g) = g.cols - rank(g).
    """
    if g.cols != f.rows:
        raise DimensionMismatch(f"not composable: {f.shape} then {g.shape}")
    _check_same_field(f, g)
    if not (g @ f).is_zero():
        return False
    return f.rank() == g.cols - g.rank()


def lift_or_witness(lifts: Matrix, targets: Matrix) -> Optional[int]:
    """Index of the first column of ``targets`` outside the column span of
    ``lifts``, or None when every column lifts.

    One row reduction of [lifts | targets] decides it: the first pivot in
    the targets part is that column, because every earlier target column
    has no pivot and so lies in span(lifts).
    """
    _check_same_field(lifts, targets)
    if lifts.rows != targets.rows:
        raise DimensionMismatch(f"lift: {lifts.shape} vs {targets.shape}")
    if targets.cols == 0:
        return None
    _, pivots = hstack([lifts, targets]).rref()
    return next((pc - lifts.cols for pc in pivots if pc >= lifts.cols), None)


def unlifted_solution(basis: Matrix, constraint: Matrix, image) -> Optional[Matrix]:
    """First column of basis @ ker(constraint) outside the span of image().

    Column i of ``basis`` is a vector of the search space and column i of
    ``constraint`` its constraint value; ``image`` is a zero-argument
    callable returning the matrix whose columns are lifted through, called
    only when the constraint has a nonzero solution.  Returns None when
    every solution lifts.
    """
    if basis.cols == 0:
        return None
    coords = constraint.kernel_basis()
    if coords.cols == 0:
        return None
    solutions = basis @ coords
    c = lift_or_witness(image(), solutions)
    return None if c is None else solutions.col(c)


def canonical_basis(span: Matrix) -> Matrix:
    """The canonical basis of the column span of ``span``: the basis that
    :meth:`Matrix.kernel_basis` gives any matrix with this span as kernel.

    That basis depends on the span alone.  For each free column f in
    increasing order it is the one vector of the span with 1 at f, 0 at
    the other free columns and support at or before f, where the free
    columns are the last nonzero coordinates of the span's vectors.  So it
    is the RREF of the spanning vectors as rows with their coordinates
    reversed, read back: coordinates and rows reversed, then transposed.
    """
    R, pivots = span._same_entries(span._num.T[:, ::-1]).rref()
    return R._part(R._num[:len(pivots)][::-1, ::-1].T)


def quotient_maps(relations: Matrix):
    """Projection and section for the quotient of k^n by a column span.

    Given a matrix whose columns span a subspace W of k^n (n = rows), this
    returns (proj, sect) with proj of shape q x n, sect of shape n x q and
    q = n - dim W, such that proj @ sect = I, proj @ relations = 0, and the
    quotient basis is the set of non-pivot coordinates of the deterministic
    row reduction of W.  All choices are reproducible.
    """
    field = relations.field
    n = relations.rows
    R, pivots = relations.transpose().rref()
    pivset = set(pivots)
    free_coords = [c for c in range(n) if c not in pivset]
    ident = Matrix.identity(field, n)
    proj = ident.take_rows(free_coords)
    if pivots:
        sel = ident.take_rows(pivots)
        red = ident - (R.take_rows(range(len(pivots))).transpose() @ sel)
        proj = proj @ red
    sect = ident.take_cols(free_coords)
    if not (proj @ relations).is_zero():
        raise ExactLinError("internal: projection does not kill the relation span")
    if proj @ sect != Matrix.identity(field, len(free_coords)):
        raise ExactLinError("internal: section does not split the projection")
    return proj, sect


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization, as a (rows*cols) x 1 matrix."""
    return m._same_entries(m._num.T.reshape(-1, 1))


def vec_columns(field: FieldSpec, rows: int, mats: Sequence[Matrix]) -> Matrix:
    """The matrix whose columns are vec(m) for the given matrices, each
    with ``rows`` entries; rows x 0 when there are none."""
    return hstack([vec(m) for m in mats]) if mats else Matrix.zeros(field, rows, 0)


def vec_precompose(cols: Matrix, h: int, x: Matrix) -> Matrix:
    """The columns vec(b . x) for the columns vec(b) of h-row maps b.

    This is (x^T (x) I_h) @ cols, computed as one product x^T @ B, where B
    is ``cols`` reshaped to x.rows rows of h * cols.cols entries, so no
    Kronecker factor is formed.
    """
    _check_same_field(cols, x)
    if cols.rows != h * x.rows:
        raise DimensionMismatch(f"vec_precompose: {cols.rows} rows for maps {h} x {x.rows}")
    shape = (x.cols * h, cols.cols)
    return _product(lambda a, b: np.matmul(a, b).reshape(shape), x, cols, x._num.T,
                    cols._num.reshape(x.rows, h * cols.cols), x.rows)


def vec_postcompose(x: Matrix, cols: Matrix, w: int) -> Matrix:
    """The columns vec(x . b) for the columns vec(b) of w-column maps b.

    This is (I_w (x) x) @ cols, computed as one batched product of x with
    ``cols`` reshaped to w blocks of x.cols rows, so no Kronecker factor is
    formed.
    """
    _check_same_field(x, cols)
    if cols.rows != w * x.cols:
        raise DimensionMismatch(f"vec_postcompose: {cols.rows} rows for maps {x.cols} x {w}")
    shape = (w * x.rows, cols.cols)
    return _product(lambda a, b: np.matmul(a, b).reshape(shape), x, cols, x._num,
                    cols._num.reshape(w, x.cols, cols.cols), x.cols)


def unvec(field: FieldSpec, column: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of :func:`vec` for a single column."""
    if column.rows != rows * cols or column.cols != 1:
        raise DimensionMismatch("unvec: wrong length")
    return column._same_entries(column._num.reshape(cols, rows).T)


def unvec_columns(columns: Matrix, rows: int, cols: int) -> list:
    """Inverse of :func:`vec_columns`: the rows x cols matrix of each
    column, from one reshape of the whole array."""
    if columns.rows != rows * cols:
        raise DimensionMismatch("unvec_columns: wrong length")
    arr = np.ascontiguousarray(columns._num.T.reshape(columns.cols, cols, rows)
                               .transpose(0, 2, 1))
    return [columns._part(a) for a in arr]


def unvec_blocks(column: Matrix, shapes: Sequence) -> list:
    """Inverse of ``vstack([vec(m) for m in mats])`` for matrices of the
    given (rows, cols) shapes."""
    if column.cols != 1 or column.rows != sum(r * c for r, c in shapes):
        raise DimensionMismatch("unvec_blocks: wrong length")
    mats = []
    offset = 0
    for r, c in shapes:
        mats.append(unvec(column.field, column.take_rows(range(offset, offset + r * c)), r, c))
        offset += r * c
    return mats
