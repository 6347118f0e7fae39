"""Exact dense linear algebra over prime fields F_p and the rationals.

Matrices are immutable, carry their field, and every operation is exact:
residues stay reduced mod p and rational entries are ``Fraction`` values in
lowest terms.  Row reduction uses a fixed deterministic pivot rule (first
nonzero entry in column order), so kernel bases, image bases and solutions
are reproducible across runs.

Zero-sized matrices (0 x n and n x 0) are legal; they are the unique maps
to and from the zero space and compose like any other matrix.

Matrices are values.  ``Matrix.identity`` returns one shared instance per
(field, n), keeping the most recently used ones: neither a Matrix nor its
array can be written, so no caller can change another's identity.

Every matrix is one numpy array, and one code path serves both fields: an
int64 array of residues over F_p and an ``object`` array of ``Fraction``
over Q.  The field enters only through a few hooks on :class:`FieldSpec`:
the canonical array of given scalars, a zero array, ``reduce`` (``% p``,
or nothing over Q), the hash key, and ``product`` (matrix and Kronecker
products).

The int64 limits, in one place:

- Over F_p, p < 2**20, so a product of two residues is below 2**40 and a
  sum of up to 2**23 of them still fits in int64 before ``% p``.  The
  staged hunt of ``search`` sums at most max(m, n) such products in one
  contraction (m slot coordinates, n = dim Ind(P)), so it needs
  max(m, n) * p**2 < 2**63; :func:`batched_rank` keeps every entry below
  p**2.
- Over Q, ``product`` computes in int64 when every entry of both operands
  is an integer and max(|A|, 1) * max(|B|, 1) * max(k, 1) < 2**62, with k
  the inner dimension of a matrix product and 1 for a Kronecker product.
  Every partial sum is then below 2**62 in absolute value, so the result
  is exact; any other product is the ``object`` product of ``Fraction``s.
  Either way the result holds the same ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

_PRIME_LIMIT = 1 << 20
_INT64_GUARD = 1 << 62
_TABLE_REACH = 4096  # |v| up to which int64 results map to shared Fractions
_IDENTITY_MEMO = 512  # identity matrices kept, the most recently used


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

    def __post_init__(self):
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

    @property
    def is_prime(self) -> bool:
        return self.kind == "prime"

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

    # -- array hooks: the only field-specific code under Matrix ----------

    def array(self, data, rows: int, cols: int) -> np.ndarray:
        """Canonical rows x cols array of the given rows of scalars."""
        if self.is_prime:
            return np.array(data, dtype=np.int64).reshape(rows, cols) % self.p
        grid = [[Fraction(v) for v in row] for row in data]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise DimensionMismatch("ragged entry grid")
        return np.array(grid, dtype=object).reshape(rows, cols)

    def zeros(self, shape) -> np.ndarray:
        """Zero-filled array of the given shape.

        Over Q the zeros must be filled in: numpy's own ``zeros`` and
        ``eye`` with ``dtype=object`` hold ``int`` entries.
        """
        if self.is_prime:
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        """Canonical form of a sum of products of canonical arrays."""
        return arr % self.p if self.is_prime else arr

    def product(self, op, a: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
        """Canonical ``op(a, b)`` for a bilinear numpy product ``op`` whose
        entries are sums of ``terms`` products of an entry of ``a`` and one
        of ``b``: ``np.matmul`` with the inner dimension, or ``np.kron``
        with 1.  Over Q it runs in int64 under the guard of the module
        docstring."""
        if self.is_prime:
            return op(a, b) % self.p
        ia = _integers(a)
        ib = _integers(b) if ia else None
        if ib and max(ia[1], 1) * max(ib[1], 1) * max(terms, 1) < _INT64_GUARD:
            return _fractions(op(_int64(ia[0], a.shape), _int64(ib[0], b.shape)))
        return op(a, b)

    def key(self, arr: np.ndarray):
        """Hashable value of an array; the bytes of an object array are
        pointers, so Q hashes its entries."""
        return arr.tobytes() if self.is_prime else tuple(arr.flat)

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "prime" else "Q"


QQ = FieldSpec.rational()


def _integers(arr: np.ndarray):
    """The entries of a Q array as ints with their largest absolute value,
    or None when one of them is not an integer."""
    flat = arr.ravel().tolist()
    nums = [f.numerator for f in flat if f.denominator == 1]
    if len(nums) != len(flat):
        return None
    return nums, max(max(nums, default=0), -min(nums, default=0))


def _int64(nums: list, shape) -> np.ndarray:
    return np.array(nums, dtype=np.int64).reshape(shape)


@cache
def _small_fractions() -> np.ndarray:
    """Fraction(v) for v in [-_TABLE_REACH, _TABLE_REACH], at index
    v + _TABLE_REACH."""
    return np.array([Fraction(v) for v in range(-_TABLE_REACH, _TABLE_REACH + 1)],
                    dtype=object)


def _fractions(arr: np.ndarray) -> np.ndarray:
    """The ``object`` array of ``Fraction``s of an int64 array."""
    table = _small_fractions()
    small = np.abs(arr) <= _TABLE_REACH
    if small.all():
        return table[arr + _TABLE_REACH]
    out = np.empty(arr.shape, dtype=object)
    out[small] = table[arr[small] + _TABLE_REACH]
    out[~small] = [Fraction(v) for v in arr[~small].tolist()]
    return out


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)


def _check_same_field(a: "Matrix", b: "Matrix"):
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")


class Matrix:
    """Immutable exact dense matrix over a fixed :class:`FieldSpec`.

    Entries are one read-only numpy array, ``_data``, canonical for the
    field: int64 residues in [0, p), or an ``object`` array of ``Fraction``
    over Q.  Every method is written once, on the array, and passes results
    through ``field.reduce``; ``entries`` and indexing return ``int`` over
    F_p and ``Fraction`` over Q.
    """

    __slots__ = ("field", "rows", "cols", "_data", "_hash", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data, _raw: bool = False):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimensions")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_rref", None)
        if not _raw:
            data = field.array(data, rows, cols)
            data.setflags(write=False)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        return Matrix(field, r, len(rows[0]) if r else 0, rows)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._from_np(field, field.zeros((rows, cols)))

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
    def _from_np(field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """Wrap an array that is already canonical for the field."""
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        return Matrix(field, arr.shape[0], arr.shape[1], arr, _raw=True)

    # -- inspection ---------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self):
        """Row-major tuple-of-row-tuples of canonical scalars."""
        return tuple(map(tuple, self._data.tolist()))

    def __getitem__(self, ij) -> Scalar:
        return self._data.item(*ij)

    def is_zero(self) -> bool:
        return not self._data.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        return bool(np.array_equal(self._data, other._data))

    def __hash__(self):
        if self._hash is None:
            h = hash((self.field, self.rows, self.cols, self.field.key(self._data)))
            object.__setattr__(self, "_hash", h)
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
        return Matrix._from_np(self.field,
                               self.field.product(np.matmul, self._data, other._data, self.cols))

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix._from_np(self.field, self.field.reduce(self._data + other._data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._from_np(self.field, self.field.reduce(-self._data))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix._from_np(self.field, self.field.reduce(self._data * c))

    def transpose(self) -> "Matrix":
        return Matrix._from_np(self.field, self._data.T)

    # -- block operations ----------------------------------------------

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        return Matrix._from_np(self.field, self._data[list(indices), :].reshape(len(indices), self.cols))

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        return Matrix._from_np(self.field, self._data[:, list(indices)].reshape(self.rows, len(indices)))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Contiguous submatrix with rows [r0, r1) and columns [c0, c1)."""
        return self.take_rows(range(r0, r1)).take_cols(range(c0, c1))

    def col(self, j: int) -> "Matrix":
        return self.take_cols([j])

    # -- elimination ----------------------------------------------------

    def _compute_rref(self):
        f = self.field
        R = self._data.copy()
        m, n = R.shape
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.flatnonzero(R[r:, c])
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                R[[r, pr]] = R[[pr, r]]
            pv = R[r, c]
            if pv != 1:
                R[r] = f.reduce(R[r] * f.inv(pv))
            # only the rows with a nonzero entry in the pivot column change
            others = np.flatnonzero(R[:, c])
            others = others[others != r]
            if others.size:
                R[others] = f.reduce(R[others] - np.outer(R[others, c], R[r]))
            pivots.append(c)
            r += 1
        return Matrix._from_np(f, R), tuple(pivots)

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
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        K = self.field.zeros((self.cols, len(free)))
        K[free, range(len(free))] = self.field.one()
        K[list(pivots), :] = self.field.reduce(-R._data[:len(pivots), free])
        return Matrix._from_np(self.field, K)

    def image_basis(self) -> "Matrix":
        """Original columns at the pivot positions: a basis of the column space."""
        return self.take_cols(self.rref()[1])

    def solve(self, b: "Matrix") -> Optional["Matrix"]:
        """Exact solution x of self @ x = b, or None when none exists.

        Free variables are set to zero, so the result is deterministic.
        ``b`` may have several columns; all are solved simultaneously.
        """
        _check_same_field(self, b)
        if self.rows != b.rows:
            raise DimensionMismatch(f"solve: {self.shape} vs {b.shape}")
        aug = hstack([self, b])
        R, pivots = aug.rref()
        if any(pc >= self.cols for pc in pivots):
            return None
        x = self.field.zeros((self.cols, b.cols))
        x[list(pivots), :] = R._data[:len(pivots), self.cols:]
        return Matrix._from_np(self.field, x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None or self.rank() != self.rows:
            raise ExactLinError("matrix is singular")
        return x


@lru_cache(maxsize=_IDENTITY_MEMO)
def _identity(field: FieldSpec, n: int) -> Matrix:
    arr = field.zeros((n, n))
    np.fill_diagonal(arr, field.one())
    return Matrix._from_np(field, arr)


# -- free functions ------------------------------------------------------


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ExactLinError("hstack of nothing")
    for m in mats[1:]:
        _check_same_field(mats[0], m)
        if m.rows != mats[0].rows:
            raise DimensionMismatch("hstack: row counts differ")
    return Matrix._from_np(mats[0].field, np.concatenate([m._data for m in mats], axis=1))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ExactLinError("vstack of nothing")
    for m in mats[1:]:
        _check_same_field(mats[0], m)
        if m.cols != mats[0].cols:
            raise DimensionMismatch("vstack: column counts differ")
    return Matrix._from_np(mats[0].field, np.concatenate([m._data for m in mats], axis=0))


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
    arr = field.zeros((r_off[-1], c_off[-1]))
    for i, row in enumerate(blocks):
        if len(row) != len(widths):
            raise DimensionMismatch("block_matrix: ragged block grid")
        for j, m in enumerate(row):
            if m is None:
                continue
            _check_same_field(given[0], m)
            if m.shape != (heights[i], widths[j]):
                raise DimensionMismatch(f"block_matrix: block ({i}, {j}) has shape "
                                        f"{m.shape}, not {(heights[i], widths[j])}")
            arr[r_off[i]:r_off[i + 1], c_off[j]:c_off[j + 1]] = m._data
    return Matrix._from_np(field, arr)


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
    return Matrix._from_np(a.field, a.field.product(_kron, a._data, b._data, 1))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-d arrays as one broadcast product, without its
    general-rank overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_sum(lefts: Matrix, rights: Sequence[Matrix]) -> Matrix:
    """sum_t kron(L_t, rights[t]), where row j of L_t is row j * d + t of
    ``lefts`` and d = len(rights) >= 1.

    One matrix product through :meth:`FieldSpec.product`, with d terms per
    entry: the rows (L_0[j, i], ..., L_(d-1)[j, i]) against the flattened
    rights, regrouped into Kronecker blocks.
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
    left = lefts._data.reshape(n, d, k).transpose(0, 2, 1).reshape(n * k, d)
    right = np.stack([m._data for m in rights]).reshape(d, r * c)
    prod = field.product(np.matmul, left, right, d)
    return Matrix._from_np(field, prod.reshape(n, k, r, c).transpose(0, 2, 1, 3)
                           .reshape(n * r, k * c))


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
    return Matrix._from_np(m.field, m._data.T.reshape(-1, 1))


def vec_columns(field: FieldSpec, rows: int, mats: Sequence[Matrix]) -> Matrix:
    """The matrix whose columns are vec(m) for the given matrices, each
    with ``rows`` entries; rows x 0 when there are none."""
    return hstack([vec(m) for m in mats]) if mats else Matrix.zeros(field, rows, 0)


def vec_precompose(cols: Matrix, h: int, x: Matrix) -> Matrix:
    """The columns vec(b . x) for the columns vec(b) of h-row maps b.

    This is (x^T (x) I_h) @ cols, computed as one product x^T @ B through
    :meth:`FieldSpec.product`, where B is ``cols`` reshaped to x.rows rows
    of h * cols.cols entries, so no Kronecker factor is formed.
    """
    _check_same_field(cols, x)
    if cols.rows != h * x.rows:
        raise DimensionMismatch(f"vec_precompose: {cols.rows} rows for maps {h} x {x.rows}")
    field, m = cols.field, cols.cols
    prod = field.product(np.matmul, x._data.T, cols._data.reshape(x.rows, h * m), x.rows)
    return Matrix._from_np(field, prod.reshape(x.cols * h, m))


def unvec(field: FieldSpec, column: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of :func:`vec` for a single column."""
    if column.rows != rows * cols or column.cols != 1:
        raise DimensionMismatch("unvec: wrong length")
    return Matrix._from_np(field, column._data.reshape(cols, rows).T)


def unvec_columns(columns: Matrix, rows: int, cols: int) -> list:
    """Inverse of :func:`vec_columns`: the rows x cols matrix of each
    column, from one reshape of the whole array."""
    if columns.rows != rows * cols:
        raise DimensionMismatch("unvec_columns: wrong length")
    arr = np.ascontiguousarray(columns._data.T.reshape(columns.cols, cols, rows)
                               .transpose(0, 2, 1))
    return [Matrix._from_np(columns.field, a) for a in arr]


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
