"""Exact dense linear algebra over prime fields F_p and the rationals.

Matrices are immutable, carry their field, and every operation is exact:
residues stay reduced mod p and rational entries are ``Fraction`` values in
lowest terms.  Row reduction uses a fixed deterministic pivot rule (first
nonzero entry in column order), so kernel bases, image bases and solutions
are reproducible across runs.

Zero-sized matrices (0 x n and n x 0) are legal; they are the unique maps
to and from the zero space and compose like any other matrix.

Every matrix is one numpy array, and one code path serves both fields: an
int64 array of residues over F_p, which is exact for the supported range
(p < 2**20 at desk-scale dimensions), and an ``object`` array of
``Fraction`` over Q.  The field enters only through a few hooks on
:class:`FieldSpec`: the canonical array of given scalars, a zero array,
``reduce`` (``% p``, or nothing over Q), and the hash key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

_PRIME_LIMIT = 1 << 20


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

    def key(self, arr: np.ndarray):
        """Hashable value of an array; the bytes of an object array are
        pointers, so Q hashes its entries."""
        return arr.tobytes() if self.is_prime else tuple(arr.flat)

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "prime" else "Q"


QQ = FieldSpec.rational()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)


def _check_same_field(a: "Matrix", b: "Matrix"):
    if a.field != b.field:
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
        arr = field.zeros((n, n))
        np.fill_diagonal(arr, field.one())
        return Matrix._from_np(field, arr)

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
        if self.cols == 0:
            # an object product with no terms sums to int 0
            return Matrix.zeros(self.field, self.rows, other.cols)
        return Matrix._from_np(self.field, self.field.reduce(self._data @ other._data))

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


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """Block diagonal sum a (+) b."""
    _check_same_field(a, b)
    top = hstack([a, Matrix.zeros(a.field, a.rows, b.cols)])
    bot = hstack([Matrix.zeros(a.field, b.rows, a.cols), b])
    return vstack([top, bot])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left factor index major.

    Basis order of the target is (i_a, i_b) lexicographic, i.e. the entry
    at (i_a * b.rows + i_b, j_a * b.cols + j_b) is a[i_a, j_a] * b[i_b, j_b].
    """
    _check_same_field(a, b)
    return Matrix._from_np(a.field, a.field.reduce(np.kron(a._data, b._data)))


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


def unlifted_solution(basis_cols: Sequence[Matrix], constraint_cols: Sequence[Matrix],
                      image) -> Optional[Matrix]:
    """First column of basis @ ker(constraint) outside the span of image().

    ``basis_cols[i]`` and ``constraint_cols[i]`` are a basis vector and its
    constraint value; ``image`` is a zero-argument callable returning the
    columns to lift through, called only when the constraint has a nonzero
    solution.  Returns None when every solution lifts.
    """
    if not basis_cols:
        return None
    coords = hstack(constraint_cols).kernel_basis()
    if coords.cols == 0:
        return None
    solutions = hstack(basis_cols) @ coords
    cols = image()
    lifts = hstack(cols) if cols else Matrix.zeros(solutions.field, solutions.rows, 0)
    c = lift_or_witness(lifts, solutions)
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


def unvec(field: FieldSpec, column: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of :func:`vec` for a single column."""
    if column.rows != rows * cols or column.cols != 1:
        raise DimensionMismatch("unvec: wrong length")
    return Matrix._from_np(field, column._data.reshape(cols, rows).T)


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
