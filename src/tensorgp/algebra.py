"""Finite-dimensional associative unital algebras given by structure
constants, their left modules as families of action matrices, and exact
Hom-space computation.

An algebra of dimension d over k stores the d^3 constants c[i][j][k]
meaning e_i * e_j = sum_k c[i][j][k] e_k together with the coordinates of
the unit.  A left module is a family of action matrices rho(e_i) subject
to rho(e_i) rho(e_j) = sum_k c[i][j][k] rho(e_k) and rho(1) = id.  That
representation law is one primitive, :func:`law_residuals`; associativity
is the law on the left multiplications.  The checkers are reports over it
with explicit witnesses.

Validated: the constructors ``Algebra``, ``LeftModule`` and ``ModuleMap``,
and the results of :func:`submodule_from_columns` and
:func:`quotient_by_columns`, which come from solving.  Built unchecked,
as valid by construction from validated data: free modules, zero and
identity maps, composites, sums and negatives, and the bases of
:func:`hom_space` and :func:`free_hom_basis`.  Everything is immutable;
all checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from tensorgp.exactlin import (
    FieldSpec,
    Matrix,
    hstack,
    is_exact_pair,
    kron,
    quotient_maps,
    unvec,
    vstack,
)


class AlgebraError(Exception):
    pass


class InvalidAlgebra(AlgebraError):
    def __init__(self, report):
        super().__init__(f"invalid algebra: {report.violations[0]}")
        self.report = report


class InvalidModule(AlgebraError):
    def __init__(self, report):
        super().__init__(f"invalid module: {report.violations[0]}")
        self.report = report


class InvalidMap(AlgebraError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive axiom check, with witnesses for failures.

    Each violation is a tuple (axiom_name, witness_indices, residual) where
    the residual is the exact matrix or vector that should have vanished.
    """

    subject: str
    violations: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.violations


def unchecked_instance(cls, *values):
    """An instance of the frozen dataclass ``cls`` holding ``values`` in
    field order, built without running its checks."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def _memo_hash(self) -> int:
    """The dataclass hash of an algebra or a module, computed once: both
    key memo tables, and their matrices are slow to hash again."""
    if "_hash" not in self.__dict__:
        self.__dict__["_hash"] = hash(tuple(getattr(self, name)
                                            for name in self.__dataclass_fields__))
    return self.__dict__["_hash"]


@dataclass(frozen=True)
class Algebra:
    """Associative unital algebra by structure constants.

    ``consts[i][j]`` is the coordinate tuple of e_i * e_j, and ``unit`` the
    coordinates of 1.  Construction validates associativity and the unit
    law exhaustively; use :meth:`unchecked` to build a raw instance for
    diagnosis through :func:`check_algebra`.
    """

    field: FieldSpec
    dim: int
    consts: tuple  # consts[i][j][k], each a canonical scalar
    unit: tuple

    def __post_init__(self):
        raw = Algebra.unchecked(self.field, self.dim, self.consts, self.unit)
        object.__setattr__(self, "consts", raw.consts)
        object.__setattr__(self, "unit", raw.unit)
        report = check_algebra(self)
        if not report.valid:
            raise InvalidAlgebra(report)

    @staticmethod
    def unchecked(field: FieldSpec, dim: int, consts, unit) -> "Algebra":
        return unchecked_instance(
            Algebra, field, dim,
            tuple(tuple(tuple(field.coerce(v) for v in row) for row in plane) for plane in consts),
            tuple(field.coerce(v) for v in unit))

    @cached_property
    def left_mult(self) -> tuple:
        """Matrices L_i of left multiplication by e_i (columns: e_i e_j)."""
        out = []
        for i in range(self.dim):
            out.append(Matrix.from_rows(
                self.field,
                [[self.consts[i][j][k] for j in range(self.dim)] for k in range(self.dim)],
            ))
        return tuple(out)

    @cached_property
    def right_mult(self) -> tuple:
        """Matrices R_i of right multiplication by e_i (columns: e_j e_i)."""
        out = []
        for i in range(self.dim):
            out.append(Matrix.from_rows(
                self.field,
                [[self.consts[j][i][k] for j in range(self.dim)] for k in range(self.dim)],
            ))
        return tuple(out)

    __hash__ = _memo_hash

    def __repr__(self):
        return f"Algebra({self.field}, dim={self.dim})"


def law_residuals(a: Algebra, action: Sequence[Matrix]) -> dict:
    """The representation law rho(e_i) rho(e_j) = sum_k c[i][j][k] rho(e_k)
    on one n x n matrix per basis index of ``a``.

    Returns the residuals rho(e_i) rho(e_j) - sum_k c[i][j][k] rho(e_k)
    that do not vanish, keyed by (i, j) in index order.  The residual
    (i, j) is block (i, j) of one dn x dn matrix: the actions stacked on
    top of each other times the actions side by side, less
    sum_k C_k (x) rho(e_k) with C_k[i][j] = c[i][j][k].
    """
    d = a.dim
    if not d:
        return {}
    n = action[0].rows
    grid = vstack(action) @ hstack(action)
    for k in range(d):
        ck = [[a.consts[i][j][k] for j in range(d)] for i in range(d)]
        if any(any(row) for row in ck):
            grid = grid - kron(Matrix.from_rows(a.field, ck), action[k])
    if grid.is_zero():
        return {}
    blocks = ((i, j, grid.block(i * n, (i + 1) * n, j * n, (j + 1) * n))
              for i in range(d) for j in range(d))
    return {(i, j): r for i, j, r in blocks if not r.is_zero()}


def _unit_residual(a: Algebra, action: Sequence[Matrix], n: int) -> Matrix:
    """The residual sum_i unit[i] rho(e_i) - I_n of the unit law rho(1) = id."""
    acc = -Matrix.identity(a.field, n)
    for c, m in zip(a.unit, action):
        if c:
            acc = acc + m.scale(c)
    return acc


def check_algebra(a: Algebra) -> ValidationReport:
    """Exhaustively verify associativity and the unit law, listing every
    violated equation with its witness triple (or basis index for unit
    failures) and the nonzero residual.

    Column k of the law residual (i, j) on the left multiplications,
    negated, is (e_i e_j) e_k - e_i (e_j e_k); the unit laws are those of
    the left and the right multiplications, column by column.
    """
    if len(a.consts) != a.dim or any(
        len(plane) != a.dim or any(len(row) != a.dim for row in plane) for plane in a.consts
    ):
        return ValidationReport("algebra", (("shape", (), None),))
    if len(a.unit) != a.dim:
        return ValidationReport("algebra", (("shape", ("unit",), None),))
    violations = []
    units = (("unit-left", _unit_residual(a, a.left_mult, a.dim)),
             ("unit-right", _unit_residual(a, a.right_mult, a.dim)))
    for i in range(a.dim):
        for kind, residual in units:
            col = residual.col(i)
            if not col.is_zero():
                violations.append((kind, (i,), col))
    for (i, j), residual in law_residuals(a, a.left_mult).items():
        for k in range(a.dim):
            col = residual.col(k)
            if not col.is_zero():
                violations.append(("associativity", (i, j, k), -col))
    return ValidationReport("algebra", tuple(violations))


@dataclass(frozen=True)
class LeftModule:
    """A left module as a family of exact action matrices rho(e_i)."""

    algebra: Algebra
    dim: int
    action: tuple  # one dim x dim Matrix per algebra basis index

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(self.action))
        report = check_module(self)
        if not report.valid:
            raise InvalidModule(report)

    @staticmethod
    def unchecked(algebra: Algebra, dim: int, action) -> "LeftModule":
        return unchecked_instance(LeftModule, algebra, dim, tuple(action))

    __hash__ = _memo_hash

    def __repr__(self):
        return f"LeftModule(dim={self.dim} over {self.algebra!r})"


def check_module(x: LeftModule) -> ValidationReport:
    """Verify the representation law rho(e_i)rho(e_j) = rho(e_i e_j) and rho(1) = id."""
    a = x.algebra
    if len(x.action) != a.dim or any(m.shape != (x.dim, x.dim) for m in x.action):
        return ValidationReport("module", (("shape", (), None),))
    if any(m.field != a.field for m in x.action):
        return ValidationReport("module", (("field", (), None),))
    violations = []
    unit = _unit_residual(a, x.action, x.dim)
    if not unit.is_zero():
        violations.append(("unit-action", (), unit))
    violations.extend(("module-law", ij, r) for ij, r in law_residuals(a, x.action).items())
    return ValidationReport("module", tuple(violations))


def zero_module(a: Algebra) -> LeftModule:
    return LeftModule(a, 0, tuple(Matrix.zeros(a.field, 0, 0) for _ in range(a.dim)))


def free_module(a: Algebra, n: int) -> LeftModule:
    """The free left module R^n: n block-diagonal copies of the regular
    representation, basis ordered copy-major."""
    if n < 0:
        raise AlgebraError("negative rank")
    eye = Matrix.identity(a.field, n)
    return LeftModule.unchecked(a, n * a.dim, tuple(kron(eye, block) for block in a.left_mult))


@dataclass(frozen=True)
class ModuleMap:
    """An algebra-linear map, stored as a target.dim x source.dim matrix."""

    source: LeftModule
    target: LeftModule
    mat: Matrix

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise InvalidMap("algebra mismatch")
        if self.mat.shape != (self.target.dim, self.source.dim):
            raise InvalidMap(f"shape {self.mat.shape} for map {self.source.dim} -> {self.target.dim}")
        for i in range(self.source.algebra.dim):
            if self.mat @ self.source.action[i] != self.target.action[i] @ self.mat:
                raise InvalidMap(f"not linear over basis index {i}")

    @staticmethod
    def unchecked(source: LeftModule, target: LeftModule, mat: Matrix) -> "ModuleMap":
        return unchecked_instance(ModuleMap, source, target, mat)

    @staticmethod
    def zero(source: LeftModule, target: LeftModule) -> "ModuleMap":
        return ModuleMap.unchecked(source, target,
                                   Matrix.zeros(source.algebra.field, target.dim, source.dim))

    @staticmethod
    def identity(x: LeftModule) -> "ModuleMap":
        return ModuleMap.unchecked(x, x, Matrix.identity(x.algebra.field, x.dim))

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        return compose(self, other)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source != other.source or self.target != other.target:
            raise InvalidMap("adding maps with different endpoints")
        return ModuleMap.unchecked(self.source, self.target, self.mat + other.mat)

    def __neg__(self) -> "ModuleMap":
        return ModuleMap.unchecked(self.source, self.target, -self.mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """The composite f after g.

    Composites of valid maps are valid, so the result is not re-validated.
    """
    if g.target != f.source:
        raise InvalidMap("not composable")
    return ModuleMap.unchecked(g.source, f.target, f.mat @ g.mat)


def is_exact_at(f: ModuleMap, g: ModuleMap) -> bool:
    """Exactness at the middle of source --f--> middle --g--> target."""
    if f.target != g.source:
        raise InvalidMap("maps do not share a middle module")
    return is_exact_pair(f.mat, g.mat)


def intertwining_system(x: LeftModule, y: LeftModule) -> Matrix:
    """The equations T rho_x(e_i) = rho_y(e_i) T on the column-major
    vec(T) of a map T: x -> y, one block kron(rho_x(e_i)^T, I) -
    kron(I, rho_y(e_i)) per basis index, stacked in index order."""
    f = x.algebra.field
    m, n = y.dim, x.dim
    im = Matrix.identity(f, m)
    i_n = Matrix.identity(f, n)
    blocks = [kron(x.action[i].transpose(), im) - kron(i_n, y.action[i])
              for i in range(x.algebra.dim)]
    return vstack(blocks) if blocks else Matrix.zeros(f, 0, m * n)


def hom_space(x: LeftModule, y: LeftModule) -> list:
    """A basis of Hom(x, y), by solving the stacked intertwining system.

    The unknown map T satisfies T rho_x(e_i) = rho_y(e_i) T for every basis
    index; the system is linearized column-major and solved exactly, and
    the basis order is the canonical kernel order.
    """
    if x.algebra != y.algebra:
        raise AlgebraError("modules over different algebras")
    f = x.algebra.field
    m, n = y.dim, x.dim
    if m * n == 0:
        return []
    ker = intertwining_system(x, y).kernel_basis()
    return [ModuleMap.unchecked(x, y, unvec(f, ker.col(j), m, n)) for j in range(ker.cols)]


def free_hom_basis(a: Algebra, n: int, w: LeftModule) -> list:
    """Basis of Hom(R^n, w) built directly from Hom(R, w) = w.

    The basis element indexed by (copy i, basis vector t of w) sends the
    generator of copy i to that basis vector; order is (i, t) lexicographic.
    This spans the same space as :func:`hom_space` on the free source but
    costs no elimination.
    """
    f = a.field
    src = free_module(a, n)
    basis = []
    zero_block = Matrix.zeros(f, w.dim, a.dim)
    for i in range(n):
        for t in range(w.dim):
            cols = [w.action[s].col(t) for s in range(a.dim)]
            block = hstack(cols)
            blocks = [zero_block] * n
            blocks[i] = block
            basis.append(ModuleMap.unchecked(src, w, hstack(blocks)))
    return basis


def submodule_from_columns(x: LeftModule, cols: Matrix):
    """Submodule spanned by independent columns, with its inclusion.

    The columns must be action-stable; each action is re-expressed in the
    given basis by exact solving.  Raises if the span is not a submodule.
    """
    a = x.algebra
    if cols.rank() != cols.cols:
        raise AlgebraError("columns are not independent")
    action = []
    for i in range(a.dim):
        moved = x.action[i] @ cols
        expr = cols.solve(moved)
        if expr is None:
            raise AlgebraError(f"span not stable under basis index {i}")
        action.append(expr)
    sub = LeftModule(a, cols.cols, tuple(action))
    incl = ModuleMap(sub, x, cols)
    return sub, incl


def quotient_by_columns(x: LeftModule, cols: Matrix):
    """Quotient of x by the action-stable span of the given columns.

    Returns (quotient module, projection map, section matrix).  The basis
    of the quotient is the set of non-pivot coordinates under the
    deterministic row reduction of the relation span, so results are
    reproducible.
    """
    a = x.algebra
    for i in range(a.dim):
        if cols.cols and cols.solve(x.action[i] @ cols) is None:
            raise AlgebraError(f"span not stable under basis index {i}")
    proj, sect = quotient_maps(cols)
    action = tuple(proj @ x.action[i] @ sect for i in range(a.dim))
    quot = LeftModule(a, proj.rows, action)
    return quot, ModuleMap(x, quot, proj), sect
