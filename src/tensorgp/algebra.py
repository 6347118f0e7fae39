"""Finite-dimensional associative unital algebras given by structure
constants, their left modules as families of action matrices, and exact
Hom-space computation.

An algebra of dimension d over k stores the d^3 constants c[i][j][k]
meaning e_i * e_j = sum_k c[i][j][k] e_k together with the coordinates of
the unit.  Associativity and the unit law are checked exhaustively at
construction; :func:`check_algebra` produces the same diagnosis as a
report with explicit witnesses instead of raising.

A left module is a family of action matrices rho(e_i) subject to
rho(e_i) rho(e_j) = sum_k c[i][j][k] rho(e_k) and rho(1) = id.  Module
maps carry their endpoints and are validated against the intertwining
equations.  Everything is immutable; all checks are exact.
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


def _unit_matrix(field: FieldSpec, mats: Sequence[Matrix], unit_coords: Sequence) -> Matrix:
    """Linear combination sum_i unit[i] * mats[i]."""
    if not mats:
        raise AlgebraError("empty basis")
    acc = Matrix.zeros(field, mats[0].rows, mats[0].cols)
    for c, m in zip(unit_coords, mats):
        if c != field.zero():
            acc = acc + m.scale(c)
    return acc


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
        object.__setattr__(self, "consts", tuple(
            tuple(tuple(self.field.coerce(v) for v in row) for row in plane)
            for plane in self.consts
        ))
        object.__setattr__(self, "unit", tuple(self.field.coerce(v) for v in self.unit))
        report = check_algebra(self)
        if not report.valid:
            raise InvalidAlgebra(report)

    @staticmethod
    def unchecked(field: FieldSpec, dim: int, consts, unit) -> "Algebra":
        a = object.__new__(Algebra)
        object.__setattr__(a, "field", field)
        object.__setattr__(a, "dim", dim)
        object.__setattr__(a, "consts", tuple(
            tuple(tuple(field.coerce(v) for v in row) for row in plane) for plane in consts
        ))
        object.__setattr__(a, "unit", tuple(field.coerce(v) for v in unit))
        return a

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

    def __repr__(self):
        return f"Algebra({self.field}, dim={self.dim})"


def check_algebra(a: Algebra) -> ValidationReport:
    """Exhaustively verify associativity and the unit law.

    Returns a report listing every violated equation with its witness
    triple (or basis index for unit failures) and the nonzero residual.
    """
    violations = []
    f = a.field
    if len(a.consts) != a.dim or any(
        len(plane) != a.dim or any(len(row) != a.dim for row in plane) for plane in a.consts
    ):
        return ValidationReport("algebra", (("shape", (), None),))
    if len(a.unit) != a.dim:
        return ValidationReport("algebra", (("shape", ("unit",), None),))

    L = []
    for i in range(a.dim):
        L.append(Matrix.from_rows(
            f, [[a.consts[i][j][k] for j in range(a.dim)] for k in range(a.dim)]
        ))

    basis = [Matrix.basis_column(f, a.dim, i) for i in range(a.dim)]
    unit_col = Matrix.column(f, list(a.unit))

    def mult(u, v):
        acc = Matrix.zeros(f, a.dim, 1)
        for i in range(a.dim):
            c = u[i, 0]
            if c != f.zero():
                acc = acc + (L[i] @ v).scale(c)
        return acc

    for i in range(a.dim):
        left = mult(unit_col, basis[i])
        if left != basis[i]:
            violations.append(("unit-left", (i,), left - basis[i]))
        right = mult(basis[i], unit_col)
        if right != basis[i]:
            violations.append(("unit-right", (i,), right - basis[i]))

    for i in range(a.dim):
        for j in range(a.dim):
            ij = mult(basis[i], basis[j])
            for k in range(a.dim):
                lhs = mult(ij, basis[k])
                rhs = mult(basis[i], mult(basis[j], basis[k]))
                if lhs != rhs:
                    violations.append(("associativity", (i, j, k), lhs - rhs))
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
        x = object.__new__(LeftModule)
        object.__setattr__(x, "algebra", algebra)
        object.__setattr__(x, "dim", dim)
        object.__setattr__(x, "action", tuple(action))
        return x

    def __repr__(self):
        return f"LeftModule(dim={self.dim} over {self.algebra!r})"


def check_module(x: LeftModule) -> ValidationReport:
    """Verify the representation law rho(e_i)rho(e_j) = rho(e_i e_j) and rho(1) = id."""
    a = x.algebra
    f = a.field
    violations = []
    if len(x.action) != a.dim or any(m.shape != (x.dim, x.dim) for m in x.action):
        return ValidationReport("module", (("shape", (), None),))
    if any(m.field != f for m in x.action):
        return ValidationReport("module", (("field", (), None),))
    unit = _unit_matrix(f, x.action, a.unit) if a.dim else Matrix.zeros(f, x.dim, x.dim)
    if unit != Matrix.identity(f, x.dim):
        violations.append(("unit-action", (), unit - Matrix.identity(f, x.dim)))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = x.action[i] @ x.action[j]
            rhs = Matrix.zeros(f, x.dim, x.dim)
            for k in range(a.dim):
                c = a.consts[i][j][k]
                if c != f.zero():
                    rhs = rhs + x.action[k].scale(c)
            if lhs != rhs:
                violations.append(("module-law", (i, j), lhs - rhs))
    return ValidationReport("module", tuple(violations))


def zero_module(a: Algebra) -> LeftModule:
    return LeftModule(a, 0, tuple(Matrix.zeros(a.field, 0, 0) for _ in range(a.dim)))


def free_module(a: Algebra, n: int) -> LeftModule:
    """The free left module R^n: n block-diagonal copies of the regular
    representation, basis ordered copy-major."""
    if n < 0:
        raise AlgebraError("negative rank")
    action = []
    for i in range(a.dim):
        block = a.left_mult[i]
        rows = []
        for copy in range(n):
            rows.append(hstack(
                [Matrix.zeros(a.field, a.dim, a.dim * copy), block,
                 Matrix.zeros(a.field, a.dim, a.dim * (n - copy - 1))]
            ) if n > 1 else block)
        action.append(vstack(rows) if rows else Matrix.zeros(a.field, 0, 0))
    return LeftModule(a, n * a.dim, tuple(action))


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
        m = object.__new__(ModuleMap)
        object.__setattr__(m, "source", source)
        object.__setattr__(m, "target", target)
        object.__setattr__(m, "mat", mat)
        return m

    @staticmethod
    def zero(source: LeftModule, target: LeftModule) -> "ModuleMap":
        return ModuleMap(source, target, Matrix.zeros(source.algebra.field, target.dim, source.dim))

    @staticmethod
    def identity(x: LeftModule) -> "ModuleMap":
        return ModuleMap(x, x, Matrix.identity(x.algebra.field, x.dim))

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

    Composites of valid maps are valid, so no re-validation is performed
    outside of debug mode (python -O disables the assertion).
    """
    if g.target != f.source:
        raise InvalidMap("not composable")
    out = ModuleMap.unchecked(g.source, f.target, f.mat @ g.mat)
    assert ModuleMap(out.source, out.target, out.mat) is not None
    return out


def is_exact_at(f: ModuleMap, g: ModuleMap) -> bool:
    """Exactness at the middle of source --f--> middle --g--> target."""
    if f.target != g.source:
        raise InvalidMap("maps do not share a middle module")
    return is_exact_pair(f.mat, g.mat)


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
    blocks = []
    im = Matrix.identity(f, m)
    i_n = Matrix.identity(f, n)
    for i in range(x.algebra.dim):
        blocks.append(kron(x.action[i].transpose(), im) - kron(i_n, y.action[i]))
    system = vstack(blocks) if blocks else Matrix.zeros(f, 0, m * n)
    ker = system.kernel_basis()
    basis = []
    for j in range(ker.cols):
        basis.append(ModuleMap(x, y, unvec(f, ker.col(j), m, n)))
    return basis


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
            basis.append(ModuleMap(src, w, hstack(blocks)))
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
