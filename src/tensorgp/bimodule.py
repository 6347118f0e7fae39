"""Bimodules over a structure-constant algebra, exact tensor products over
the base ring, tensor powers, and nilpotency certification.

A bimodule carries commuting left and right actions.  The tensor product
M (x)_R X of a bimodule with a left module is computed exactly as the
quotient of the field-level tensor space M (x)_k X by the span of the
middle relations (m.e_i)(x) x - m (x) (e_i.x); the chosen basis is the set
of non-pivot coordinates of the deterministic row reduction of that span,
so every model is reproducible.  The same construction gives the tensor
product of two bimodules.

Tensor powers are left-nested, M^{(x)(i+1)} = M (x)_R M^{(x)i}, each
represented once by its model over R, and the i-fold application of the
functor F = M (x)_R - is modelled once per (i, argument) pair as
(M^{(x)i}) (x)_R X.  The canonical comparison isomorphisms between the two
(grafting maps) and the concatenation multiplication on powers are built
up the left factor through these models, one step per index and without
recursion, so no map passes through the k-level space V_M^{(x)i}, whose
dimension (dim M)^i grows exponentially.

What is validated: the ``Bimodule`` constructor runs :func:`check_bimodule`
(both unit axioms, the representation law of
:func:`tensorgp.algebra.law_residuals` on each side, commutation) and
raises, and every grafting map is checked to be an isomorphism.  What is
built unchecked, because it is valid by construction from validated
bimodules and modules: tensor products (the result module of
:func:`tensor_module` and the bimodule of :func:`tensor_bimodule_model`),
direct sums (:func:`direct_sum_bimodule`), the induced maps of
:func:`tensor_map`, and the identity grafts.

All caches are memo tables for deterministic constructions: a repeated
computation returns an identical value, so concurrent redundant fills are
harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

from tensorgp.exactlin import (
    Matrix,
    direct_sum,
    hstack,
    kron,
    quotient_maps,
)
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    LeftModule,
    ModuleMap,
    ValidationReport,
    _unit_residual,
    law_residuals,
    unchecked_instance,
)


class BimoduleError(AlgebraError):
    pass


class InvalidBimodule(BimoduleError):
    def __init__(self, report):
        super().__init__(f"invalid bimodule: {report.describe(1)[0]}")
        self.report = report


class ModelMismatch(BimoduleError):
    pass


@dataclass(frozen=True)
class Bimodule:
    """A bimodule: a left action and a right action that commute.

    ``left_action[i]`` is the matrix of e_i acting on the left and
    ``right_action[i]`` of e_i acting on the right; the right action obeys
    the contravariant composition law rho(e_i e_j) = rho(e_j) rho(e_i).
    """

    algebra: Algebra
    dim: int
    left_action: tuple
    right_action: tuple
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "left_action", tuple(self.left_action))
        object.__setattr__(self, "right_action", tuple(self.right_action))
        report = check_bimodule(self)
        if not report.valid:
            raise InvalidBimodule(report)

    @staticmethod
    def unchecked(algebra, dim, left_action, right_action) -> "Bimodule":
        return unchecked_instance(Bimodule, algebra, dim, tuple(left_action),
                                  tuple(right_action), {})

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


def check_bimodule(m: Bimodule) -> ValidationReport:
    """Verify both unit axioms, both module laws and commutation.

    The left law is the representation law on the left action; the right
    action obeys it in the opposite order, rho(e_j) rho(e_i) =
    sum_k c[i][j][k] rho(e_k), which is the law on the transposed matrices,
    transposed back.
    """
    a = m.algebra
    if len(m.left_action) != a.dim or len(m.right_action) != a.dim or \
            any(mat.shape != (m.dim, m.dim) for mat in m.left_action + m.right_action):
        return ValidationReport("bimodule", (("shape", (), None),))
    violations = []
    for kind, action in (("left-unit", m.left_action), ("right-unit", m.right_action)):
        unit = _unit_residual(a, action, m.dim)
        if not unit.is_zero():
            violations.append((kind, (), unit))
    left = law_residuals(a, m.left_action)
    right = law_residuals(a, [r.transpose() for r in m.right_action])
    for i in range(a.dim):
        for j in range(a.dim):
            if (i, j) in left:
                violations.append(("left-law", (i, j), left[i, j]))
            if (i, j) in right:
                violations.append(("right-law", (i, j), right[i, j].transpose()))
            comm = m.left_action[i] @ m.right_action[j] - m.right_action[j] @ m.left_action[i]
            if not comm.is_zero():
                violations.append(("commutation", (i, j), comm))
    return ValidationReport("bimodule", tuple(violations))


def zero_bimodule(a: Algebra) -> Bimodule:
    z = tuple(Matrix.zeros(a.field, 0, 0) for _ in range(a.dim))
    return Bimodule(a, 0, z, z)


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra as a bimodule over itself."""
    return Bimodule(a, a.dim, a.left_mult, a.right_mult)


def direct_sum_bimodule(m1: Bimodule, m2: Bimodule) -> Bimodule:
    """m1 (+) m2 with block diagonal actions; the direct sum of valid
    bimodules is valid, so it is built unchecked."""
    if m1.algebra != m2.algebra:
        raise BimoduleError("bimodules over different algebras")
    left = tuple(map(direct_sum, m1.left_action, m2.left_action))
    right = tuple(map(direct_sum, m1.right_action, m2.right_action))
    return Bimodule.unchecked(m1.algebra, m1.dim + m2.dim, left, right)


@dataclass(frozen=True)
class TensoredModule:
    """A chosen model of M (x)_R X.

    ``projection`` maps the field-level tensor space (basis order: M index
    major) onto the model; ``section`` splits it.  For the 0-th functor
    power the model is the argument itself with identity projection and
    ``bimodule`` is None.
    """

    bimodule: Optional[Bimodule]
    argument: LeftModule
    result: LeftModule
    projection: Matrix
    section: Matrix

    @property
    def trivial(self) -> bool:
        return self.bimodule is None


def _middle_relations(right_acts, left_acts, mdim, xdim, field) -> Matrix:
    """Columns spanning the middle-action relation subspace of M (x)_k X."""
    im = Matrix.identity(field, mdim)
    ix = Matrix.identity(field, xdim)
    blocks = []
    for r_act, l_act in zip(right_acts, left_acts):
        blocks.append(kron(r_act, ix) - kron(im, l_act))
    return hstack(blocks) if blocks else Matrix.zeros(field, mdim * xdim, 0)


def tensor_module(m: Bimodule, x: LeftModule) -> TensoredModule:
    """The tensor product M (x)_R X with its projection and section."""
    if m.algebra != x.algebra:
        raise BimoduleError("algebra mismatch")
    f = m.algebra.field
    relations = _middle_relations(m.right_action, x.action, m.dim, x.dim, f)
    proj, sect = quotient_maps(relations)
    action = tuple(proj @ kron(m.left_action[i], Matrix.identity(f, x.dim)) @ sect
                   for i in range(m.algebra.dim))
    result = LeftModule.unchecked(m.algebra, proj.rows, action)
    return TensoredModule(m, x, result, proj, sect)


def tensor_map(m: Bimodule, f: ModuleMap, fx: TensoredModule, fy: TensoredModule) -> ModuleMap:
    """The induced map M (x) f between the chosen models."""
    if fx.trivial and fy.trivial:
        return f
    if fx.trivial or fy.trivial:
        raise ModelMismatch("mixed trivial and tensored models")
    if fx.bimodule != m or fy.bimodule != m:
        raise ModelMismatch("models were built from a different bimodule")
    if fx.argument != f.source or fy.argument != f.target:
        raise ModelMismatch("models do not match the endpoints of the map")
    mat = fy.projection @ kron(Matrix.identity(m.algebra.field, m.dim), f.mat) @ fx.section
    return ModuleMap.unchecked(fx.result, fy.result, mat)


class BimoduleModel(NamedTuple):
    """A chosen model of M1 (x)_R M2 with projection and section."""

    result: Bimodule
    projection: Matrix
    section: Matrix


def tensor_bimodule_model(m1: Bimodule, m2: Bimodule) -> BimoduleModel:
    """The tensor product of two bimodules with its projection and section;
    the tensor product of valid bimodules is valid, so it is built
    unchecked."""
    if m1.algebra != m2.algebra:
        raise BimoduleError("algebra mismatch")
    a = m1.algebra
    f = a.field
    relations = _middle_relations(m1.right_action, m2.left_action, m1.dim, m2.dim, f)
    proj, sect = quotient_maps(relations)
    i1 = Matrix.identity(f, m1.dim)
    i2 = Matrix.identity(f, m2.dim)
    left = tuple(proj @ kron(m1.left_action[i], i2) @ sect for i in range(a.dim))
    right = tuple(proj @ kron(i1, m2.right_action[i]) @ sect for i in range(a.dim))
    return BimoduleModel(Bimodule.unchecked(a, proj.rows, left, right), proj, sect)


def tensor_bimodule(m1: Bimodule, m2: Bimodule) -> Bimodule:
    """The tensor product of bimodules, left action from m1, right from m2."""
    return tensor_bimodule_model(m1, m2).result


def power(m: Bimodule, i: int) -> BimoduleModel:
    """The cached left-nested i-th tensor power of m over the base ring.

    For i >= 2 this is the model of M (x)_R M^{(x)(i-1)}: ``projection``
    P_i maps M (x)_k M^{(x)(i-1)} onto it and ``section`` S_i splits P_i.
    Power 0 is the regular bimodule and power 1 is m, both with identity
    maps.
    """
    if i < 0:
        raise BimoduleError("negative tensor power")
    cache = m._cache.setdefault("power", {})
    if i not in cache:
        if i <= 1:
            pw = m if i == 1 else regular_bimodule(m.algebra)
            ident = Matrix.identity(m.algebra.field, pw.dim)
            cache[i] = BimoduleModel(pw, ident, ident)
        else:
            # bottom-up, so a large index costs no recursion depth
            power(m, 1)
            for j in range(2, i + 1):
                if j not in cache:
                    cache[j] = tensor_bimodule_model(m, cache[j - 1].result)
    return cache[i]


def certify_nilpotent(m: Bimodule, n: int) -> bool:
    """True iff the (n+1)-st tensor power of m vanishes."""
    if n < 0:
        raise BimoduleError("negative nilpotency index")
    return power(m, n + 1).result.dim == 0


def power_dims(m: Bimodule, up_to: int) -> list:
    """Dimensions of the tensor powers 0..up_to (diagnostic helper)."""
    return [power(m, i).result.dim for i in range(up_to + 1)]


def iterate_functor(m: Bimodule, i: int, x: LeftModule) -> TensoredModule:
    """The canonical model of the i-th functor power applied to x.

    F^0 is the identity (same module, identity projection); for i >= 1 the
    model is (M^{(x)i}) (x)_R X with the cached power.  Models, F^0
    included, are fixed once per (i, x) pair.
    """
    if i < 0:
        raise BimoduleError("negative functor power")
    cache = m._cache.setdefault("model", {})
    key = (i, x)
    if key not in cache:
        if i == 0:
            ident = Matrix.identity(m.algebra.field, x.dim)
            cache[key] = TensoredModule(None, x, x, ident, ident)
        else:
            cache[key] = tensor_module(power(m, i).result, x)
    return cache[key]


def iterate_functor_map(m: Bimodule, i: int, f: ModuleMap) -> ModuleMap:
    """F^i(f) between the canonical models."""
    if i == 0:
        return f
    pw = power(m, i).result
    return tensor_map(pw, f, iterate_functor(m, i, f.source), iterate_functor(m, i, f.target))


def concat_mult(m: Bimodule, a: int, b: int) -> Matrix:
    """Concatenation multiplication mu: p(a) (x)_k p(b) -> p(a+b).

    Grade-0 factors act through the unit isomorphisms (left or right
    action of the base ring).  Otherwise mu is built up the left factor
    through the left-nested models: mu(1, b) = P_{b+1}, and for a >= 2
    mu(a, b) = P_{a+b} (I_M (x) mu(a-1, b)) (S_a (x) I), so every operand
    is a model over R, never the k-level space V_M^{(x)(a+b)}.  Columns
    are indexed (p(a) basis, p(b) basis) with the left factor major.
    """
    pa, pb = power(m, a), power(m, b)
    f = m.algebra.field
    if a == 0:
        return hstack([pb.result.left_action[i] for i in range(m.algebra.dim)]) \
            if m.algebra.dim else Matrix.zeros(f, pb.result.dim, 0)
    if b == 0:
        cols = []
        for i in range(pa.result.dim):
            cols.append(hstack([pa.result.right_action[j].col(i) for j in range(m.algebra.dim)]))
        return hstack(cols) if cols else Matrix.zeros(f, pa.result.dim, 0)
    # bottom-up in the left index, so a large index costs no recursion depth
    mu = power(m, 1 + b).projection
    for i in range(2, a + 1):
        mu = power(m, i + b).projection @ kron(Matrix.identity(f, m.dim), mu) \
            @ kron(power(m, i).section, Matrix.identity(f, pb.result.dim))
    return mu


def graft(m: Bimodule, a: int, b: int, x: LeftModule) -> ModuleMap:
    """The canonical isomorphism F^a(F^b(x)-model) -> F^{a+b}(x)-model.

    For a = 0 or b = 0 the two models coincide on the nose and the map is
    the identity.  Otherwise it is built up the left factor: split
    M^{(x)a} by S_a, graft the inner F^{a-1}(F^b(x)) onto F^{a+b-1}(x),
    and project through P_{a+b}.  Each step lifts a class to a
    representative and projects it back, so the result is the canonical
    map.  It is validated to be a linear isomorphism.  Both kinds are
    memoised; the steps below a are filled bottom-up, so a large index
    costs no recursion depth.
    """
    cache = m._cache.setdefault("graft", {})
    key = (a, b, x)
    if key in cache:
        return cache[key]
    if a == 0 or b == 0:
        cache[key] = ModuleMap.identity(iterate_functor(m, a + b, x).result)
        return cache[key]
    graft(m, 0, b, x)  # the identity the first step grafts through
    first = a
    while (first - 1, b, x) not in cache:
        first -= 1
    for i in range(first, a + 1):
        cache[i, b, x] = _graft_step(m, i, b, x, cache[i - 1, b, x].mat)
    return cache[key]


def _graft_step(m: Bimodule, a: int, b: int, x: LeftModule, below: Matrix) -> ModuleMap:
    """The graft for (a, b, x), a, b >= 1, from the matrix ``below`` of the
    graft for (a - 1, b, x)."""
    fbx = iterate_functor(m, b, x)
    outer = iterate_functor(m, a, fbx.result)
    fabx = iterate_functor(m, a + b, x)
    f = m.algebra.field
    inner = iterate_functor(m, a + b - 1, x).section @ below \
        @ iterate_functor(m, a - 1, fbx.result).projection
    mat = fabx.projection @ kron(power(m, a + b).projection, Matrix.identity(f, x.dim)) \
        @ kron(Matrix.identity(f, m.dim), inner) \
        @ kron(power(m, a).section, Matrix.identity(f, fbx.result.dim)) @ outer.section
    iso = ModuleMap(outer.result, fabx.result, mat)
    if outer.result.dim != fabx.result.dim or mat.rank() != fabx.result.dim:
        raise BimoduleError("internal: grafting map is not an isomorphism")
    return iso


def graft_inverse(m: Bimodule, a: int, b: int, x: LeftModule) -> ModuleMap:
    """Inverse of :func:`graft`, F^{a+b}(x)-model -> F^a(F^b(x)-model)."""
    g = graft(m, a, b, x)
    if a == 0 or b == 0:
        return g
    cache = m._cache.setdefault("graft_inv", {})
    key = (a, b, x)
    if key not in cache:
        cache[key] = ModuleMap(g.target, g.source, g.mat.inverse())
    return cache[key]
