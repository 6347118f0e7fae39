"""Bimodules over a structure-constant algebra, exact tensor products over
the base ring, tensor powers, and nilpotency certification.

A bimodule carries commuting left and right actions.  The tensor product
M (x)_R X of a bimodule with a left module is computed exactly as the
quotient of the field-level tensor space M (x)_k X by the span of the
middle relations (m.e_i)(x) x - m (x) (e_i.x); the chosen basis is the set
of non-pivot coordinates of the deterministic row reduction of that span,
so every model is reproducible.  The same construction gives the tensor
product of two bimodules.

Tensor powers are left-nested, M^{(x)(i+1)} = M (x)_R M^{(x)i}, and the
i-fold application of the functor F = M (x)_R - is modelled once per
(i, argument) pair as (M^{(x)i}) (x)_R X; nested application is available
separately as a cross-check.  The canonical comparison isomorphisms
between the two (grafting maps) and the concatenation multiplication on
powers are exposed for the layers above.

What is validated: the ``Bimodule`` constructor runs :func:`check_bimodule`
(both unit axioms, the representation law of
:func:`tensorgp.algebra.law_residuals` on each side, commutation) and
raises, and every grafting map is checked to be an isomorphism.  What is
built unchecked, because it is valid by construction from validated
bimodules and modules: tensor products (the result module of
:func:`tensor_module` and the bimodule of :func:`tensor_bimodule_model`),
the induced maps of :func:`tensor_map`, and the identity grafts.

All caches are memo tables for deterministic constructions: a repeated
computation returns an identical value, so concurrent redundant fills are
harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

from tensorgp.exactlin import (
    Matrix,
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
        super().__init__(f"invalid bimodule: {report.violations[0]}")
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
    if m1.algebra != m2.algebra:
        raise BimoduleError("bimodules over different algebras")
    from tensorgp.exactlin import direct_sum
    left = tuple(direct_sum(m1.left_action[i], m2.left_action[i]) for i in range(m1.algebra.dim))
    right = tuple(direct_sum(m1.right_action[i], m2.right_action[i]) for i in range(m1.algebra.dim))
    return Bimodule(m1.algebra, m1.dim + m2.dim, left, right)


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


class PowerModel(NamedTuple):
    """The i-th tensor power with flattening maps to the free tensor space.

    ``flat_proj``: V_M^{(x)i} -> model, ``flat_sect``: model -> V_M^{(x)i};
    for i = 0 the free space is the algebra's own coordinate space.
    """

    bim: Bimodule
    flat_proj: Matrix
    flat_sect: Matrix


def power(m: Bimodule, i: int) -> PowerModel:
    """The cached left-nested i-th tensor power of m over the base ring."""
    if i < 0:
        raise BimoduleError("negative tensor power")
    cache = m._cache.setdefault("power", {})
    if i in cache:
        return cache[i]
    f = m.algebra.field
    if i == 0:
        pm = PowerModel(regular_bimodule(m.algebra), Matrix.identity(f, m.algebra.dim),
                        Matrix.identity(f, m.algebra.dim))
    elif i == 1:
        pm = PowerModel(m, Matrix.identity(f, m.dim), Matrix.identity(f, m.dim))
    else:
        prev = power(m, i - 1)
        model = tensor_bimodule_model(m, prev.bim)
        im = Matrix.identity(f, m.dim)
        pm = PowerModel(
            model.result,
            model.projection @ kron(im, prev.flat_proj),
            kron(im, prev.flat_sect) @ model.section,
        )
    cache[i] = pm
    return pm


def certify_nilpotent(m: Bimodule, n: int) -> bool:
    """True iff the (n+1)-st tensor power of m vanishes."""
    if n < 0:
        raise BimoduleError("negative nilpotency index")
    return power(m, n + 1).bim.dim == 0


def power_dims(m: Bimodule, up_to: int) -> list:
    """Dimensions of the tensor powers 0..up_to (diagnostic helper)."""
    return [power(m, i).bim.dim for i in range(up_to + 1)]


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
            cache[key] = tensor_module(power(m, i).bim, x)
    return cache[key]


def iterate_functor_map(m: Bimodule, i: int, f: ModuleMap) -> ModuleMap:
    """F^i(f) between the canonical models."""
    if i == 0:
        return f
    pw = power(m, i).bim
    return tensor_map(pw, f, iterate_functor(m, i, f.source), iterate_functor(m, i, f.target))


def nested_model(m: Bimodule, i: int, x: LeftModule) -> LeftModule:
    """i literal nested applications of M (x)_R -; cross-check oracle only."""
    cur = x
    for _ in range(i):
        cur = tensor_module(m, cur).result
    return cur


def concat_mult(m: Bimodule, a: int, b: int) -> Matrix:
    """Concatenation multiplication mu: p(a) (x)_k p(b) -> p(a+b).

    Grade-0 factors act through the unit isomorphisms (left or right
    action of the base ring); higher grades go through the free tensor
    space flattenings.  Columns are indexed (p(a) basis, p(b) basis) with
    the left factor major.
    """
    pa, pb = power(m, a), power(m, b)
    f = m.algebra.field
    if a == 0:
        return hstack([pb.bim.left_action[i] for i in range(m.algebra.dim)]) \
            if m.algebra.dim else Matrix.zeros(f, pb.bim.dim, 0)
    if b == 0:
        cols = []
        for i in range(pa.bim.dim):
            cols.append(hstack([pa.bim.right_action[j].col(i) for j in range(m.algebra.dim)]))
        return hstack(cols) if cols else Matrix.zeros(f, pa.bim.dim, 0)
    pab = power(m, a + b)
    return pab.flat_proj @ kron(pa.flat_sect, pb.flat_sect)


def graft(m: Bimodule, a: int, b: int, x: LeftModule) -> ModuleMap:
    """The canonical isomorphism F^a(F^b(x)-model) -> F^{a+b}(x)-model.

    For a = 0 or b = 0 the two models coincide on the nose and the map is
    the identity.  Otherwise the map lifts through the sections to the
    free tensor space, concatenates, and projects back; the result is
    validated to be a linear isomorphism.  Both kinds are memoised.
    """
    cache = m._cache.setdefault("graft", {})
    key = (a, b, x)
    if key in cache:
        return cache[key]
    if a == 0 or b == 0:
        cache[key] = ModuleMap.identity(iterate_functor(m, a + b, x).result)
        return cache[key]
    fbx = iterate_functor(m, b, x)
    outer = iterate_functor(m, a, fbx.result)
    fabx = iterate_functor(m, a + b, x)
    f = m.algebra.field
    ix = Matrix.identity(f, x.dim)
    pa, pb, pab = power(m, a), power(m, b), power(m, a + b)
    psi_b = kron(pb.flat_sect, ix) @ fbx.section
    phi_ab = fabx.projection @ kron(pab.flat_proj, ix)
    mat = phi_ab @ kron(pa.flat_sect, psi_b) @ outer.section
    iso = ModuleMap(outer.result, fabx.result, mat)
    if outer.result.dim != fabx.result.dim or mat.rank() != fabx.result.dim:
        raise BimoduleError("internal: grafting map is not an isomorphism")
    cache[key] = iso
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
