"""Modules over the tensor ring of a nilpotent bimodule, presented as
pairs (X, u) of a base-ring module and a structure map u: M (x)_R X -> X.

The :class:`TensorRing` context bundles the base algebra, the bimodule and
a certified nilpotency index.  It provides the induced projectives
Ind(X) = (sum of the functor powers of X, block shift), the stalk and
cokernel functors, assembly and decomposition of the lower-triangular
block morphisms between induced modules, and two independent oracles: a
structure-constant model of the tensor ring itself, and the translation
of pairs into modules over that model.

What is validated: the ``TensorRing`` constructor certifies nilpotency,
and pairs (``TModule``), morphisms of pairs (``TMorphism``) and component
lists (``StarMorphism``) are checked against their defining equations
when constructed, as are the ring model and the modules over it.  What is
built from validated data by construction is not validated again: the
free modules of :meth:`TensorRing.free`, the underlying module of
:meth:`TensorRing.ind`, the assembled block matrix of a component list and
the basis that :meth:`TensorRing.hom_t` reads off the kernel of its
equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from tensorgp.exactlin import Matrix, hstack, kron, unvec, vstack
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    LeftModule,
    ModuleMap,
    free_module,
    intertwining_system,
    quotient_by_columns,
    unchecked_instance,
)
from tensorgp.bimodule import (
    Bimodule,
    certify_nilpotent,
    concat_mult,
    graft,
    graft_inverse,
    iterate_functor,
    iterate_functor_map,
    power,
    tensor_map,
)


class TensorRingError(AlgebraError):
    pass


class NotNilpotent(TensorRingError):
    pass


class NotInduced(TensorRingError):
    pass


class DecompositionError(TensorRingError):
    def __init__(self, block, message):
        super().__init__(message)
        self.block = block


class Cokernel(NamedTuple):
    module: LeftModule
    projection: ModuleMap


@dataclass(frozen=True)
class TensorRing:
    """The tensor ring of an n-nilpotent bimodule over its base algebra."""

    algebra: Algebra
    bimodule: Bimodule
    nilpotency: int
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.bimodule.algebra != self.algebra:
            raise TensorRingError("bimodule is over a different algebra")
        if not certify_nilpotent(self.bimodule, self.nilpotency):
            raise NotNilpotent(
                f"tensor power {self.nilpotency + 1} has dimension "
                f"{power(self.bimodule, self.nilpotency + 1).bim.dim}, not 0"
            )

    # -- plain module plumbing ------------------------------------------

    def free(self, rank: int) -> LeftModule:
        cache = self._cache.setdefault("free", {})
        if rank not in cache:
            cache[rank] = free_module(self.algebra, rank)
        return cache[rank]

    def model(self, i: int, x: LeftModule):
        return iterate_functor(self.bimodule, i, x)

    def power_dim(self, i: int) -> int:
        return power(self.bimodule, i).bim.dim

    # -- the four functors ----------------------------------------------

    def ind(self, x: LeftModule) -> "InducedModule":
        """Induction: the sum of all functor powers of x with the block
        shift as structure map."""
        from tensorgp.exactlin import direct_sum

        n = self.nilpotency
        m = self.bimodule
        f = self.algebra.field
        blocks = [self.model(i, x) for i in range(n + 1)]
        offsets = [0]
        for b in blocks:
            offsets.append(offsets[-1] + b.result.dim)
        total = offsets[-1]
        action = []
        for e in range(self.algebra.dim):
            acc = blocks[0].result.action[e]
            for b in blocks[1:]:
                acc = direct_sum(acc, b.result.action[e])
            action.append(acc)
        y = LeftModule.unchecked(self.algebra, total, tuple(action))
        fy = self.model(1, y)
        u = Matrix.zeros(f, total, fy.result.dim)
        for i in range(n):
            pr = ModuleMap(y, blocks[i].result, _block_row_selector(f, offsets, i, total))
            fpr = tensor_map(m, pr, fy, self.model(1, blocks[i].result))
            shift = graft(m, 1, i, x).mat @ fpr.mat
            incl = _block_col_injector(f, offsets, i + 1, total)
            u = u + incl @ shift
        return InducedModule(self, y, u, base=x, offsets=tuple(offsets))

    def ind_free(self, rank: int) -> "InducedModule":
        cache = self._cache.setdefault("ind_free", {})
        if rank not in cache:
            cache[rank] = self.ind(self.free(rank))
        return cache[rank]

    def ind_map(self, f: ModuleMap) -> "TMorphism":
        """Induction on maps: the block diagonal of the functor powers."""
        from tensorgp.exactlin import direct_sum

        mats = [iterate_functor_map(self.bimodule, i, f).mat for i in range(self.nilpotency + 1)]
        acc = mats[0]
        for mm in mats[1:]:
            acc = direct_sum(acc, mm)
        return TMorphism(self.ind(f.source), self.ind(f.target), acc)

    def stalk(self, x: LeftModule) -> "TModule":
        """The pair (x, 0)."""
        fx = self.model(1, x)
        return TModule(self, x, Matrix.zeros(self.algebra.field, x.dim, fx.result.dim))

    def forget(self, t: "TModule") -> LeftModule:
        return t.x

    def coker(self, t: "TModule") -> Cokernel:
        """Cokernel of the structure map, with the induced action."""
        image = t.u.image_basis()
        module, proj, _sect = quotient_by_columns(t.x, image)
        return Cokernel(module, proj)

    # -- iterated action and the ring model ------------------------------

    def iterated_action(self, t: "TModule", i: int) -> Matrix:
        """The i-fold action map F^i(X) -> X induced by u."""
        f = self.algebra.field
        if i == 0:
            return Matrix.identity(f, t.x.dim)
        m = self.bimodule
        acc = t.u  # F^1(X) -> X
        for j in range(1, i):
            src = self.model(j, t.x)
            if self.model(j + 1, t.x).result.dim == 0:
                return Matrix.zeros(f, t.x.dim, 0)
            uj = ModuleMap(src.result, t.x, acc)
            fuj = tensor_map(m, uj, self.model(1, src.result), self.model(1, t.x))
            acc = t.u @ fuj.mat @ graft_inverse(m, 1, j, t.x).mat
        return acc

    def algebra_model(self) -> Algebra:
        """Structure-constant model of the tensor ring itself.

        The basis is graded, grade i contributing the basis of the i-th
        tensor power; multiplication is concatenation, truncated beyond
        the nilpotency index.  The result passes the full associativity
        check at construction.
        """
        if "algebra_model" in self._cache:
            return self._cache["algebra_model"]
        n = self.nilpotency
        f = self.algebra.field
        dims = [self.power_dim(i) for i in range(n + 1)]
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        total = offsets[-1]
        zero_row = [f.zero()] * total
        consts = [[list(zero_row) for _ in range(total)] for _ in range(total)]
        for i in range(n + 1):
            for j in range(n + 1):
                if i + j > n:
                    continue
                mu = concat_mult(self.bimodule, i, j)
                for s in range(dims[i]):
                    for t in range(dims[j]):
                        col = mu.col(s * dims[j] + t)
                        row = consts[offsets[i] + s][offsets[j] + t]
                        for k in range(dims[i + j]):
                            row[offsets[i + j] + k] = col[k, 0]
        unit = [f.zero()] * total
        for k, c in enumerate(self.algebra.unit):
            unit[k] = c
        model = Algebra(f, total, tuple(tuple(tuple(r) for r in plane) for plane in consts), tuple(unit))
        self._cache["algebra_model"] = model
        return model

    def to_algebra_module(self, t: "TModule") -> LeftModule:
        """Translate a pair (X, u) into a module over the ring model.

        Grade-i basis elements act through the i-fold iterated action;
        validity of the result is the implemented direction of the
        category equivalence.
        """
        model = self.algebra_model()
        f = self.algebra.field
        n = self.nilpotency
        action = []
        ix = Matrix.identity(f, t.x.dim)
        for i in range(n + 1):
            d = self.power_dim(i)
            if i == 0:
                action.extend(t.x.action)
                continue
            ui = self.iterated_action(t, i)
            proj = self.model(i, t.x).projection
            for s in range(d):
                emb = kron(Matrix.basis_column(f, d, s), ix)
                action.append(ui @ proj @ emb)
        return LeftModule(model, t.x.dim, tuple(action))

    # -- block morphisms ---------------------------------------------------

    def assemble_star(self, s: "StarMorphism") -> Matrix:
        """The lower-triangular block matrix of a component list, a map
        Ind(free source rank) -> Ind(free target rank).

        Block (j, i), 1-indexed and lower triangular, is the grafted
        (j-i+1)-th component under the (i-1)-st functor power.  Every such
        matrix is a morphism of pairs, so it is not re-validated.
        """
        if s.ring != self:
            raise TensorRingError("star morphism belongs to a different ring")
        n = self.nilpotency
        m = self.bimodule
        f = self.algebra.field
        p = self.free(s.source_rank)
        q = self.free(s.target_rank)
        src_dims = [self.model(i, p).result.dim for i in range(n + 1)]
        tgt_dims = [self.model(j, q).result.dim for j in range(n + 1)]
        rows = []
        for j in range(1, n + 2):
            cells = []
            for i in range(1, n + 2):
                if j < i:
                    cells.append(Matrix.zeros(f, tgt_dims[j - 1], src_dims[i - 1]))
                else:
                    comp = s.components[j - i]
                    lifted = iterate_functor_map(m, i - 1, comp)
                    g = graft(m, i - 1, j - i, q)
                    cells.append(g.mat @ lifted.mat)
            rows.append(hstack(cells))
        return vstack(rows)

    def decompose_star(self, t: "TMorphism") -> "StarMorphism":
        """Read the components of a morphism between induced free modules
        from its first block column and verify the reproduction exactly."""
        src, tgt = t.source, t.target
        if not isinstance(src, InducedModule) or not isinstance(tgt, InducedModule):
            raise NotInduced("both endpoints must be induced modules")
        rank_p = _free_rank(self, src.base)
        rank_q = _free_rank(self, tgt.base)
        n = self.nilpotency
        q = self.free(rank_q)
        components = []
        for j in range(1, n + 2):
            blk = t.mat.block(tgt.offsets[j - 1], tgt.offsets[j], src.offsets[0], src.offsets[1])
            components.append(ModuleMap(self.free(rank_p), self.model(j - 1, q).result, blk))
        star = StarMorphism(self, rank_p, rank_q, tuple(components))
        redone = self.assemble_star(star)
        if redone != t.mat:
            for j in range(1, n + 2):
                for i in range(1, n + 2):
                    a = redone.block(tgt.offsets[j - 1], tgt.offsets[j],
                                     src.offsets[i - 1], src.offsets[i])
                    b = t.mat.block(tgt.offsets[j - 1], tgt.offsets[j],
                                    src.offsets[i - 1], src.offsets[i])
                    if a != b:
                        raise DecompositionError(
                            (j, i),
                            f"block ({j}, {i}) is not determined by the first column; "
                            "the input is not a morphism of pairs",
                        )
            raise DecompositionError(None, "reproduction failed")
        return star

    # -- morphism spaces -----------------------------------------------------

    def hom_t(self, t1: "TModule", t2: "TModule") -> list:
        """Basis of the space of morphisms of pairs t1 -> t2.

        An unknown e: t1.x -> t2.x is linear over the base algebra and
        satisfies e u1 = u2 F(e) with F(e) = P2 (I (x) e) S1.  With S1_k the
        k-th row block of S1 and (u2 P2)_k the k-th column block of u2 P2,
        that is (u1^T (x) I - sum_k S1_k^T (x) (u2 P2)_k) vec(e) = 0.  The
        basis is the canonical kernel of both systems stacked.
        """
        f = self.algebra.field
        a, b = t2.x.dim, t1.x.dim
        if a * b == 0:
            return []
        s1 = self.model(1, t1.x).section
        u2p2 = t2.u @ self.model(1, t2.x).projection
        structure = kron(t1.u.transpose(), Matrix.identity(f, a))
        for k in range(self.bimodule.dim):
            structure = structure - kron(s1.block(k * b, (k + 1) * b, 0, s1.cols).transpose(),
                                         u2p2.block(0, a, k * a, (k + 1) * a))
        ker = vstack([intertwining_system(t1.x, t2.x), structure]).kernel_basis()
        return [TMorphism.unchecked(t1, t2, unvec(f, ker.col(c), a, b)) for c in range(ker.cols)]


def _block_row_selector(field, offsets, i, total) -> Matrix:
    """Matrix selecting block i out of a direct sum with the given offsets."""
    rows = offsets[i + 1] - offsets[i]
    cells = [Matrix.zeros(field, rows, offsets[i]),
             Matrix.identity(field, rows),
             Matrix.zeros(field, rows, total - offsets[i + 1])]
    return hstack(cells)


def _block_col_injector(field, offsets, i, total) -> Matrix:
    return _block_row_selector(field, offsets, i, total).transpose()


def _free_rank(ring: TensorRing, x: LeftModule) -> int:
    d = ring.algebra.dim
    if x.dim % d:
        raise NotInduced("underlying module is not free over the base")
    rank = x.dim // d
    if ring.free(rank) != x:
        raise NotInduced("underlying module is not the standard free module")
    return rank


@dataclass(frozen=True)
class TModule:
    """A module over the tensor ring: a pair (x, u) with u: F(x) -> x.

    Construction validates that u is linear over the base algebra and that
    the iterated action vanishes beyond the nilpotency index (vacuous when
    the corresponding functor power is zero, which certification of the
    ring guarantees).
    """

    ring: TensorRing
    x: LeftModule
    u: Matrix

    def __post_init__(self):
        fx = self.ring.model(1, self.x)
        ModuleMap(fx.result, self.x, self.u)  # validates linearity
        n = self.ring.nilpotency
        if self.ring.model(n + 1, self.x).result.dim != 0:
            if not self.ring.iterated_action(self, n + 1).is_zero():
                raise TensorRingError("iterated action does not vanish beyond the nilpotency index")

    def __repr__(self):
        return f"TModule(dim={self.x.dim})"


@dataclass(frozen=True)
class InducedModule(TModule):
    """Ind(base): the direct sum of the functor powers of the base module,
    with the stored block decomposition."""

    base: LeftModule = None
    offsets: tuple = ()

    def __repr__(self):
        return f"InducedModule(base dim={self.base.dim}, total dim={self.x.dim})"


@dataclass(frozen=True)
class TMorphism:
    """A morphism of pairs: linear over the base and compatible with the
    structure maps (f . u = u' . F(f))."""

    source: TModule
    target: TModule
    mat: Matrix

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise TensorRingError("morphism across different tensor rings")
        ring = self.source.ring
        f = ModuleMap(self.source.x, self.target.x, self.mat)  # linearity
        lhs = self.mat @ self.source.u
        ff = tensor_map(ring.bimodule, f, ring.model(1, self.source.x), ring.model(1, self.target.x))
        rhs = self.target.u @ ff.mat
        if lhs != rhs:
            raise TensorRingError("not compatible with the structure maps")

    @staticmethod
    def unchecked(source, target, mat) -> "TMorphism":
        return unchecked_instance(TMorphism, source, target, mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()


@dataclass(frozen=True)
class StarMorphism:
    """The component list (alpha_1, ..., alpha_{N+1}) of a lower-triangular
    block morphism between induced free modules.

    Component alpha_i maps the free module of the source rank to the
    (i-1)-st functor power of the free module of the target rank, in the
    canonical models.
    """

    ring: TensorRing
    source_rank: int
    target_rank: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        n = self.ring.nilpotency
        if len(self.components) != n + 1:
            raise TensorRingError(f"expected {n + 1} components, got {len(self.components)}")
        p = self.ring.free(self.source_rank)
        q = self.ring.free(self.target_rank)
        for i, comp in enumerate(self.components):
            if comp.source != p:
                raise TensorRingError(f"component {i + 1} has the wrong source")
            if comp.target != self.ring.model(i, q).result:
                raise TensorRingError(f"component {i + 1} has the wrong target model")

    @staticmethod
    def zero(ring: TensorRing, source_rank: int, target_rank: int) -> "StarMorphism":
        p = ring.free(source_rank)
        q = ring.free(target_rank)
        comps = [ModuleMap.zero(p, ring.model(i, q).result) for i in range(ring.nilpotency + 1)]
        return StarMorphism(ring, source_rank, target_rank, tuple(comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return f"StarMorphism({self.source_rank} -> {self.target_rank})"
