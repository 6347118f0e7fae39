"""Modules over the tensor ring of a nilpotent bimodule, presented as
pairs (X, u) of a base-ring module and a structure map u: M (x)_R X -> X.

The :class:`TensorRing` context bundles the base algebra, the bimodule and
a certified nilpotency index.  It provides the induced projectives
Ind(X) = (sum of the functor powers of X, block shift), the stalk and
cokernel functors, assembly and decomposition of the lower-triangular
block morphisms between induced modules, and two independent oracles: a
structure-constant model of the tensor ring itself, and the translation
of pairs into modules over that model.

What is validated: the ``TensorRing`` constructor certifies nilpotency
(:meth:`TensorRing.unchecked` serves a caller that holds its own
certificate), and pairs (``TModule``), morphisms of pairs
(``TMorphism``) and component lists (``StarMorphism``) are checked
against their defining equations when constructed, as are the ring model
and the modules over it.  What is built from validated data by
construction is not validated again: the free modules of
:meth:`TensorRing.free`, the underlying module of
:meth:`TensorRing.ind`, the components of :meth:`TensorRing.star_at`,
the assembled block matrix of a component list and the basis that
:meth:`TensorRing.hom_t` reads off the kernel of its equations.

Memo tables live in ``TensorRing._cache``, one key per reader: ``ind_free``
and ``algebra_model`` here (the free modules are memoised on the algebra,
by :func:`~tensorgp.algebra.free_module`); ``slot_frame``, the coordinate
frame of the component lists per rank pair (:meth:`TensorRing.slot_frame`),
for ``search`` and the C3 checker; ``unit_table`` and ``ind_projections``,
the (r, 1) unit table and the stacked Ind(pi_k) per rank r, which C3 and
the hunter read in place; ``oracle_hom``, the stacked ``hom_t`` bases of
Hom(Ind P^r, Ind R) per rank r, for :func:`resolution.hom_complex_oracle`
only, so that no checker reads what the oracle computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import NamedTuple

from tensorgp.exactlin import (Matrix, block_diagonal, block_matrix, canonical_basis, hstack,
                               kron, unvec_blocks, unvec_columns, vec_columns, vec_postcompose,
                               vec_precompose, vstack)
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    LeftModule,
    ModuleMap,
    free_hom_vecs,
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
    power_dims,
    tensor_map,
)


class TensorRingError(AlgebraError):
    pass


class NotNilpotent(TensorRingError):
    """The tensor power above the declared nilpotency index does not
    vanish; ``dims`` are the dimensions of the powers up to that one."""

    def __init__(self, dims: list):
        super().__init__(f"tensor power {len(dims) - 1} has dimension {dims[-1]}, not 0")
        self.dims = dims


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
            raise NotNilpotent(power_dims(self.bimodule, self.nilpotency + 1))

    # -- plain module plumbing ------------------------------------------

    @staticmethod
    def unchecked(algebra: Algebra, bimodule: Bimodule, nilpotency: int) -> "TensorRing":
        """The tensor ring of a bimodule whose nilpotency is certified by
        its caller, built without certifying it again."""
        return unchecked_instance(TensorRing, algebra, bimodule, nilpotency, {})

    def free(self, rank: int) -> LeftModule:
        return free_module(self.algebra, rank)

    def model(self, i: int, x: LeftModule):
        return iterate_functor(self.bimodule, i, x)

    def power_dim(self, i: int) -> int:
        return power(self.bimodule, i).result.dim

    # -- the functors (the forgetful one is TModule.x) ------------------

    def ind(self, x: LeftModule) -> "InducedModule":
        """Induction: the sum of all functor powers of x with the block
        shift as structure map."""
        n, m, f = self.nilpotency, self.bimodule, self.algebra.field
        blocks = [self.model(i, x) for i in range(n + 1)]
        offsets = [0, *accumulate(b.result.dim for b in blocks)]
        total = offsets[-1]
        action = [block_diagonal([b.result.action[e] for b in blocks])
                  for e in range(self.algebra.dim)]
        y = LeftModule.unchecked(self.algebra, total, tuple(action))
        fy = self.model(1, y)
        eye = Matrix.identity(f, total)
        u = Matrix.zeros(f, total, fy.result.dim)
        for i in range(n):
            pr = ModuleMap(y, blocks[i].result, eye.take_rows(range(offsets[i], offsets[i + 1])))
            fpr = tensor_map(m, pr, fy, self.model(1, blocks[i].result))
            shift = graft(m, 1, i, x).mat @ fpr.mat
            incl = eye.take_cols(range(offsets[i + 1], offsets[i + 2]))
            u = u + incl @ shift
        return InducedModule(self, y, u, base=x, offsets=tuple(offsets))

    def ind_free(self, rank: int) -> "InducedModule":
        cache = self._cache.setdefault("ind_free", {})
        if rank not in cache:
            cache[rank] = self.ind(self.free(rank))
        return cache[rank]

    def ind_map(self, f: ModuleMap) -> "TMorphism":
        """Induction on maps, between the induced modules."""
        return TMorphism(self.ind(f.source), self.ind(f.target), self.ind_matrix(f))

    def ind_matrix(self, f: ModuleMap) -> Matrix:
        """The matrix of Ind(f): the block diagonal of the functor powers."""
        return block_diagonal([iterate_functor_map(self.bimodule, i, f).mat
                               for i in range(self.nilpotency + 1)])

    def stalk(self, x: LeftModule) -> "TModule":
        """The pair (x, 0)."""
        fx = self.model(1, x)
        return TModule(self, x, Matrix.zeros(self.algebra.field, x.dim, fx.result.dim))

    def coker(self, t: "TModule") -> Cokernel:
        """Cokernel of the structure map, with the induced action."""
        module, proj, _sect = quotient_by_columns(t.x, t.u.image_basis())
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
        offsets = [0, *accumulate(dims)]
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
        unit = tuple(self.algebra.unit) + (f.zero(),) * (total - self.algebra.dim)
        model = Algebra(f, total, tuple(tuple(tuple(r) for r in plane) for plane in consts), unit)
        self._cache["algebra_model"] = model
        return model

    def to_algebra_module(self, t: "TModule") -> LeftModule:
        """Translate a pair (X, u) into a module over the ring model.

        Grade-i basis elements act through the i-fold iterated action;
        validity of the result is the implemented direction of the
        category equivalence.
        """
        model, f = self.algebra_model(), self.algebra.field
        action = list(t.x.action)  # grade 0 acts through the base action
        ix = Matrix.identity(f, t.x.dim)
        for i in range(1, self.nilpotency + 1):
            d = self.power_dim(i)
            ui = self.iterated_action(t, i)
            proj = self.model(i, t.x).projection
            for s in range(d):
                emb = kron(Matrix.basis_column(f, d, s), ix)
                action.append(ui @ proj @ emb)
        return LeftModule(model, t.x.dim, tuple(action))

    # -- block morphisms ---------------------------------------------------

    def slot_frame(self, rank_p: int, rank_q: int) -> tuple:
        """The coordinate frame of the component lists between the induced
        frees of the given ranks, memoised per rank pair: (matrix, shapes).

        The coordinates run slot-major over the ``free_hom_basis`` of each
        slot Hom(P, F^i(Q)).  Column a of the matrix holds the stacked
        vec'd components of the unit candidate e_a (coordinate a set to 1,
        the others to 0), and ``shapes`` are the component shapes, so the
        candidate with coordinates c has the components
        ``unvec_blocks(matrix @ c, shapes)``.
        """
        cache = self._cache.setdefault("slot_frame", {})
        key = (rank_p, rank_q)
        if key not in cache:
            q = self.free(rank_q)
            targets = [self.model(i, q).result for i in range(self.nilpotency + 1)]
            shapes = tuple((t.dim, rank_p * self.algebra.dim) for t in targets)
            cols = [free_hom_vecs(self.algebra, rank_p, t) for t in targets]
            cache[key] = (block_diagonal(cols), shapes)
        return cache[key]

    def star_at(self, rank_p: int, rank_q: int, coords) -> "StarMorphism":
        """The component list with the given slot coordinates (see
        :meth:`slot_frame`).  Its components are combinations of slot-basis
        maps, valid by construction, so they are built unchecked."""
        frame, shapes = self.slot_frame(rank_p, rank_q)
        mats = unvec_blocks(frame @ Matrix.column(self.algebra.field, coords), shapes)
        p, q = self.free(rank_p), self.free(rank_q)
        return StarMorphism(self, rank_p, rank_q, tuple(
            ModuleMap.unchecked(p, self.model(i, q).result, m) for i, m in enumerate(mats)))

    def ind_projections(self, rank: int) -> Matrix:
        """The Ind(pi_k) of the projections pi_k of R^rank onto its copies,
        stacked in copy order, memoised per rank >= 1: the inverse of
        [Ind iota_1 | ... | Ind iota_rank].  Only the matrices are built
        (:meth:`ind_matrix`), not the induced modules."""
        cache = self._cache.setdefault("ind_projections", {})
        if rank not in cache:
            d = self.algebra.dim
            eye = Matrix.identity(self.algebra.field, rank * d)
            cache[rank] = vstack([self.ind_matrix(ModuleMap.unchecked(
                self.free(rank), self.free(1), eye.take_rows(range(k * d, k * d + d))))
                for k in range(rank)])
        return cache[rank]

    def unit_table(self, rank: int) -> Matrix:
        """The unit table of the rank pair (rank, 1), memoised per rank:
        column a is vec(A_a), the column-major vec of the assembled matrix
        of the unit candidate e_a, in slot-frame order (see
        :meth:`slot_frame`).  Ranks 0 (no units, no rows) and 1 are
        assembled unit by unit.  A higher rank's unit of slot i, copy k and
        basis map t is the rank-1 unit (i, t) after pi_k, so it assembles to
        A_(i,t) Ind(pi_k) (see :meth:`ind_projections`): one
        ``vec_precompose`` per copy, no assembly."""
        cache = self._cache.setdefault("unit_table", {})
        if rank not in cache:
            if rank < 2:
                m = self.slot_frame(rank, 1)[0].cols
                cache[rank] = vec_columns(self.algebra.field, 0, [
                    self.assemble_star(self.star_at(rank, 1, [int(a == b) for b in range(m)]))
                    for a in range(m)])
            else:
                units, pis = self.unit_table(1), self.ind_projections(rank)
                h, n = units.cols, pis.cols  # dim T, the rows of each A_b and Ind(pi_k)
                offsets = [0, *accumulate(w for w, _ in self.slot_frame(1, 1)[1])]
                order = [k * h + t for lo, hi in zip(offsets, offsets[1:])
                         for k in range(rank) for t in range(lo, hi)]
                cache[rank] = hstack([vec_precompose(units, h, pis.block(k * h, k * h + h, 0, n))
                                      for k in range(rank)]).take_cols(order)
        return cache[rank]

    def assemble_star(self, s: "StarMorphism") -> Matrix:
        """The lower-triangular block matrix of a component list, a map
        Ind(free source rank) -> Ind(free target rank).

        Block (j, i), 1-indexed and lower triangular, is the grafted
        (j-i+1)-th component under the (i-1)-st functor power, and a zero
        block where that component is zero, since F^(i-1)(0) = 0.  Every
        such matrix is a morphism of pairs, so it is not re-validated.
        """
        if s.ring != self:
            raise TensorRingError("star morphism belongs to a different ring")
        n, m, f = self.nilpotency, self.bimodule, self.algebra.field
        p, q = self.free(s.source_rank), self.free(s.target_rank)
        src_dims = [self.model(i, p).result.dim for i in range(n + 1)]
        tgt_dims = [self.model(j, q).result.dim for j in range(n + 1)]
        live = [not comp.is_zero() for comp in s.components]  # F^(i-1)(0) = 0
        if not any(live):  # block_matrix needs a block
            return Matrix.zeros(f, sum(tgt_dims), sum(src_dims))
        blocks = [[None] * (n + 1) for _ in range(n + 1)]
        for j in range(1, n + 2):
            for i in range(1, j + 1):
                if live[j - i]:
                    lifted = iterate_functor_map(m, i - 1, s.components[j - i])
                    blocks[j - 1][i - 1] = graft(m, i - 1, j - i, q).mat @ lifted.mat
        return block_matrix(blocks, tgt_dims, src_dims)

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
                    cells = (*tgt.offsets[j - 1:j + 1], *src.offsets[i - 1:i + 1])
                    if redone.block(*cells) != t.mat.block(*cells):
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
        satisfies e u1 = u2 F(e) with F(e) = P2 (I (x) e) S1, that is
        e u1 - sum_k U_k e S_k = 0 with S_k the k-th row block of S1 and
        U_k the k-th column block of u2 P2.  Both sets of constraints are
        solved literally, one after the other, and neither system is
        stacked on the other:

        - the maps linear over the base, one source grade at a time: the
          base action on an induced module is block diagonal by functor
          power, so Hom_R(X, Y) is the sum of the Hom_R(X_j, Y) (one block,
          the whole of X, when t1 is not induced);
        - the structure residuals of every such basis map at once, by
          exact vec products, whose kernel gives the combinations that
          are morphisms of pairs.

        The basis is the canonical kernel basis of the two systems stacked
        (see :func:`~tensorgp.exactlin.canonical_basis`), which depends only
        on the space; when the structure equation removes nothing, the
        grade-by-grade basis already is that basis.
        """
        a, b = t2.x.dim, t1.x.dim
        if a * b == 0:
            return []
        # an empty grade adds no rows of vec(e) and no basis maps
        grades = [g for g in (self.model(i, t1.base).result for i in range(self.nilpotency + 1))
                  if g.dim] if isinstance(t1, InducedModule) else [t1.x]
        linear = block_diagonal([intertwining_system(x, t2.x).kernel_basis() for x in grades])
        if linear.cols == 0:
            return []
        s1 = self.model(1, t1.x).section
        u2p2 = t2.u @ self.model(1, t2.x).projection
        c = s1.cols
        residuals = vec_precompose(linear, a, t1.u)
        for k in range(self.bimodule.dim):
            es = vec_precompose(linear, a, s1.block(k * b, (k + 1) * b, 0, c))
            residuals = residuals - vec_postcompose(u2p2.block(0, a, k * a, (k + 1) * a), es, c)
        coords = residuals.kernel_basis()
        if coords.cols < linear.cols:
            linear = canonical_basis(linear @ coords)
        return [TMorphism.unchecked(t1, t2, e) for e in unvec_columns(linear, a, b)]


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
        p, q = self.ring.free(self.source_rank), self.ring.free(self.target_rank)
        for i, comp in enumerate(self.components):
            if comp.source != p:
                raise TensorRingError(f"component {i + 1} has the wrong source")
            if comp.target != self.ring.model(i, q).result:
                raise TensorRingError(f"component {i + 1} has the wrong target model")

    @staticmethod
    def zero(ring: TensorRing, source_rank: int, target_rank: int) -> "StarMorphism":
        p, q = ring.free(source_rank), ring.free(target_rank)
        comps = [ModuleMap.zero(p, ring.model(i, q).result) for i in range(ring.nilpotency + 1)]
        return StarMorphism(ring, source_rank, target_rank, tuple(comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return f"StarMorphism({self.source_rank} -> {self.target_rank})"
