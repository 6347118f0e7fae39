"""Specialized resolution checkers for three families of tensor rings:
trivial extensions (one-nilpotent bimodules), Morita context rings with
both pairings zero, and triangular matrix rings.

Bimodules over two different algebras are encoded as bimodules over the
product algebra supported on idempotent corners, so the generic tensor
machinery serves all three families.  Each family also gets a direct
implementation of its specialized conditions in the shape they are
usually stated, plus an exact transport into the generic window language;
agreement of the two routes is part of the test contract, not assumed.

The identification of W (x) (free module) with the block sum of the
corner tensor factors is pinned to one explicit basis bijection
(:func:`block_model_iso`), and every specialized condition is evaluated
against that pinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from tensorgp.exactlin import (Matrix, direct_sum, hstack, is_exact_pair, kron,
                               unlifted_solution, unvec_blocks, vec, vstack)
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    LeftModule,
    ModuleMap,
    free_hom_basis,
    free_module,
)
from tensorgp.bimodule import (
    Bimodule,
    certify_nilpotent,
    direct_sum_bimodule,
    tensor_bimodule,
    tensor_map,
)
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import (
    CheckReport,
    BlockWitness,
    FunctionalWitness,
    InternalCheckError,
    ResolutionWindow,
    Verdict,
    _hom_lift_check,
    kernel_lift,
    periodic_index,
)


class SpecialRingError(AlgebraError):
    pass


class HypothesisViolated(SpecialRingError):
    """The standing hypothesis of a specialization does not hold."""


# -- product algebras and corner encodings -----------------------------------


@dataclass(frozen=True)
class ProductAlgebra:
    """The product of two algebras, first factor at offset zero."""

    algebra: Algebra
    a: Algebra
    b: Algebra

    @property
    def dim(self) -> int:
        return self.algebra.dim


def product_algebra(a: Algebra, b: Algebra) -> ProductAlgebra:
    if a.field != b.field:
        raise SpecialRingError("factors over different fields")
    f = a.field
    da, db = a.dim, b.dim
    dim = da + db
    consts = [[[f.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(da):
        for j in range(da):
            for k in range(da):
                consts[i][j][k] = a.consts[i][j][k]
    for i in range(db):
        for j in range(db):
            for k in range(db):
                consts[da + i][da + j][da + k] = b.consts[i][j][k]
    unit = list(a.unit) + list(b.unit)
    return ProductAlgebra(
        Algebra(f, dim, tuple(tuple(tuple(r) for r in plane) for plane in consts), tuple(unit)),
        a, b,
    )


@dataclass(frozen=True)
class PairBimodule:
    """A left module over one algebra and a right module over another,
    with commuting actions."""

    left_alg: Algebra
    right_alg: Algebra
    dim: int
    left_action: tuple
    right_action: tuple

    def __post_init__(self):
        object.__setattr__(self, "left_action", tuple(self.left_action))
        object.__setattr__(self, "right_action", tuple(self.right_action))
        if self.left_alg.field != self.right_alg.field:
            raise SpecialRingError("pair bimodule across fields")
        # validate by borrowing the one-algebra checker on a scratch product
        pa = product_algebra(self.left_alg, self.right_alg)
        embed_pair_bimodule(pa, self)

    @staticmethod
    def zero(left_alg: Algebra, right_alg: Algebra) -> "PairBimodule":
        z = tuple(Matrix.zeros(left_alg.field, 0, 0) for _ in range(left_alg.dim))
        zr = tuple(Matrix.zeros(left_alg.field, 0, 0) for _ in range(right_alg.dim))
        return PairBimodule(left_alg, right_alg, 0, z, zr)


def embed_pair_bimodule(pa: ProductAlgebra, pb: PairBimodule,
                        left: str = "a", right: str = "b") -> Bimodule:
    """Corner embedding into a bimodule over the product algebra.

    ``left`` and ``right`` name the factor ("a" or "b") through which each
    side acts; the orientation is explicit because the two factors may be
    equal as algebras.  The missing corner acts as zero.
    """
    f = pa.algebra.field
    zero = Matrix.zeros(f, pb.dim, pb.dim)
    if left not in ("a", "b") or right not in ("a", "b"):
        raise SpecialRingError("corner names must be 'a' or 'b'")
    if pb.left_alg != getattr(pa, left):
        raise SpecialRingError(f"left algebra is not the {left!r} factor")
    if pb.right_alg != getattr(pa, right):
        raise SpecialRingError(f"right algebra is not the {right!r} factor")
    if left == "a":
        left_acts = list(pb.left_action) + [zero] * pa.b.dim
    else:
        left_acts = [zero] * pa.a.dim + list(pb.left_action)
    if right == "a":
        right_acts = list(pb.right_action) + [zero] * pa.b.dim
    else:
        right_acts = [zero] * pa.a.dim + list(pb.right_action)
    return Bimodule(pa.algebra, pb.dim, tuple(left_acts), tuple(right_acts))


def block_power_module(pb: PairBimodule, n: int) -> LeftModule:
    """The block sum of n copies of the pair bimodule as a left module
    over its left algebra (the model of V (x) B^n under v (x) b = v.b)."""
    f = pb.left_alg.field
    action = tuple(kron(Matrix.identity(f, n), pb.left_action[i]) if n
                   else Matrix.zeros(f, 0, 0)
                   for i in range(pb.left_alg.dim))
    return LeftModule(pb.left_alg, pb.dim * n, action)


def _free_rank(algebra: Algebra, x: LeftModule) -> int:
    if x.dim % algebra.dim:
        raise SpecialRingError("not a standard free module")
    rank = x.dim // algebra.dim
    if free_module(algebra, rank) != x:
        raise SpecialRingError("not the standard free module")
    return rank


def induced_block_map(pb: PairBimodule, f: ModuleMap) -> ModuleMap:
    """The map V (x) f between block power modules, for f between standard
    free modules over the right algebra.

    Block (j, i) is the right action of the algebra entry of f read off
    at the unit of copy i, so functoriality is exact.
    """
    balg = pb.right_alg
    if f.source.algebra != balg:
        raise SpecialRingError("map is not over the right algebra of the pair")
    d = balg.dim
    n_src = _free_rank(balg, f.source)
    n_tgt = _free_rank(balg, f.target)
    fld = balg.field
    src = block_power_module(pb, n_src)
    tgt = block_power_module(pb, n_tgt)
    if pb.dim == 0 or n_src == 0 or n_tgt == 0:
        return ModuleMap.zero(src, tgt)
    # column i is the image of the unit of source copy i; its rows
    # j * d .. j * d + d - 1 are the algebra entry of f at (copy j, copy i)
    unit = Matrix.column(fld, f.source.algebra.unit)
    images = f.mat @ kron(Matrix.identity(fld, n_src), unit)
    rows = []
    for j in range(n_tgt):
        cells = []
        for i in range(n_src):
            block = Matrix.zeros(fld, pb.dim, pb.dim)
            for t in range(d):
                c = images[j * d + t, i]
                if c != fld.zero():
                    block = block + pb.right_action[t].scale(c)
            cells.append(block)
        rows.append(hstack(cells))
    return ModuleMap(src, tgt, vstack(rows))


# -- trivial extensions -------------------------------------------------------


@dataclass(frozen=True)
class TrivialExtData:
    """A base algebra with a one-nilpotent bimodule: the tensor ring is the
    trivial extension."""

    r: Algebra
    m: Bimodule

    def __post_init__(self):
        if self.m.algebra != self.r:
            raise SpecialRingError("bimodule over a different algebra")
        if not certify_nilpotent(self.m, 1):
            raise HypothesisViolated("the bimodule is not one-nilpotent")

    @cached_property
    def ring(self) -> TensorRing:
        return TensorRing(self.r, self.m, 1)


def trivext_checks(d: TrivialExtData, w: ResolutionWindow) -> CheckReport:
    """The two-block form of the resolution conditions for one-nilpotent
    bimodules, evaluated directly from the displayed formulas."""
    ring = d.ring
    if w.ring != ring:
        raise SpecialRingError("window over a different ring")
    if ring.nilpotency != 1:
        raise SpecialRingError("trivial extension checks need nilpotency one")
    m = d.m
    verdicts = []
    for k in w.positions():
        prev = w.map_at(k - 1)
        next_ = w.map_at(k)
        a1p, a2p = prev.components
        a1n, a2n = next_.components
        f_a1n = tensor_map(m, a1n, ring.model(1, a1n.source), ring.model(1, a1n.target))
        f_a1p = tensor_map(m, a1p, ring.model(1, a1p.source), ring.model(1, a1p.target))

        r_top = a1n.mat @ a1p.mat
        r_bot = a2n.mat @ a1p.mat + f_a1n.mat @ a2p.mat
        if r_top.is_zero() and r_bot.is_zero():
            verdicts.append(Verdict("C1", k, "pass"))
            c1_ok = True
        else:
            wit = BlockWitness(1, r_top) if not r_top.is_zero() else BlockWitness(2, r_bot)
            verdicts.append(Verdict("C1", k, "fail", wit))
            c1_ok = False

        if not c1_ok:
            verdicts.append(Verdict("C2", k, "skip", note="C1 failed"))
        else:
            big_prev = _two_block(a1p, a2p, f_a1p)
            big_next = _two_block(a1n, a2n, f_a1n)
            status, wit = kernel_lift(big_prev, big_next)
            verdicts.append(Verdict("C2", k, status, wit))

        ok3, wit3 = _trivext_c3(d, prev, next_)
        verdicts.append(Verdict("C3", k, "pass" if ok3 else "fail", wit3))
    return CheckReport("trivext", tuple(verdicts), window_local=w.period is None)


def _two_block(a1: ModuleMap, a2: ModuleMap, f_a1: ModuleMap) -> Matrix:
    """The lower block triangular matrix [[a1, 0], [a2, f_a1]]."""
    top = hstack([a1.mat, Matrix.zeros(a1.mat.field, a1.mat.rows, f_a1.mat.cols)])
    bot = hstack([a2.mat, f_a1.mat])
    return vstack([top, bot])


def _trivext_c3(d: TrivialExtData, prev: StarMorphism, next_: StarMorphism):
    """Functional pairs (f1, f2) with f1 into the rank-one free and f2 into
    its tensor block, killing the incoming pair, must factor through the
    outgoing pair."""
    ring = d.ring
    m = d.m
    algebra = d.r
    fld = algebra.field
    free1 = ring.free(1)
    fr1 = ring.model(1, free1).result
    rank_mid = prev.target_rank
    rank_out = next_.target_rank

    def tuple_columns(rank, through: StarMorphism):
        a1, a2 = through.components
        basis_cols = []
        image_cols = []
        src_free = ring.free(rank)
        for b in free_hom_basis(algebra, rank, free1):
            fb = tensor_map(m, b, ring.model(1, src_free), ring.model(1, free1))
            r1 = b.mat @ a1.mat
            r2 = fb.mat @ a2.mat
            basis_cols.append(vstack([vec(b.mat), vec(Matrix.zeros(fld, fr1.dim, rank * algebra.dim))]))
            image_cols.append(vstack([vec(r1), vec(r2)]))
        for b in free_hom_basis(algebra, rank, fr1):
            r2 = b.mat @ a1.mat
            basis_cols.append(vstack([vec(Matrix.zeros(fld, algebra.dim, rank * algebra.dim)),
                                      vec(b.mat)]))
            image_cols.append(vstack([vec(Matrix.zeros(fld, algebra.dim,
                                                       through.source_rank * algebra.dim)),
                                      vec(r2)]))
        return basis_cols, image_cols

    basis_cols, constraint_cols = tuple_columns(rank_mid, prev)
    col = unlifted_solution(basis_cols, constraint_cols,
                            lambda: tuple_columns(rank_out, next_)[1])
    if col is None:
        return True, None
    width = rank_mid * algebra.dim
    return False, FunctionalWitness(tuple(unvec_blocks(col, [(algebra.dim, width),
                                                             (fr1.dim, width)])))


# -- Morita context rings ------------------------------------------------------


@dataclass(frozen=True)
class MoritaData:
    """Two algebras with a bimodule in each direction and both induced
    pairings zero (checked exactly at construction)."""

    a: Algebra
    b: Algebra
    v: PairBimodule  # left a, right b
    u: PairBimodule  # left b, right a

    def __post_init__(self):
        if self.v.left_alg != self.a or self.v.right_alg != self.b:
            raise SpecialRingError("v must be a left module over a and right over b")
        if self.u.left_alg != self.b or self.u.right_alg != self.a:
            raise SpecialRingError("u must be a left module over b and right over a")
        pa = self.product
        u_enc = embed_pair_bimodule(pa, self.u, left="b", right="a")
        v_enc = embed_pair_bimodule(pa, self.v, left="a", right="b")
        if tensor_bimodule(u_enc, v_enc).dim != 0:
            raise HypothesisViolated("the pairing u (x) v does not vanish")
        if tensor_bimodule(v_enc, u_enc).dim != 0:
            raise HypothesisViolated("the pairing v (x) u does not vanish")

    @cached_property
    def product(self) -> ProductAlgebra:
        return product_algebra(self.a, self.b)


def morita_to_trivext(d: MoritaData) -> TrivialExtData:
    """The product algebra extended by the corner sum bimodule (u first);
    one-nilpotency is re-certified, which is exactly the requirement that
    both pairings vanish."""
    pa = d.product
    w = direct_sum_bimodule(embed_pair_bimodule(pa, d.u, left="b", right="a"),
                            embed_pair_bimodule(pa, d.v, left="a", right="b"))
    if not certify_nilpotent(w, 1):
        raise HypothesisViolated("the corner sum bimodule is not one-nilpotent")
    return TrivialExtData(pa.algebra, w)


def morita_context_algebra(d: MoritaData) -> Algebra:
    """Direct structure-constant model of the two-by-two context ring with
    zero pairings, basis ordered (a, b, u, v) to match the coordinate
    bijection onto the trivial extension."""
    f = d.a.field
    da, db, du, dv = d.a.dim, d.b.dim, d.u.dim, d.v.dim
    dim = da + db + du + dv
    off_b, off_u, off_v = da, da + db, da + db + du
    z = f.zero()
    consts = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(da):
        for j in range(da):
            for k in range(da):
                consts[i][j][k] = d.a.consts[i][j][k]
    for i in range(db):
        for j in range(db):
            for k in range(db):
                consts[off_b + i][off_b + j][off_b + k] = d.b.consts[i][j][k]
    # a . v and v . b land in v
    for i in range(da):
        for c in range(dv):
            col = d.v.left_action[i].col(c)
            for k in range(dv):
                consts[i][off_v + c][off_v + k] = col[k, 0]
    for j in range(db):
        for c in range(dv):
            col = d.v.right_action[j].col(c)
            for k in range(dv):
                consts[off_v + c][off_b + j][off_v + k] = col[k, 0]
    # b . u and u . a land in u
    for j in range(db):
        for c in range(du):
            col = d.u.left_action[j].col(c)
            for k in range(du):
                consts[off_b + j][off_u + c][off_u + k] = col[k, 0]
    for i in range(da):
        for c in range(du):
            col = d.u.right_action[i].col(c)
            for k in range(du):
                consts[off_u + c][i][off_u + k] = col[k, 0]
    unit = list(d.a.unit) + list(d.b.unit) + [z] * (du + dv)
    return Algebra(f, dim, tuple(tuple(tuple(r) for r in plane) for plane in consts),
                   tuple(unit))


@dataclass(frozen=True)
class MoritaWindow:
    """Window data for a context ring: ranks of the two projective columns
    and the four component families, optionally periodic."""

    lo: int
    ranks_p: tuple
    ranks_q: tuple
    tau: tuple     # maps between free a-modules
    sigma: tuple   # maps between free b-modules
    beta: tuple    # free a-module -> block power of v
    gamma: tuple   # free b-module -> block power of u
    period: Optional[int] = None

    def __post_init__(self):
        for name in ("ranks_p", "ranks_q", "tau", "sigma", "beta", "gamma"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "index", periodic_index(
            self.lo, (self.ranks_p, self.ranks_q),
            (self.tau, self.sigma, self.beta, self.gamma), self.period, SpecialRingError))

    def at(self, k: int):
        t = self.index.map_slot(k)
        return self.tau[t], self.sigma[t], self.beta[t], self.gamma[t]

    def positions(self):
        return self.index.positions()


def _pair_kernel_lift(tau_p, beta_p, vs_p, tau_n, beta_n, vs_n):
    """Kernel elements of [[tau_n, 0], [beta_n, vs_n]] must lift through the
    same shape at the previous index."""
    return kernel_lift(_two_block(tau_p, beta_p, vs_p), _two_block(tau_n, beta_n, vs_n))


def morita_checks(d: MoritaData, w: MoritaWindow) -> CheckReport:
    """Direct evaluation of the context-ring resolution conditions, with
    the rank-one test projectives on both sides (sufficient by
    additivity)."""
    verdicts = []
    for k in w.positions():
        tau_p, sigma_p, beta_p, gamma_p = w.at(k - 1)
        tau_n, sigma_n, beta_n, gamma_n = w.at(k)
        vs_n = induced_block_map(d.v, sigma_n)
        vs_p = induced_block_map(d.v, sigma_p)
        ut_n = induced_block_map(d.u, tau_n)
        ut_p = induced_block_map(d.u, tau_p)

        res = [tau_n.mat @ tau_p.mat,
               sigma_n.mat @ sigma_p.mat,
               beta_n.mat @ tau_p.mat + vs_n.mat @ beta_p.mat,
               gamma_n.mat @ sigma_p.mat + ut_n.mat @ gamma_p.mat]
        bad = next((idx for idx, r in enumerate(res) if not r.is_zero()), None)
        if bad is None:
            verdicts.append(Verdict("C1'", k, "pass"))
            c1_ok = True
        else:
            verdicts.append(Verdict("C1'", k, "fail", BlockWitness(bad + 1, res[bad])))
            c1_ok = False

        if not c1_ok:
            verdicts.append(Verdict("C2'", k, "skip", note="C1' failed"))
        else:
            status_a, wit_a = _pair_kernel_lift(tau_p, beta_p, vs_p, tau_n, beta_n, vs_n)
            status_b, wit_b = _pair_kernel_lift(sigma_p, gamma_p, ut_p, sigma_n, gamma_n, ut_n)
            if status_a == "pass" and status_b == "pass":
                verdicts.append(Verdict("C2'", k, "pass"))
            else:
                wit = wit_a if status_a == "fail" else wit_b
                verdicts.append(Verdict("C2'", k, "fail", wit))

        ok3, wit3 = _morita_c3(d, w, k)
        verdicts.append(Verdict("C3'", k, "pass" if ok3 else "fail", wit3))
    return CheckReport("morita", tuple(verdicts), window_local=w.period is None)


def _morita_quadruple_columns(d: MoritaData, tau, sigma, beta, gamma, rank_p, rank_q):
    """Columns of the linear map (f1, f2, u1, u2) -> the four residuals,
    over the slot bases for functionals out of the given ranks."""
    fld = d.a.field
    free_a1 = free_module(d.a, 1)
    free_b1 = free_module(d.b, 1)
    v1 = block_power_module(d.v, 1)
    u1 = block_power_module(d.u, 1)
    shapes = [(free_a1.dim, rank_p * d.a.dim), (free_b1.dim, rank_q * d.b.dim),
              (v1.dim, rank_p * d.a.dim), (u1.dim, rank_q * d.b.dim)]

    def stack(m1, m2, m3, m4):
        return vstack([vec(m1), vec(m2), vec(m3), vec(m4)])

    def zeros_for():
        return [Matrix.zeros(fld, r, c) for r, c in shapes]

    out_shapes = [(free_a1.dim, tau.source.dim), (free_b1.dim, sigma.source.dim),
                  (v1.dim, tau.source.dim), (u1.dim, sigma.source.dim)]
    basis_cols = []
    image_cols = []
    for b in free_hom_basis(d.a, rank_p, free_a1):
        mats = zeros_for()
        mats[0] = b.mat
        uf = induced_block_map(d.u, b)  # U (x) f1
        r = [b.mat @ tau.mat,
             Matrix.zeros(fld, out_shapes[1][0], out_shapes[1][1]),
             Matrix.zeros(fld, out_shapes[2][0], out_shapes[2][1]),
             uf.mat @ gamma.mat]
        basis_cols.append(stack(*mats))
        image_cols.append(stack(*r))
    for b in free_hom_basis(d.b, rank_q, free_b1):
        mats = zeros_for()
        mats[1] = b.mat
        vf = induced_block_map(d.v, b)
        r = [Matrix.zeros(fld, out_shapes[0][0], out_shapes[0][1]),
             b.mat @ sigma.mat,
             vf.mat @ beta.mat,
             Matrix.zeros(fld, out_shapes[3][0], out_shapes[3][1])]
        basis_cols.append(stack(*mats))
        image_cols.append(stack(*r))
    for b in free_hom_basis(d.a, rank_p, v1):
        mats = zeros_for()
        mats[2] = b.mat
        r = [Matrix.zeros(fld, out_shapes[0][0], out_shapes[0][1]),
             Matrix.zeros(fld, out_shapes[1][0], out_shapes[1][1]),
             b.mat @ tau.mat,
             Matrix.zeros(fld, out_shapes[3][0], out_shapes[3][1])]
        basis_cols.append(stack(*mats))
        image_cols.append(stack(*r))
    for b in free_hom_basis(d.b, rank_q, u1):
        mats = zeros_for()
        mats[3] = b.mat
        r = [Matrix.zeros(fld, out_shapes[0][0], out_shapes[0][1]),
             Matrix.zeros(fld, out_shapes[1][0], out_shapes[1][1]),
             Matrix.zeros(fld, out_shapes[2][0], out_shapes[2][1]),
             b.mat @ sigma.mat]
        basis_cols.append(stack(*mats))
        image_cols.append(stack(*r))
    return basis_cols, image_cols, shapes


def _morita_c3(d: MoritaData, w: MoritaWindow, k: int):
    tau_p, sigma_p, beta_p, gamma_p = w.at(k - 1)
    tau_n, sigma_n, beta_n, gamma_n = w.at(k)
    rank_p_mid = _free_rank(d.a, tau_p.target)
    rank_q_mid = _free_rank(d.b, sigma_p.target)
    rank_p_out = _free_rank(d.a, tau_n.target)
    rank_q_out = _free_rank(d.b, sigma_n.target)

    basis_cols, constraint_cols, shapes = _morita_quadruple_columns(
        d, tau_p, sigma_p, beta_p, gamma_p, rank_p_mid, rank_q_mid)
    col = unlifted_solution(basis_cols, constraint_cols,
                            lambda: _morita_quadruple_columns(
                                d, tau_n, sigma_n, beta_n, gamma_n, rank_p_out, rank_q_out)[1])
    if col is None:
        return True, None
    return False, FunctionalWitness(tuple(unvec_blocks(col, shapes)))


# -- triangular matrix rings ----------------------------------------------------


@dataclass(frozen=True)
class TriangularData:
    """Two algebras with a single connecting bimodule (the context ring
    with the lower corner zero)."""

    a: Algebra
    b: Algebra
    v: PairBimodule

    def __post_init__(self):
        if self.v.left_alg != self.a or self.v.right_alg != self.b:
            raise SpecialRingError("v must be a left module over a and right over b")

    def as_morita(self) -> MoritaData:
        return MoritaData(self.a, self.b, self.v, PairBimodule.zero(self.b, self.a))


@dataclass(frozen=True)
class TriangularWindow:
    lo: int
    ranks_p: tuple
    ranks_q: tuple
    tau: tuple
    sigma: tuple
    beta: tuple
    period: Optional[int] = None

    def __post_init__(self):
        for name in ("ranks_p", "ranks_q", "tau", "sigma", "beta"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "index", periodic_index(
            self.lo, (self.ranks_p, self.ranks_q), (self.tau, self.sigma, self.beta),
            self.period, SpecialRingError))

    def as_morita(self, d: TriangularData) -> MoritaWindow:
        md = d.as_morita()
        gamma = tuple(
            ModuleMap.zero(free_module(d.b, self.ranks_q[t]),
                           block_power_module(md.u, self.ranks_p[t + 1]))
            for t in range(len(self.sigma))
        )
        return MoritaWindow(self.lo, self.ranks_p, self.ranks_q,
                            self.tau, self.sigma, self.beta, gamma, self.period)

    def positions(self):
        return self.index.positions()

    def at(self, k):
        t = self.index.map_slot(k)
        return self.tau[t], self.sigma[t], self.beta[t]


def triangular_checks(d: TriangularData, w: TriangularWindow) -> CheckReport:
    """The five-condition form for triangular matrix rings.

    Labels: "(i) complex" and "(i) lift" for the top complex being a
    complex of projectives with lifting of functionals into projectives;
    "(ii) complex" and "(ii) exact" for the bottom complex; "(iii)" the
    mixed differential relation; "(iv)" the mixed kernel lifting; "(v)"
    the mixed functional lifting.  Exactness of the top complex itself is
    not required; it is reported separately as an informational note when
    it happens to hold.
    """
    verdicts = []
    for k in w.positions():
        tau_p, sigma_p, beta_p = w.at(k - 1)
        tau_n, sigma_n, beta_n = w.at(k)
        vs_n = induced_block_map(d.v, sigma_n)
        vs_p = induced_block_map(d.v, sigma_p)

        top_complex = (tau_n.mat @ tau_p.mat).is_zero()
        verdicts.append(Verdict("(i) complex", k, "pass" if top_complex else "fail",
                                None if top_complex else
                                BlockWitness(1, tau_n.mat @ tau_p.mat),
                                note="top complex is also exact" if top_complex and
                                is_exact_pair(tau_p.mat, tau_n.mat) else ""))
        ok_lift, wit_lift = _hom_lift_check(
            d.a, free_module(d.a, 1), tau_p, tau_n,
            _free_rank(d.a, tau_p.target), _free_rank(d.a, tau_n.target))
        verdicts.append(Verdict("(i) lift", k, "pass" if ok_lift else "fail", wit_lift))

        bottom_complex = (sigma_n.mat @ sigma_p.mat).is_zero()
        verdicts.append(Verdict("(ii) complex", k, "pass" if bottom_complex else "fail",
                                None if bottom_complex else
                                BlockWitness(1, sigma_n.mat @ sigma_p.mat)))

        mixed = beta_n.mat @ tau_p.mat + vs_n.mat @ beta_p.mat
        verdicts.append(Verdict("(iii)", k, "pass" if mixed.is_zero() else "fail",
                                None if mixed.is_zero() else BlockWitness(3, mixed)))

        differentials_ok = top_complex and bottom_complex and mixed.is_zero()
        if not differentials_ok:
            verdicts.append(Verdict("(ii) exact", k, "skip", note="not a complex"))
            verdicts.append(Verdict("(iv)", k, "skip", note="not a complex"))
        else:
            status_b, wit_b = kernel_lift(sigma_p.mat, sigma_n.mat)
            verdicts.append(Verdict("(ii) exact", k, status_b, wit_b))
            status_a, wit_a = _pair_kernel_lift(tau_p, beta_p, vs_p, tau_n, beta_n, vs_n)
            verdicts.append(Verdict("(iv)", k, status_a, wit_a))

        ok5, wit5 = _triangular_v(d, tau_p, sigma_p, beta_p, tau_n, sigma_n, beta_n)
        verdicts.append(Verdict("(v)", k, "pass" if ok5 else "fail", wit5))
    return CheckReport("triangular", tuple(verdicts), window_local=w.period is None)


def _triangular_v(d: TriangularData, tau_p, sigma_p, beta_p, tau_n, sigma_n, beta_n):
    """Pairs (f into the v-block, g into the rank-one bottom free) with
    g . sigma_prev = 0 and f . tau_prev + (v (x) g) . beta_prev = 0 must
    factor as g = g' . sigma_next, f = f' . tau_next + (v (x) g') . beta_next."""
    fld = d.a.field
    v1 = block_power_module(d.v, 1)
    free_b1 = free_module(d.b, 1)
    rank_p_mid = _free_rank(d.a, tau_p.target)
    rank_q_mid = _free_rank(d.b, sigma_p.target)
    rank_p_out = _free_rank(d.a, tau_n.target)
    rank_q_out = _free_rank(d.b, sigma_n.target)

    def columns(rank_p, rank_q, tau, sigma, beta):
        shapes = [(v1.dim, rank_p * d.a.dim), (free_b1.dim, rank_q * d.b.dim)]
        basis_cols = []
        image_cols = []
        for b in free_hom_basis(d.a, rank_p, v1):
            basis_cols.append(vstack([vec(b.mat),
                                      vec(Matrix.zeros(fld, *shapes[1]))]))
            image_cols.append(vstack([vec(b.mat @ tau.mat),
                                      vec(Matrix.zeros(fld, free_b1.dim, sigma.source.dim))]))
        for b in free_hom_basis(d.b, rank_q, free_b1):
            vg = induced_block_map(d.v, b)
            basis_cols.append(vstack([vec(Matrix.zeros(fld, *shapes[0])),
                                      vec(b.mat)]))
            image_cols.append(vstack([vec(vg.mat @ beta.mat),
                                      vec(b.mat @ sigma.mat)]))
        return basis_cols, image_cols, shapes

    basis_cols, constraint_cols, shapes = columns(rank_p_mid, rank_q_mid,
                                                  tau_p, sigma_p, beta_p)
    col = unlifted_solution(basis_cols, constraint_cols,
                            lambda: columns(rank_p_out, rank_q_out, tau_n, sigma_n, beta_n)[1])
    if col is None:
        return True, None
    return False, FunctionalWitness(tuple(unvec_blocks(col, shapes)))


# -- transport into the generic language -----------------------------------------


def block_model_iso(te: TrivialExtData, d: MoritaData, n: int) -> Matrix:
    """The pinned isomorphism from the block sum (u-power, v-power) onto
    the canonical tensor model of the corner sum applied to the rank-n
    free product module.

    Basis bijection: (copy i, u-basis c) goes to the class of
    u_c (x) (unit of the a-factor in copy i); (copy i, v-basis c) to
    v_c (x) (unit of the b-factor in copy i).  Validated as an invertible
    map of modules over the product algebra.
    """
    ring = te.ring
    pa = d.product
    fld = pa.algebra.field
    w_bim = te.m
    freen = ring.free(n)
    model = ring.model(1, freen)
    du, dv = d.u.dim, d.v.dim
    dd = pa.dim
    cols = []
    ambient_cols = w_bim.dim * freen.dim
    for i in range(n):
        for c in range(du):
            col = Matrix.zeros(fld, ambient_cols, 1)
            for t, coeff in enumerate(d.a.unit):
                if coeff != fld.zero():
                    col = col + Matrix.basis_column(fld, ambient_cols,
                                                    c * freen.dim + i * dd + t).scale(coeff)
            cols.append(model.projection @ col)
    for i in range(n):
        for c in range(dv):
            col = Matrix.zeros(fld, ambient_cols, 1)
            for t, coeff in enumerate(d.b.unit):
                if coeff != fld.zero():
                    col = col + Matrix.basis_column(
                        fld, ambient_cols,
                        (du + c) * freen.dim + i * dd + pa.a.dim + t).scale(coeff)
            cols.append(model.projection @ col)
    xi = hstack(cols) if cols else Matrix.zeros(fld, model.result.dim, 0)
    if xi.rows != xi.cols or (xi.cols and xi.rank() != xi.cols):
        raise InternalCheckError("block model identification is not invertible")
    # validate linearity over the product algebra
    domain = _block_sum_module(d, n)
    ModuleMap(domain, model.result, xi)
    return xi


def _block_sum_module(d: MoritaData, n: int) -> LeftModule:
    """(u-power, v-power) as a module over the product algebra: the a-part
    acts on the v-blocks, the b-part on the u-blocks."""
    pa = d.product
    fld = pa.algebra.field
    du, dv = d.u.dim * n, d.v.dim * n
    eye_n = Matrix.identity(fld, n)
    action = []
    for i in range(pa.a.dim):
        za = Matrix.zeros(fld, du, du)
        vb = kron(eye_n, d.v.left_action[i]) if n and d.v.dim else Matrix.zeros(fld, dv, dv)
        action.append(direct_sum(za, vb))
    for j in range(pa.b.dim):
        ub = kron(eye_n, d.u.left_action[j]) if n and d.u.dim else Matrix.zeros(fld, du, du)
        zv = Matrix.zeros(fld, dv, dv)
        action.append(direct_sum(ub, zv))
    return LeftModule(pa.algebra, du + dv, tuple(action))


def _interleavers(d: MoritaData, n: int):
    """Inclusion matrices of the a-part and b-part coordinates of the
    rank-n free product module (copy-major layout)."""
    pa = d.product
    fld = pa.algebra.field
    dd = pa.dim
    ea_cols = []
    for i in range(n):
        for t in range(pa.a.dim):
            ea_cols.append(Matrix.basis_column(fld, n * dd, i * dd + t))
    eb_cols = []
    for i in range(n):
        for t in range(pa.b.dim):
            eb_cols.append(Matrix.basis_column(fld, n * dd, i * dd + pa.a.dim + t))
    ea = hstack(ea_cols) if ea_cols else Matrix.zeros(fld, n * dd, 0)
    eb = hstack(eb_cols) if eb_cols else Matrix.zeros(fld, n * dd, 0)
    return ea, eb


def mu_transport(d: MoritaData, w: MoritaWindow) -> ResolutionWindow:
    """Transport a context window into a generic window over the trivial
    extension of the product algebra.

    Requires the two rank columns to agree (free modules over the product
    have matching factors); the first component interleaves the two maps
    and the second sends the a-part through beta into the v-block and the
    b-part through gamma into the u-block, under the pinned block model
    isomorphism.
    """
    if w.ranks_p != w.ranks_q:
        raise SpecialRingError(
            "transport needs equal rank columns: free modules over the "
            "product pair the two sides")
    te = morita_to_trivext(d)
    ring = te.ring
    fld = ring.algebra.field
    stars = []
    for t in range(len(w.tau)):
        n_src, n_tgt = w.ranks_p[t], w.ranks_p[t + 1]
        tau, sigma, beta, gamma = w.tau[t], w.sigma[t], w.beta[t], w.gamma[t]
        ea_s, eb_s = _interleavers(d, n_src)
        ea_t, eb_t = _interleavers(d, n_tgt)
        alpha1 = ea_t @ tau.mat @ ea_s.transpose() + eb_t @ sigma.mat @ eb_s.transpose()
        xi = block_model_iso(te, d, n_tgt)
        du_t = d.u.dim * n_tgt
        dv_t = d.v.dim * n_tgt
        blocks = vstack([
            hstack([Matrix.zeros(fld, du_t, tau.mat.cols), gamma.mat]),
            hstack([beta.mat, Matrix.zeros(fld, dv_t, sigma.mat.cols)]),
        ])
        alpha2 = xi @ blocks @ vstack([ea_s.transpose(), eb_s.transpose()])
        p_src = ring.free(n_src)
        p_tgt = ring.free(n_tgt)
        comps = (ModuleMap(p_src, p_tgt, alpha1),
                 ModuleMap(p_src, ring.model(1, p_tgt).result, alpha2))
        stars.append(StarMorphism(ring, n_src, n_tgt, comps))
    return ResolutionWindow(ring, w.lo, w.ranks_p, tuple(stars), period=w.period)
