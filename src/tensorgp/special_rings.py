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

Validation happens once, at the boundary, and each fact is checked once:

- a :class:`PairBimodule` is checked at construction, as a bimodule over
  the product algebra, except :meth:`PairBimodule.zero`, which satisfies
  every law vacuously;
- :class:`TrivialExtData` certifies one-nilpotency;
- :class:`MoritaData` certifies that both pairings vanish, tensoring the
  two sides only when both are nonzero (a pairing with a zero side is
  zero).  That is the one certificate of the transport: the corner sum
  U (+) V is one-nilpotent exactly when both pairings vanish, so
  :func:`morita_to_trivext` builds the sum, its :class:`TrivialExtData`
  and the tensor ring unchecked;
- the context and triangular windows check each map against the modules
  of their stored ranks, and the checkers check the block powers.

Product algebras, corner embeddings, block power modules, the corner sum
and the zero corner of :meth:`TriangularData.as_morita` (memoised) are
valid by construction and built unchecked.  Each condition is one block
matrix; a functional condition searches the block diagonal of the slot
bases B_s (the columns of ``free_hom_vecs``, memoised per data object),
in which a residual f.x has the block (x^T (x) I) B_s and (W (x) f).x the
block (x^T (x) I) [vec(W (x) b)], both one product (``vec_precompose``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import product
from typing import Optional

from tensorgp.exactlin import (Matrix, block_diagonal, block_matrix, direct_sum,
                               is_exact_pair, kron, kron_sum, vec_columns, vec_precompose,
                               vstack)
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    LeftModule,
    ModuleMap,
    free_hom_basis,
    free_hom_vecs,
    free_module,
    unchecked_instance,
)
from tensorgp.bimodule import (
    Bimodule,
    InvalidBimodule,
    certify_nilpotent,
    check_bimodule,
    direct_sum_bimodule,
    tensor_bimodule,
    tensor_map,
)
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import (
    CheckReport,
    InternalCheckError,
    ResolutionWindow,
    Verdict,
    _hom_lift_check,
    factor_check,
    gated,
    kernel_lift,
    periodic_index,
    vanishing,
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
    """The product of two validated algebras, valid by construction."""
    if a.field != b.field:
        raise SpecialRingError("factors over different fields")
    f = a.field
    da, db = a.dim, b.dim
    dim = da + db
    consts = [[[f.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    for off, factor in ((0, a), (da, b)):
        for i, j, k in product(range(factor.dim), repeat=3):
            consts[off + i][off + j][off + k] = factor.consts[i][j][k]
    unit = list(a.unit) + list(b.unit)
    return ProductAlgebra(Algebra.unchecked(f, dim, consts, unit), a, b)


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
        # validated once, by the one-algebra checker on the corner embedding
        pa = product_algebra(self.left_alg, self.right_alg)
        report = check_bimodule(embed_pair_bimodule(pa, self))
        if not report.valid:
            raise InvalidBimodule(report)

    @staticmethod
    def zero(left_alg: Algebra, right_alg: Algebra) -> "PairBimodule":
        """The zero pair bimodule: it satisfies every law vacuously, so it
        is built unchecked once its two algebras share a field."""
        if left_alg.field != right_alg.field:
            raise SpecialRingError("pair bimodule across fields")
        z = Matrix.zeros(left_alg.field, 0, 0)
        return unchecked_instance(PairBimodule, left_alg, right_alg, 0,
                                  (z,) * left_alg.dim, (z,) * right_alg.dim)


def embed_pair_bimodule(pa: ProductAlgebra, pb: PairBimodule,
                        left: str = "a", right: str = "b") -> Bimodule:
    """Corner embedding into a bimodule over the product algebra.

    ``left`` and ``right`` name the factor ("a" or "b") through which each
    side acts; the orientation is explicit because the two factors may be
    equal as algebras.  The missing corner acts as zero.  The embedding of
    a validated pair bimodule is valid, so it is built unchecked.
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
    return Bimodule.unchecked(pa.algebra, pb.dim, left_acts, right_acts)


def block_power_module(pb: PairBimodule, n: int) -> LeftModule:
    """The block sum of n copies of the pair bimodule as a left module
    over its left algebra (the model of V (x) B^n under v (x) b = v.b),
    valid by construction."""
    eye = Matrix.identity(pb.left_alg.field, n)
    return LeftModule.unchecked(pb.left_alg, pb.dim * n,
                                [kron(eye, act) for act in pb.left_action])


def induced_block_map(pb: PairBimodule, f: ModuleMap) -> Matrix:
    """The matrix of V (x) f between block power modules, for f between
    standard free modules over the right algebra.

    It is sum_t kron(E_t, rho(e_t)), with rho the right action and E_t the
    e_t-coordinates of the images of the copy units under f: block (j, i)
    is the right action of the algebra entry of f at (copy j, copy i), so
    functoriality is exact.  The sum is one contraction (:func:`kron_sum`).
    """
    balg = pb.right_alg
    if f.source.algebra != balg:
        raise SpecialRingError("map is not over the right algebra of the pair")
    fld = balg.field
    n_src = f.source.dim // balg.dim
    # column i is the image of the unit of source copy i; its rows
    # j * d + t are the e_t-coordinate of the entry at (copy j, copy i)
    images = f.mat @ kron(Matrix.identity(fld, n_src), Matrix.column(fld, balg.unit))
    return kron_sum(images, pb.right_action)


def _induced(d: MoritaData, side: str, f: ModuleMap) -> Matrix:
    """:func:`induced_block_map` of the pair bimodule ``d.v`` or ``d.u``
    (``side``) at f, memoised in ``d._cache``: the maps of a window recur
    at the next position, and the triangular checks share the cache of
    their context data."""
    key = ("induced", side, f)
    if key not in d._cache:
        d._cache[key] = induced_block_map(getattr(d, side), f)
    return d._cache[key]


# -- trivial extensions -------------------------------------------------------


@dataclass(frozen=True)
class TrivialExtData:
    """A base algebra with a one-nilpotent bimodule: the tensor ring is the
    trivial extension."""

    r: Algebra
    m: Bimodule
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.m.algebra != self.r:
            raise SpecialRingError("bimodule over a different algebra")
        if not certify_nilpotent(self.m, 1):
            raise HypothesisViolated("the bimodule is not one-nilpotent")

    @staticmethod
    def unchecked(r: Algebra, m: Bimodule) -> "TrivialExtData":
        """The data of a bimodule whose one-nilpotency its caller has
        certified; neither it nor its tensor ring certifies it again."""
        d = unchecked_instance(TrivialExtData, r, m, {})
        d.__dict__["ring"] = TensorRing.unchecked(r, m, 1)
        return d

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

        c1 = vanishing([a1n.mat @ a1p.mat, a2n.mat @ a1p.mat + f_a1n.mat @ a2p.mat])
        verdicts.append(Verdict("C1", k, *c1))
        verdicts.append(gated("C2", k, c1[0] == "pass", "C1 failed", lambda: kernel_lift(
            block_matrix([[a1p.mat, None], [a2p.mat, f_a1p.mat]]),
            block_matrix([[a1n.mat, None], [a2n.mat, f_a1n.mat]]))))
        verdicts.append(Verdict("C3", k, *_trivext_c3(d, prev, next_)))
    return CheckReport("trivext", tuple(verdicts), window_local=w.period is None)


def _trivext_slots(d: TrivialExtData, rank: int):
    """Memoised per rank: the slot bases B1 (into the rank-one free
    module) and B2 (into its tensor block) out of the given rank, and the
    columns vec(M (x) b) of the B1 maps b."""
    key = ("slots", rank)
    if key not in d._cache:
        ring = d.ring
        fld = d.r.field
        free1 = ring.free(1)
        src, tgt = ring.model(1, ring.free(rank)), ring.model(1, free1)
        basis1 = free_hom_basis(d.r, rank, free1)
        d._cache[key] = (free_hom_vecs(d.r, rank, free1),
                         vec_columns(fld, 0, [tensor_map(d.m, b, src, tgt).mat
                                              for b in basis1]),
                         free_hom_vecs(d.r, rank, tgt.result))
    return d._cache[key]


def _trivext_columns(d: TrivialExtData, through: StarMorphism):
    """Basis and image of (f1, f2) |-> (f1.a1, (M (x) f1).a2 + f2.a1) over
    the slot bases out of the target rank of ``through`` = (a1, a2), and
    the shapes of the two slots."""
    rank = through.target_rank
    b1, m_b1, b2 = _trivext_slots(d, rank)
    a1, a2 = (c.mat for c in through.components)
    h1, h2 = d.r.dim, d.ring.model(1, d.ring.free(1)).result.dim
    image = block_matrix([[vec_precompose(b1, h1, a1), None],
                          [vec_precompose(m_b1, h2, a2), vec_precompose(b2, h2, a1)]])
    return block_diagonal([b1, b2]), image, [(h1, rank * h1), (h2, rank * h1)]


def _trivext_c3(d: TrivialExtData, prev: StarMorphism, next_: StarMorphism):
    """Functional pairs (f1, f2) with f1 into the rank-one free and f2 into
    its tensor block, killing the incoming pair, must factor through the
    outgoing pair."""
    return factor_check(partial(_trivext_columns, d), (prev,), (next_,))


# -- Morita context rings ------------------------------------------------------


@dataclass(frozen=True)
class MoritaData:
    """Two algebras with a bimodule in each direction and both induced
    pairings zero (checked exactly at construction)."""

    a: Algebra
    b: Algebra
    v: PairBimodule  # left a, right b
    u: PairBimodule  # left b, right a
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.v.left_alg != self.a or self.v.right_alg != self.b:
            raise SpecialRingError("v must be a left module over a and right over b")
        if self.u.left_alg != self.b or self.u.right_alg != self.a:
            raise SpecialRingError("u must be a left module over b and right over a")
        if not (self.u.dim and self.v.dim):
            return  # a pairing with a zero side is zero
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
    """The product algebra extended by the corner sum bimodule (u first).

    The corner sum is one-nilpotent exactly when both pairings vanish,
    which :class:`MoritaData` certified, so the sum, the data and its
    tensor ring are built unchecked.  Memoised in ``d._cache``, so every
    transport of ``d`` shares one tensor ring and its memo tables."""
    if "trivext" not in d._cache:
        pa = d.product
        w = direct_sum_bimodule(embed_pair_bimodule(pa, d.u, left="b", right="a"),
                                embed_pair_bimodule(pa, d.v, left="a", right="b"))
        d._cache["trivext"] = TrivialExtData.unchecked(pa.algebra, w)
    return d._cache["trivext"]


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
        _check_endpoints(self.ranks_p, self.ranks_q, self.tau, self.sigma, self.beta, self.gamma)

    def at(self, k: int):
        t = self.index.map_slot(k)
        return self.tau[t], self.sigma[t], self.beta[t], self.gamma[t]

    def positions(self):
        return self.index.positions()


def _check_endpoints(ranks_p, ranks_q, tau, sigma, beta, gamma=()):
    """Refuse maps whose dimensions contradict the stored ranks: tau and
    sigma run between the free modules of ranks_p and of ranks_q, beta
    from the free module of ranks_p into the block power of ranks_q one
    index on, and gamma from ranks_q into ranks_p.  The block dimension of
    a power is read off the first map into a nonzero power, so every map
    into that power must agree with it; the checkers compare it with the
    pair bimodule (:func:`_check_block_powers`)."""
    da = tau[0].source.algebra.dim if tau else 0
    db = sigma[0].source.algebra.dim if sigma else 0

    def block_dim(maps, tgt_ranks):
        return next((m.target.dim // n for m, n in zip(maps, tgt_ranks[1:]) if n), 0)

    for name, maps, src, tgt, d_src, d_tgt in (
            ("tau", tau, ranks_p, ranks_p, da, da),
            ("sigma", sigma, ranks_q, ranks_q, db, db),
            ("beta", beta, ranks_p, ranks_q, da, block_dim(beta, ranks_q)),
            ("gamma", gamma, ranks_q, ranks_p, db, block_dim(gamma, ranks_p))):
        for t, m in enumerate(maps):
            if (m.source.dim, m.target.dim) != (src[t] * d_src, tgt[t + 1] * d_tgt):
                raise SpecialRingError(f"{name} map {t} does not match the stored ranks")


def _check_block_powers(w, v: PairBimodule, u: Optional[PairBimodule] = None):
    """Refuse a window whose beta maps do not land in the block power of v,
    or whose gamma maps (when u is given) in that of u, at the stored rank
    one index on.  The window cannot check this itself: it does not hold
    the pair bimodules, and only infers a block dimension from its maps."""
    families = [("beta", w.beta, v, w.ranks_q)]
    if u is not None:
        families.append(("gamma", w.gamma, u, w.ranks_p))
    for name, maps, pb, ranks in families:
        for t, m in enumerate(maps):
            # pb.dim * n is the dimension of block_power_module(pb, n)
            if m.target.dim != pb.dim * ranks[t + 1]:
                raise SpecialRingError(
                    f"{name} map {t} does not land in the block power of rank "
                    f"{ranks[t + 1]} of the pair bimodule")


def _ranks_at(w, k: int):
    """The free ranks (p, q) of a context or triangular window at index k."""
    t = w.index.rank_slot(k)
    return w.ranks_p[t], w.ranks_q[t]


def morita_checks(d: MoritaData, w: MoritaWindow) -> CheckReport:
    """Direct evaluation of the context-ring resolution conditions, with
    the rank-one test projectives on both sides (sufficient by
    additivity)."""
    _check_block_powers(w, d.v, d.u)
    verdicts = []
    for k in w.positions():
        tau_p, sigma_p, beta_p, gamma_p = w.at(k - 1)
        tau_n, sigma_n, beta_n, gamma_n = w.at(k)
        vs_n = _induced(d, "v", sigma_n)
        vs_p = _induced(d, "v", sigma_p)
        ut_n = _induced(d, "u", tau_n)
        ut_p = _induced(d, "u", tau_p)

        c1 = vanishing([tau_n.mat @ tau_p.mat,
                        sigma_n.mat @ sigma_p.mat,
                        beta_n.mat @ tau_p.mat + vs_n @ beta_p.mat,
                        gamma_n.mat @ sigma_p.mat + ut_n @ gamma_p.mat])
        verdicts.append(Verdict("C1'", k, *c1))

        def both_sides():
            """Both side lifts run; the first failing side is reported."""
            side_a = kernel_lift(block_matrix([[tau_p.mat, None], [beta_p.mat, vs_p]]),
                                 block_matrix([[tau_n.mat, None], [beta_n.mat, vs_n]]))
            side_b = kernel_lift(block_matrix([[sigma_p.mat, None], [gamma_p.mat, ut_p]]),
                                 block_matrix([[sigma_n.mat, None], [gamma_n.mat, ut_n]]))
            return side_a if side_a[0] == "fail" else side_b

        verdicts.append(gated("C2'", k, c1[0] == "pass", "C1' failed", both_sides))
        verdicts.append(Verdict("C3'", k, *_morita_c3(d, w, k)))
    return CheckReport("morita", tuple(verdicts), window_local=w.period is None)


def _morita_slots(d: MoritaData, rank_p: int, rank_q: int):
    """Memoised per rank pair: the slot bases of f1, f2 (into the rank-one
    frees over a and b) and u1, u2 (into the rank-one powers of v and u),
    with the columns vec(U (x) b) of the f1 maps and vec(V (x) b) of the
    f2 maps (:func:`_induced_columns`)."""
    key = ("slots", rank_p, rank_q)
    if key not in d._cache:
        d._cache[key] = ((free_hom_vecs(d.a, rank_p, free_module(d.a, 1)),
                          free_hom_vecs(d.b, rank_q, free_module(d.b, 1)),
                          free_hom_vecs(d.a, rank_p, block_power_module(d.v, 1)),
                          free_hom_vecs(d.b, rank_q, block_power_module(d.u, 1))),
                         _induced_columns(d.u, rank_p), _induced_columns(d.v, rank_q))
    return d._cache[key]


def _induced_columns(pb: PairBimodule, n: int) -> Matrix:
    """The columns vec(W (x) b) of the :func:`free_hom_basis` maps b from
    the rank-n free module into the rank-one free module over the right
    algebra of the pair W, in basis order.  The basis map (copy i, e_t)
    induces rho(e_t) in block i and zero elsewhere, so the columns are
    kron(I_n, [vec rho(e_t)]_t), the 0 x 0 matrix at n = 0 as in
    :func:`free_hom_vecs`."""
    fld = pb.right_alg.field
    return kron(Matrix.identity(fld, n), vec_columns(fld, pb.dim * pb.dim, pb.right_action))


def _morita_quadruple_columns(d: MoritaData, tau, sigma, beta, gamma, rank_p, rank_q):
    """Basis and image of the linear map (f1, f2, u1, u2) -> the four
    residuals (f1.tau, f2.sigma, (V (x) f2).beta + u1.tau,
    (U (x) f1).gamma + u2.sigma) over the slot bases for functionals out of
    the given ranks, and the shapes of the four slots."""
    (f1, f2, u1, u2), u_f1, v_f2 = _morita_slots(d, rank_p, rank_q)
    da, db, dv, du = d.a.dim, d.b.dim, d.v.dim, d.u.dim
    image = block_matrix([
        [vec_precompose(f1, da, tau.mat), None, None, None],
        [None, vec_precompose(f2, db, sigma.mat), None, None],
        [None, vec_precompose(v_f2, dv, beta.mat), vec_precompose(u1, dv, tau.mat), None],
        [vec_precompose(u_f1, du, gamma.mat), None, None, vec_precompose(u2, du, sigma.mat)]])
    shapes = [(da, rank_p * da), (db, rank_q * db), (dv, rank_p * da), (du, rank_q * db)]
    return block_diagonal([f1, f2, u1, u2]), image, shapes


def _morita_c3(d: MoritaData, w: MoritaWindow, k: int):
    return factor_check(partial(_morita_quadruple_columns, d),
                        (*w.at(k - 1), *_ranks_at(w, k)), (*w.at(k), *_ranks_at(w, k + 1)))


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
        """The context data with the zero lower corner (memoised), whose
        memo tables the triangular checkers share."""
        return self._morita

    @cached_property
    def _morita(self) -> MoritaData:
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
        _check_endpoints(self.ranks_p, self.ranks_q, self.tau, self.sigma, self.beta)

    def as_morita(self, d: TriangularData) -> MoritaWindow:
        u = d.as_morita().u
        gamma = tuple(ModuleMap.zero(s.source, block_power_module(u, self.ranks_p[t + 1]))
                      for t, s in enumerate(self.sigma))
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
    _check_block_powers(w, d.v)
    verdicts = []
    for k in w.positions():
        tau_p, sigma_p, beta_p = w.at(k - 1)
        tau_n, sigma_n, beta_n = w.at(k)
        vs_n = _induced(d.as_morita(), "v", sigma_n)
        vs_p = _induced(d.as_morita(), "v", sigma_p)

        top = vanishing([tau_n.mat @ tau_p.mat])
        verdicts.append(Verdict("(i) complex", k, *top,
                                note="top complex is also exact" if top[0] == "pass" and
                                is_exact_pair(tau_p.mat, tau_n.mat) else ""))
        rank_mid, rank_out = _ranks_at(w, k)[0], _ranks_at(w, k + 1)[0]
        verdicts.append(Verdict("(i) lift", k, *_hom_lift_check(
            d.a, free_module(d.a, 1), tau_p, tau_n, rank_mid, rank_out)))
        bottom = vanishing([sigma_n.mat @ sigma_p.mat])
        verdicts.append(Verdict("(ii) complex", k, *bottom))
        mixed = vanishing([beta_n.mat @ tau_p.mat + vs_n @ beta_p.mat], first=3)
        verdicts.append(Verdict("(iii)", k, *mixed))

        complex_ok = all(c[0] == "pass" for c in (top, bottom, mixed))
        verdicts.append(gated("(ii) exact", k, complex_ok, "not a complex",
                              lambda: kernel_lift(sigma_p.mat, sigma_n.mat)))
        verdicts.append(gated("(iv)", k, complex_ok, "not a complex", lambda: kernel_lift(
            block_matrix([[tau_p.mat, None], [beta_p.mat, vs_p]]),
            block_matrix([[tau_n.mat, None], [beta_n.mat, vs_n]]))))
        verdicts.append(Verdict("(v)", k, *_triangular_v(d, w, k)))
    return CheckReport("triangular", tuple(verdicts), window_local=w.period is None)


def _triangular_columns(d: TriangularData, tau, sigma, beta, rank_p, rank_q):
    """Basis and image of (f, g) |-> (f.tau + (V (x) g).beta, g.sigma) over
    the slot bases out of the given ranks, and the shapes of the two
    slots.  The slots of f and g are those of u1 and f2 in the context ring
    of ``d`` (:func:`_morita_slots`), and so are the columns vec(V (x) g)."""
    (_, g, f, _), _, v_g = _morita_slots(d.as_morita(), rank_p, rank_q)
    dv, db = d.v.dim, d.b.dim
    image = block_matrix([[vec_precompose(f, dv, tau.mat), vec_precompose(v_g, dv, beta.mat)],
                          [None, vec_precompose(g, db, sigma.mat)]])
    shapes = [(dv, rank_p * d.a.dim), (db, rank_q * db)]
    return block_diagonal([f, g]), image, shapes


def _triangular_v(d: TriangularData, w: TriangularWindow, k: int):
    """Pairs (f into the v-block, g into the rank-one bottom free) with
    g . sigma_prev = 0 and f . tau_prev + (v (x) g) . beta_prev = 0 must
    factor as g = g' . sigma_next, f = f' . tau_next + (v (x) g') . beta_next."""
    return factor_check(partial(_triangular_columns, d),
                        (*w.at(k - 1), *_ranks_at(w, k)), (*w.at(k), *_ranks_at(w, k + 1)))


# -- transport into the generic language -----------------------------------------


def block_model_iso(te: TrivialExtData, d: MoritaData, n: int) -> Matrix:
    """The pinned isomorphism from the block sum (u-power, v-power) onto
    the canonical tensor model of the corner sum applied to the rank-n
    free product module.

    Basis bijection: (copy i, u-basis c) goes to the class of
    u_c (x) (unit of the a-factor in copy i); (copy i, v-basis c) to
    v_c (x) (unit of the b-factor in copy i).  Validated as an invertible
    map of modules over the product algebra once per n: ``te`` is
    :func:`morita_to_trivext` of ``d``, and the result is memoised in
    ``d._cache``.
    """
    key = ("block_model_iso", n)
    if key not in d._cache:
        d._cache[key] = _block_model_iso(te, d, n)
    return d._cache[key]


def _block_model_iso(te: TrivialExtData, d: MoritaData, n: int) -> Matrix:
    """Column (copy i, u-basis c) of the ambient tensor space holds the
    coordinates of a's unit in the a-part of copy i of the free module,
    under generator c of the corner sum; (copy i, v-basis c) those of b's
    unit in the b-part.  These are the columns of kron(I, [ua | ub]) on the
    matching side, with ua and ub the units placed in the product algebra,
    so the isomorphism is one selection and one product with the model's
    projection."""
    ring = te.ring
    fld = d.a.field
    model = ring.model(1, ring.free(n))
    du, dv = d.u.dim, d.v.dim
    zero = fld.zero()
    units = Matrix.from_rows(fld, [[c, zero] for c in d.a.unit] + [[zero, c] for c in d.b.unit])
    # column (k, side) of the Kronecker product: generator k // n, copy k % n
    ambient = kron(Matrix.identity(fld, (du + dv) * n), units).take_cols(
        [(c * n + i) * 2 for i in range(n) for c in range(du)]
        + [((du + c) * n + i) * 2 + 1 for i in range(n) for c in range(dv)])
    xi = model.projection @ ambient
    if xi.rows != xi.cols or (xi.cols and xi.rank() != xi.cols):
        raise InternalCheckError("block model identification is not invertible")
    # validate linearity over the product algebra
    ModuleMap(_block_sum_module(d, n), model.result, xi)
    return xi


def _block_sum_module(d: MoritaData, n: int) -> LeftModule:
    """(u-power, v-power) as a module over the product algebra: the a-part
    acts on the v-blocks, the b-part on the u-blocks (valid by
    construction)."""
    fld = d.a.field
    un, vn = block_power_module(d.u, n), block_power_module(d.v, n)
    zu, zv = Matrix.zeros(fld, un.dim, un.dim), Matrix.zeros(fld, vn.dim, vn.dim)
    action = [direct_sum(zu, m) for m in vn.action] + [direct_sum(m, zv) for m in un.action]
    return LeftModule.unchecked(d.product.algebra, un.dim + vn.dim, action)


def _interleavers(d: MoritaData, n: int):
    """Inclusion matrices of the a-part and b-part coordinates of the
    rank-n free product module (copy-major layout)."""
    da, dd = d.a.dim, d.product.dim
    ident = Matrix.identity(d.a.field, n * dd)
    return (ident.take_cols([i * dd + t for i in range(n) for t in range(da)]),
            ident.take_cols([i * dd + t for i in range(n) for t in range(da, dd)]))


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
    _check_block_powers(w, d.v, d.u)
    te = morita_to_trivext(d)
    ring = te.ring
    stars = []
    for t in range(len(w.tau)):
        n_src, n_tgt = w.ranks_p[t], w.ranks_p[t + 1]
        tau, sigma, beta, gamma = w.tau[t], w.sigma[t], w.beta[t], w.gamma[t]
        ea_s, eb_s = _interleavers(d, n_src)
        ea_t, eb_t = _interleavers(d, n_tgt)
        alpha1 = ea_t @ tau.mat @ ea_s.transpose() + eb_t @ sigma.mat @ eb_s.transpose()
        xi = block_model_iso(te, d, n_tgt)
        blocks = block_matrix([[None, gamma.mat], [beta.mat, None]])
        alpha2 = xi @ blocks @ vstack([ea_s.transpose(), eb_s.transpose()])
        p_src = ring.free(n_src)
        p_tgt = ring.free(n_tgt)
        comps = (ModuleMap(p_src, p_tgt, alpha1),
                 ModuleMap(p_src, ring.model(1, p_tgt).result, alpha2))
        stars.append(StarMorphism(ring, n_src, n_tgt, comps))
    return ResolutionWindow(ring, w.lo, w.ranks_p, tuple(stars), period=w.period)
