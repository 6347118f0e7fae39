"""Checkers for candidate complete projective resolutions over a tensor
ring, presented as windows of lower-triangular block morphisms between
induced free modules.

A window stores the free ranks P^k for k in [lo, hi] and the component
lists alpha^k for k in [lo, hi); an optional period p certifies the data
for every integer index by wraparound.  Three conditions are evaluated at
each checkable position:

- C1: all composite components vanish (the window is a complex);
- C2: every kernel element of the assembled outgoing map lifts through
  the assembled incoming map (exactness), cross-checked against the
  equivalent rank identity; decided where C1 holds, "skip" elsewhere;
- C3: every component tuple of functionals into the induced test module
  that kills the incoming map factors through the outgoing map
  (Hom-exactness against induced projectives, with the rank-one test
  module, which suffices by additivity).  The components of f . alpha are
  A(f) V, with A(f) the assembled matrix of f, memoised per ring and rank
  for a basis of tuples, and V the stacked components of alpha.

Every failing verdict carries a witness that re-verifies through the
low-level matrix operations alone; see :func:`replay_verdict`.  The
witness of C2 and C3 is the first candidate column that does not lift,
found by one elimination (:func:`tensorgp.exactlin.lift_or_witness`).

Independent oracles: assembled-matrix exactness for C1+C2 and the literal
Hom-complex homology for C3 (:func:`hom_complex_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import Optional

from tensorgp.exactlin import (Matrix, hstack, is_exact_pair, kron, lift_or_witness,
                               unlifted_solution, unvec, unvec_blocks, vec, vec_columns,
                               vstack)
from tensorgp.algebra import (
    LeftModule,
    ModuleMap,
    free_hom_basis,
    submodule_from_columns,
)
from tensorgp.bimodule import (Bimodule, graft, iterate_functor, iterate_functor_map,
                               zero_bimodule)
from tensorgp.tensor_ring import (
    StarMorphism,
    TModule,
    TensorRing,
    TensorRingError,
)


class ResolutionError(TensorRingError):
    pass


class InternalCheckError(ResolutionError):
    """The two independent methods of a checker disagreed: model incoherence."""


class NotCompleteResolution(ResolutionError):
    def __init__(self, report):
        super().__init__("the base complex is not a complete projective resolution")
        self.report = report


class IncompatibleBimodule(ResolutionError):
    def __init__(self, report):
        failing = [v for v in report.verdicts if v.status == "fail"]
        where = f" (first failure: {failing[0].label} at k={failing[0].k})" if failing else ""
        super().__init__("the bimodule fails the compatibility conditions" + where)
        self.report = report


class ExtractionRefused(ResolutionError):
    pass


# -- reports and witnesses -------------------------------------------------


@dataclass(frozen=True)
class BlockWitness:
    """A nonzero composite component: the window is not a complex at j."""

    j: int
    component: Matrix


@dataclass(frozen=True)
class KernelWitness:
    """A kernel column of the outgoing assembled map with no preimage."""

    vector: Matrix


@dataclass(frozen=True)
class FunctionalWitness:
    """A tuple of functionals killing the incoming map that does not
    factor through the outgoing one."""

    components: tuple


@dataclass(frozen=True)
class Verdict:
    label: str
    k: Optional[int]
    status: str  # "pass" | "fail" | "skip"
    witness: object = None
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    scheme: str
    verdicts: tuple
    window_local: bool = False

    @property
    def passed(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    def failures(self):
        return tuple(v for v in self.verdicts if v.status == "fail")

    def status(self, k, label) -> str:
        for v in self.verdicts:
            if v.k == k and v.label == label:
                return v.status
        raise KeyError((k, label))

    def summary(self) -> str:
        lines = [f"scheme: {self.scheme}"
                 + ("  (window-local verdicts)" if self.window_local else "")]
        for v in self.verdicts:
            where = f"k={v.k}" if v.k is not None else ""
            note = f"  [{v.note}]" if v.note else ""
            lines.append(f"  {v.label:<14} {where:<8} {v.status}{note}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


# -- windows ----------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicIndex:
    """Integer indices of a window storing ``maps`` maps from ``lo`` and one
    more rank, repeating with ``period`` when there is one.

    ``error`` is the exception type the owning window raises.
    """

    lo: int
    maps: int
    period: Optional[int]
    error: type

    def slot(self, k: int) -> int:
        """Storage slot of index k, unchecked."""
        t = k - self.lo
        return t % self.period if self.period is not None else t

    def rank_slot(self, k: int) -> int:
        t = self.slot(k)
        if not 0 <= t <= self.maps:
            raise self.error(f"index {k} outside the window")
        return t

    def map_slot(self, k: int) -> int:
        t = self.slot(k)
        if not 0 <= t < self.maps:
            raise self.error(f"no map at index {k}")
        return t

    def positions(self) -> list:
        """Indices k at which both the map at k-1 and the map at k exist."""
        if self.period is not None:
            return list(range(self.lo, self.lo + self.period))
        return list(range(self.lo + 1, self.lo + self.maps))


def periodic_index(lo: int, rank_families, map_families, period, error) -> PeriodicIndex:
    """Validate window data and index it: the map families have one length
    n, every rank family n + 1, and a period is an integer in 1..n under
    which every family repeats where the window overlaps itself."""
    n = len(map_families[0])
    if any(len(f) != n for f in map_families):
        raise error("the map families must have equal length")
    if any(len(r) != n + 1 for r in rank_families):
        raise error("need exactly one more rank than maps")
    if period is not None:
        if not isinstance(period, int) or isinstance(period, bool):
            raise error(f"period must be an integer, got {period!r}")
        if period < 1 or period > n:
            raise error("period must fit inside the window")
        for what, families in (("ranks", rank_families), ("maps", map_families)):
            for f in families:
                if any(f[t] != f[t + period] for t in range(len(f) - period)):
                    raise error(f"{what} are not periodic where the window overlaps")
    return PeriodicIndex(lo, n, period, error)


@dataclass(frozen=True)
class ResolutionWindow:
    """A finite, optionally periodic, segment of a candidate resolution.

    ``ranks[t]`` is the free rank of P^(lo+t) and ``maps[t]`` the component
    list of alpha^(lo+t).  With a period p the data repeats with
    P^(k+p) = P^k and alpha^(k+p) = alpha^k, which makes every integer
    index checkable; without one, verdicts are window-local.
    """

    ring: TensorRing
    lo: int
    ranks: tuple
    maps: tuple
    period: Optional[int] = None
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "index", periodic_index(
            self.lo, (self.ranks,), (self.maps,), self.period, ResolutionError))
        for t, s in enumerate(self.maps):
            if s.ring != self.ring:
                raise ResolutionError("map over a different tensor ring")
            if s.source_rank != self.ranks[t] or s.target_rank != self.ranks[t + 1]:
                raise ResolutionError(f"map {t} endpoints do not match the ranks")

    @property
    def hi(self) -> int:
        return self.lo + len(self.maps)

    def rank_at(self, k: int) -> int:
        return self.ranks[self.index.rank_slot(k)]

    def map_at(self, k: int) -> StarMorphism:
        return self.maps[self.index.map_slot(k)]

    def assembled(self, k: int) -> Matrix:
        """The assembled big matrix of alpha^k (cached per window index)."""
        t = self.index.map_slot(k)
        cache = self._cache.setdefault("assembled", {})
        if t not in cache:
            cache[t] = self.ring.assemble_star(self.maps[t])
        return cache[t]

    def positions(self):
        """Indices k at which both alpha^(k-1) and alpha^k are available."""
        return self.index.positions()


def zero_window(ring: TensorRing, rank: int = 0) -> ResolutionWindow:
    s = StarMorphism.zero(ring, rank, rank)
    return ResolutionWindow(ring, 0, (rank, rank), (s,), period=1)


# -- composition of component lists ----------------------------------------


def star_compose(s2: StarMorphism, s1: StarMorphism) -> StarMorphism:
    """Component list of the composite s2 . s1.

    The j-th component is the convolution sum of grafted functor-power
    lifts; assembling the result equals the product of the assembled
    matrices.  Composites of valid component lists are valid, so the
    components are built unchecked.
    """
    ring = s1.ring
    if s2.ring != ring or s1.target_rank != s2.source_rank:
        raise ResolutionError("component lists are not composable")
    m = ring.bimodule
    n = ring.nilpotency
    p = ring.free(s1.source_rank)
    q2 = ring.free(s2.target_rank)
    comps = []
    for j in range(1, n + 2):
        target = ring.model(j - 1, q2).result
        acc = Matrix.zeros(ring.algebra.field, target.dim, p.dim)
        for i in range(1, j + 1):
            lifted = iterate_functor_map(m, i - 1, s2.components[j - i])
            g = graft(m, i - 1, j - i, q2).mat
            acc = acc + g @ lifted.mat @ s1.components[i - 1].mat
        comps.append(ModuleMap.unchecked(p, target, acc))
    return StarMorphism(ring, s1.source_rank, s2.target_rank, tuple(comps))


# -- the three conditions ----------------------------------------------------


def check_c1(prev: StarMorphism, next_: StarMorphism):
    """All composite components of next . prev must vanish.

    Returns (passed, witness); the witness is the first nonzero component
    with its block index.
    """
    comps = star_compose(next_, prev)
    for j, comp in enumerate(comps.components, start=1):
        if not comp.is_zero():
            return False, BlockWitness(j, comp.mat)
    return True, None


def check_c2(w: ResolutionWindow, k: int):
    """Kernel elements of the assembled alpha^k must lift through the
    assembled alpha^(k-1).

    Decided by :func:`kernel_lift` on the window's assembled matrices, with
    its rank cross-check; the two methods agree whenever the composite
    vanishes, so the caller decides C1 first (:func:`check_complete`
    records "skip" when it fails).
    """
    return kernel_lift(w.assembled(k - 1), w.assembled(k))


def kernel_lift(prev: Matrix, next_: Matrix):
    """Kernel columns of ``next_`` must lift through ``prev``.

    Decided by one elimination, whose witness is the first kernel basis
    column that does not lift, and cross-checked against the rank identity
    rank(prev) = cols(next_) - rank(next_); a disagreement raises
    :class:`InternalCheckError`.  Returns (status, witness).
    """
    kernel = next_.kernel_basis()
    c = lift_or_witness(prev, kernel)
    rank_form = prev.rank() == next_.cols - next_.rank()
    if (c is None) != rank_form:
        raise InternalCheckError(
            f"kernel-lift and rank methods disagree: {c is None} vs {rank_form}"
        )
    return ("pass", None) if c is None else ("fail", KernelWitness(kernel.col(c)))


def _tuple_shapes(ring: TensorRing, rank: int) -> list:
    """Component shapes of a functional tuple out of a free module."""
    return [(ring.model(i, ring.free(1)).result.dim, rank * ring.algebra.dim)
            for i in range(ring.nilpotency + 1)]


def _stack_tuple(mats) -> Matrix:
    return vstack([vec(m) for m in mats])


def _star_from_tuple(ring: TensorRing, rank: int, mats) -> StarMorphism:
    p = ring.free(rank)
    comps = [ModuleMap(p, ring.model(i, ring.free(1)).result, m) for i, m in enumerate(mats)]
    return StarMorphism(ring, rank, 1, tuple(comps))


def _functional_basis(ring: TensorRing, rank: int):
    """The slot-basis functional tuples b out of the free module of the
    given rank (one basis map of a slot, zeros elsewhere; slot-major),
    memoised per (ring, rank): the matrix of their stacked coordinate
    columns and, per block j of Ind(R), its height and the columns
    vec(A(b)_j) of the j-th row blocks of their assembled matrices.  Only
    rank 0 has no tuples, and there every such column has length 0."""
    cache = ring._cache.setdefault("functional_basis", {})
    if rank not in cache:
        p = ring.free(rank)
        targets = [ring.model(i, ring.free(1)).result for i in range(ring.nilpotency + 1)]
        zeros = [ModuleMap.unchecked(p, t, Matrix.zeros(ring.algebra.field, t.dim, p.dim))
                 for t in targets]
        offsets = [0, *accumulate(t.dim for t in targets)]
        basis_cols, block_cols = [], [[] for _ in targets]
        for i, target in enumerate(targets):
            for b in free_hom_basis(ring.algebra, rank, target):
                comps = zeros[:i] + [b] + zeros[i + 1:]
                basis_cols.append(_stack_tuple([c.mat for c in comps]))
                a = ring.assemble_star(StarMorphism(ring, rank, 1, tuple(comps)))
                for j, cols in enumerate(block_cols):
                    cols.append(vec(a.block(offsets[j], offsets[j + 1], 0, a.cols)))
        empty = Matrix.zeros(ring.algebra.field, 0, 0)
        cache[rank] = (hstack(basis_cols) if basis_cols else empty,
                       [(t.dim, hstack(c) if c else empty) for t, c in zip(targets, block_cols)])
    return cache[rank]


def _functional_constraints(ring: TensorRing, through: StarMorphism) -> Matrix:
    """Matrix of f |-> components(f . through) over the slot-basis tuples f
    out of the free module of the target rank of ``through``.

    The components of f . through are the row blocks A(f)_j V of A(f) V,
    with V the stacked components of ``through`` (the first block column
    of its assembled matrix), so vec(A(f)_j V) = (V^T (x) I) vec(A(f)_j).
    """
    _, blocks = _functional_basis(ring, through.target_rank)
    field = ring.algebra.field
    vt = vstack([c.mat for c in through.components]).transpose()
    return vstack([kron(vt, Matrix.identity(field, h)) @ blk for h, blk in blocks])


def check_c3(prev: StarMorphism, next_: StarMorphism):
    """Functional tuples killing the incoming map must factor through the
    outgoing map; the test module is the induced free module of rank one,
    which suffices because the condition is additive in the test module.

    Returns (passed, witness); the witness is the offending tuple.
    """
    ring = prev.ring
    if prev.target_rank != next_.source_rank:
        raise ResolutionError("maps do not share a middle rank")
    rank_mid = prev.target_rank
    basis, _ = _functional_basis(ring, rank_mid)
    col = unlifted_solution(basis, _functional_constraints(ring, prev),
                            lambda: _functional_constraints(ring, next_))
    if col is None:
        return True, None
    return False, FunctionalWitness(tuple(unvec_blocks(col, _tuple_shapes(ring, rank_mid))))


# -- the full window check ---------------------------------------------------


def check_complete(w: ResolutionWindow) -> CheckReport:
    """Run C1, C2 and C3 at every checkable position of the window.

    With a period the verdicts certify every integer index; otherwise the
    report is marked window-local and never upgrades to a claim about the
    whole line.
    """
    verdicts = []
    for k in w.positions():
        prev = w.map_at(k - 1)
        next_ = w.map_at(k)
        ok1, w1 = check_c1(prev, next_)
        verdicts.append(Verdict("C1", k, "pass" if ok1 else "fail", w1))
        if ok1:
            verdicts.append(Verdict("C2", k, *check_c2(w, k)))
        else:
            verdicts.append(Verdict("C2", k, "skip", note="C1 failed"))
        ok3, w3 = check_c3(prev, next_)
        verdicts.append(Verdict("C3", k, "pass" if ok3 else "fail", w3))
    return CheckReport("generic", tuple(verdicts), window_local=w.period is None)


def exactness_oracle(w: ResolutionWindow) -> dict:
    """Assembled-matrix exactness at every checkable position: the
    independent route to C1 and C2 combined."""
    out = {}
    for k in w.positions():
        out[k] = is_exact_pair(w.assembled(k - 1), w.assembled(k))
    return out


# -- Gorenstein projective extraction ----------------------------------------


def extract_gp(w: ResolutionWindow, k: int, allow_window_local: bool = False) -> TModule:
    t, _incl = extract_gp_with_inclusion(w, k, allow_window_local)
    return t


def extract_gp_with_inclusion(w: ResolutionWindow, k: int, allow_window_local: bool = False):
    """Kernel of the assembled map at k, as a certified pair.

    The window must pass the full check first; without a period the caller
    must explicitly accept a window-local certificate.  The structure map
    of the kernel is the restriction of the induced module's block shift,
    which is well defined because the assembled map is a morphism of
    pairs; the restriction is verified by exact solving.
    """
    report = check_complete(w)
    if not report.passed:
        raise ExtractionRefused("the window does not pass the resolution conditions")
    if report.window_local and not allow_window_local:
        raise ExtractionRefused("window-local verdict: pass allow_window_local to accept")
    ring = w.ring
    mmod = ring.bimodule
    ind_k = ring.ind_free(w.rank_at(k))
    a = w.assembled(k)
    kernel = a.kernel_basis()
    sub, incl = submodule_from_columns(ind_k.x, kernel)
    from tensorgp.bimodule import tensor_map

    f_incl = tensor_map(mmod, incl, ring.model(1, sub), ring.model(1, ind_k.x))
    into_big = ind_k.u @ f_incl.mat
    restricted = kernel.solve(into_big)
    if restricted is None:
        raise InternalCheckError("structure map does not restrict to the kernel")
    return TModule(ring, sub, restricted), incl


def check_strongly_gp(s: StarMorphism) -> CheckReport:
    """Period-one specialization: one component list repeated forever.

    Implemented as exactly that reduction; labels are renamed SC1..SC3.
    """
    if s.source_rank != s.target_rank:
        raise ResolutionError("a one-periodic window needs equal ranks")
    ring = s.ring
    w = ResolutionWindow(ring, 0, (s.source_rank, s.source_rank), (s,), period=1)
    base = check_complete(w)
    relabel = {"C1": "SC1", "C2": "SC2", "C3": "SC3"}
    verdicts = tuple(
        Verdict(relabel[v.label], v.k, v.status, v.witness, v.note) for v in base.verdicts
    )
    return CheckReport("strong", verdicts, window_local=False)


# -- base-ring complexes, compatibility, and lifting -------------------------


def complex_window(maps, period=None) -> ResolutionWindow:
    """Wrap maps between standard free modules as a window over the tensor
    ring of the zero bimodule (the base ring itself)."""
    if not maps:
        raise ResolutionError("empty complex")
    algebra = maps[0].source.algebra
    ring0 = TensorRing(algebra, zero_bimodule(algebra), 0)
    ranks = []
    stars = []
    for f in maps:
        ranks.append(_free_rank_of(ring0, f.source))
        stars.append(StarMorphism(ring0, ranks[-1], _free_rank_of(ring0, f.target), (f,)))
    ranks.append(_free_rank_of(ring0, maps[-1].target))
    return ResolutionWindow(ring0, 0, tuple(ranks), tuple(stars), period=period)


def _free_rank_of(ring: TensorRing, x: LeftModule) -> int:
    d = ring.algebra.dim
    if x.dim % d:
        raise ResolutionError("complex term is not a standard free module")
    rank = x.dim // d
    if ring.free(rank) != x:
        raise ResolutionError("complex term is not the standard free module")
    return rank


def _hom_lift_check(algebra, w_target, prev: ModuleMap, next_: ModuleMap, rank_mid, rank_out):
    """Functionals into w_target killing prev must factor through next_:
    vec(b . f) = (f^T (x) I) vec(b) over the free_hom_basis maps b."""
    eye = Matrix.identity(algebra.field, w_target.dim)

    def basis(rank):
        return vec_columns(algebra.field, w_target.dim * rank * algebra.dim,
                           [b.mat for b in free_hom_basis(algebra, rank, w_target)])

    basis_mid = basis(rank_mid)
    col = unlifted_solution(basis_mid, kron(prev.mat.transpose(), eye) @ basis_mid,
                            lambda: kron(next_.mat.transpose(), eye) @ basis(rank_out))
    if col is None:
        return True, None
    return False, FunctionalWitness((unvec(algebra.field, col, w_target.dim,
                                           rank_mid * algebra.dim),))


def check_compatibility(m: Bimodule, pc: ResolutionWindow, levels: int) -> CheckReport:
    """Per-instance compatibility of a bimodule with a base-ring complete
    projective resolution.

    The input complex (a window over the zero-bimodule ring) is first
    certified as complete; then for each functor power i in 1..levels both
    requirements are checked: the i-th power of the complex stays exact,
    and functionals into the i-th power of the rank-one free module still
    lift.  Verdicts are per (i, position) with witnesses.

    This certifies the hypothesis for the given resolution only, not
    universally; nilpotency of the bimodule is not required here.
    """
    if pc.ring.bimodule.dim != 0:
        raise ResolutionError("the base complex must live over the zero bimodule")
    if m.algebra != pc.ring.algebra:
        raise ResolutionError("bimodule is over a different algebra")
    base = check_complete(pc)
    if not base.passed:
        raise NotCompleteResolution(base)
    algebra = m.algebra
    verdicts = []
    free1 = pc.ring.free(1)
    for i in range(1, levels + 1):
        target = iterate_functor(m, i, free1).result
        for k in pc.positions():
            fprev = pc.map_at(k - 1).components[0]
            fnext = pc.map_at(k).components[0]
            lifted_prev = iterate_functor_map(m, i, fprev)
            lifted_next = iterate_functor_map(m, i, fnext)
            if is_exact_pair(lifted_prev.mat, lifted_next.mat):
                verdicts.append(Verdict(f"F{i}-exact", k, "pass"))
            else:
                kernel = lifted_next.mat.kernel_basis()
                c = lift_or_witness(lifted_prev.mat, kernel)
                witness = KernelWitness(kernel.col(c)) if c is not None \
                    else BlockWitness(1, lifted_next.mat @ lifted_prev.mat)
                verdicts.append(Verdict(f"F{i}-exact", k, "fail", witness))
            ok, w = _hom_lift_check(algebra, target, fprev, fnext,
                                    pc.rank_at(k), pc.rank_at(k + 1))
            verdicts.append(Verdict(f"F{i}-hom-lift", k, "pass" if ok else "fail", w))
    return CheckReport("compat", tuple(verdicts), window_local=pc.period is None)


def lift_resolution(ring: TensorRing, pc: ResolutionWindow) -> ResolutionWindow:
    """Lift a compatible base-ring resolution to the tensor ring.

    The lifted window has the same ranks with diagonal component lists
    (first component the base map, the rest zero).  Compatibility is
    verified first; the postcondition that the lifted window passes the
    full check is asserted, not assumed.
    """
    compat = check_compatibility(ring.bimodule, pc, ring.nilpotency)
    if not compat.passed:
        raise IncompatibleBimodule(compat)
    stars = []
    for t, s in enumerate(pc.maps):
        base_map = s.components[0]
        rank_s, rank_t = s.source_rank, s.target_rank
        p = ring.free(rank_s)
        comps = [ModuleMap(p, ring.free(rank_t), base_map.mat)]
        for i in range(1, ring.nilpotency + 1):
            comps.append(ModuleMap.zero(p, ring.model(i, ring.free(rank_t)).result))
        stars.append(StarMorphism(ring, rank_s, rank_t, tuple(comps)))
    lifted = ResolutionWindow(ring, pc.lo, pc.ranks, tuple(stars), period=pc.period)
    report = check_complete(lifted)
    if not report.passed:
        raise InternalCheckError(
            "lifted window fails the checks although compatibility holds"
        )
    return lifted


# -- the Hom-complex oracle ---------------------------------------------------


def hom_complex_oracle(w: ResolutionWindow) -> dict:
    """Defect dimensions of the literal Hom complex into the rank-one
    induced module.

    At each checkable position k the spaces Hom(Ind P^k, Ind R) are solved
    from the raw morphism constraints and the precomposition differentials
    are expressed in those bases; the reported number is
    dim ker(d^(k-1)) - dim(ker(d^(k-1)) meet im(d^k)), which vanishes
    exactly when every functional killing alpha^(k-1) factors through
    alpha^k.  Used as the independent oracle for C3.
    """
    ring = w.ring
    field = ring.algebra.field
    target = ring.ind_free(1)

    hom_cache = {}

    def hom_basis(k):
        """Size and vec columns of the hom_t basis out of Ind P^k."""
        t = w.index.rank_slot(k)
        if t not in hom_cache:
            cols = [vec(h.mat) for h in ring.hom_t(ring.ind_free(w.ranks[t]), target)]
            hom_cache[t] = (len(cols), hstack(cols) if cols else None)
        return hom_cache[t]

    def differential(k):
        """Matrix of precomposition with alpha^k in the chosen bases:
        vec(h alpha^k) = (alpha^k^T (x) I) vec(h), solved for all h at once."""
        src_dim, src_stack = hom_basis(k + 1)
        tgt_dim, tgt_stack = hom_basis(k)
        if not src_dim:
            return Matrix.zeros(field, tgt_dim, 0)
        a = w.assembled(k)
        composed = kron(a.transpose(), Matrix.identity(field, target.x.dim)) @ src_stack
        if tgt_stack is None:
            if not composed.is_zero():
                raise InternalCheckError("composite leaves the morphism space")
            return Matrix.zeros(field, 0, src_dim)
        coords = tgt_stack.solve(composed)
        if coords is None:
            raise InternalCheckError("composite is not a morphism of pairs")
        return coords

    out = {}
    for k in w.positions():
        d_in = differential(k - 1)   # C^k -> C^(k-1)
        d_out = differential(k)      # C^(k+1) -> C^k
        z = d_in.kernel_basis()
        if z.cols == 0:
            out[k] = 0
            continue
        union = hstack([z, d_out]) if d_out.cols else z
        out[k] = union.rank() - d_out.rank()
    return out


# -- witness replay ------------------------------------------------------------


def replay_verdict(w: ResolutionWindow, verdict: Verdict) -> bool:
    """Re-verify a failing verdict through low-level matrix operations.

    Returns True when the stored witness independently demonstrates the
    violation.  Passing or skipped verdicts replay trivially.
    """
    if verdict.status != "fail":
        return True
    label = verdict.label.removeprefix("S")  # SC1 -> C1 etc.
    k = verdict.k
    prev = w.map_at(k - 1)
    next_ = w.map_at(k)
    ring = w.ring
    if label == "C1":
        wit: BlockWitness = verdict.witness
        recomputed = star_compose(next_, prev).components[wit.j - 1].mat
        return recomputed == wit.component and not wit.component.is_zero()
    if label == "C2":
        wit: KernelWitness = verdict.witness
        a_prev = w.assembled(k - 1)
        a_next = w.assembled(k)
        return (a_next @ wit.vector).is_zero() and a_prev.solve(wit.vector) is None
    if label == "C3":
        wit: FunctionalWitness = verdict.witness
        try:
            f_star = _star_from_tuple(ring, prev.target_rank, wit.components)
        except TensorRingError:
            return False
        if any(not c.is_zero() for c in star_compose(f_star, prev).components):
            return False
        return _functional_constraints(ring, next_).solve(_stack_tuple(wit.components)) is None
    raise ResolutionError(f"no replay rule for label {verdict.label}")


def replay_compat_verdict(m: Bimodule, pc: ResolutionWindow, verdict: Verdict) -> bool:
    """Re-verify a failing compatibility verdict from its witness."""
    if verdict.status != "fail":
        return True
    label = verdict.label
    if not label.startswith("F"):
        raise ResolutionError(f"no replay rule for label {label}")
    body = label[1:]
    i = int(body.split("-", 1)[0])
    k = verdict.k
    fprev = pc.map_at(k - 1).components[0]
    fnext = pc.map_at(k).components[0]
    lifted_prev = iterate_functor_map(m, i, fprev)
    lifted_next = iterate_functor_map(m, i, fnext)
    if label.endswith("exact"):
        wit = verdict.witness
        if isinstance(wit, KernelWitness):
            return (lifted_next.mat @ wit.vector).is_zero() and \
                lifted_prev.mat.solve(wit.vector) is None
        if isinstance(wit, BlockWitness):
            return wit.component == lifted_next.mat @ lifted_prev.mat \
                and not wit.component.is_zero()
        return False
    # hom-lift witness: a functional killing fprev that does not factor
    wit: FunctionalWitness = verdict.witness
    phi = wit.components[0]
    if not (phi @ fprev.mat).is_zero():
        return False
    algebra = m.algebra
    target = iterate_functor(m, i, pc.ring.free(1)).result
    basis_out = free_hom_basis(algebra, pc.rank_at(k + 1), target)
    lmat = vec_columns(algebra.field, phi.rows * phi.cols,
                       [g.mat @ fnext.mat for g in basis_out])
    return lmat.solve(vec(phi)) is None
