"""Bounded brute-force hunting and seeded random generation.

Component lists between induced free modules form a coordinate space with
one coordinate per basis element of each slot Hom(P, F^(i-1)(Q)), read
from the ring's memoised slot frame
(:meth:`~tensorgp.tensor_ring.TensorRing.slot_frame`): the candidate with
coordinates c is :meth:`~tensorgp.tensor_ring.TensorRing.star_at`.  The
strongly-periodic hunter walks that space in lexicographic coordinate
order over a finite field, aborting before work starts if the candidate
count exceeds the budget, classifies every candidate and returns a
catalog deduplicated by dimension signature, with one re-verifiable
representative per signature.

Classification is staged on blocks of candidates of one rank r, from
the ring's rank-1 unit table, whose column b is vec(A_b) for the
assembled matrix A_b of the rank-1 unit e_b
(:meth:`~tensorgp.tensor_ring.TensorRing.unit_table`), and from the
stacked Ind(pi_l) of the projections of R^r onto its copies
(:meth:`~tensorgp.tensor_ring.TensorRing.ind_projections`), the inverse
of I = [Ind iota_1 | ... | Ind iota_r].  A candidate alpha is an r x r
matrix over T: its assembled matrix is I B I^-1, where block (l, k) of B
is the assembled matrix of pi_l . alpha . iota_k.  Their coordinates
C[k, l, b] come from alpha's slot coordinates, slot i by the matrix of
F^i(Pi) that stacks the F^i(pi_l) (a diagonal block of the stacked
Ind(pi_l); below rank 2, Ind(id) = id and the slot coordinates are C),
and B = sum C[k, l, b] E_lk (x) A_b is one product with the rank-1 table.  I^-1 sends the grade-0 columns of Ind(P) to those of B,
copy by copy, so:

- SC1 by product.  A morphism of induced modules is determined by its
  grade-0 columns, so alpha . alpha = 0 iff B times the grade-0 columns
  of B vanishes mod p: one batched product.
- SC2 by rank.  One batched rank mod p
  (:func:`tensorgp.exactlin.batched_rank`) of the B gives the kernel
  dimension kd.  When the square vanishes, im alpha lies in ker alpha, so
  SC2 holds iff 2 kd = n, with n = r dim T = dim Ind(P).
- SC3 by rank.  The functional tuple of copy k and rank-1 unit b
  assembles to A_b Ind(pi_k), so the columns vec(A_b Z_k), Z_k the row
  block k of the grade-0 columns of B, are those of K(alpha), the matrix
  of f |-> f . alpha on the m' = r dim T frame coordinates.  When the
  square vanishes, every g . alpha is killed by alpha, so im K(alpha)
  lies in the frame image of ker K(alpha), and SC3 holds iff
  2 rank K(alpha) = m'.

Every candidate's group (rank, kd, verdict) is therefore known from the
stages, and the full one-periodic check runs only on the first candidate
of each new group, its representative.  It must agree with the staged
SC1 and SC2 verdicts, with the staged SC3 verdict whenever SC1 holds,
and its rank with the batched kernel dimension; a disagreement raises
:class:`~tensorgp.resolution.InternalCheckError`.

No product sums more than max(n, dim T) products of residues, so all stay
exact in int64 while that times p**2 is below 2**63.  Candidates are
staged ``_CHUNK`` at a time, so the largest array a hunt builds is the
slot frame of its ``max_rank``, which the representatives are read from;
a hunt whose frame passes ``MAX_SLOT_FRAME`` entries is refused before
any frame or table is built.

The random generators are seeded and reproducible: identical seeds give
byte-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as iproduct
from typing import Iterator

import numpy as np

from tensorgp.exactlin import Matrix, batched_rank
from tensorgp.algebra import LeftModule, ModuleMap, hom_space
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import CheckReport, InternalCheckError, ResolutionWindow, strong_report


class BudgetExceeded(Exception):
    """``needed`` candidates pass the budget; with ``at_least`` the count
    stopped at the first rank that passed it, so it is a lower bound."""

    def __init__(self, needed: int, budget: int, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(f"enumeration needs {bound}{needed} candidates, budget is {budget}")
        self.needed = needed
        self.budget = budget


class TableTooLarge(Exception):
    """The slot frame of a hunt's ``max_rank`` passes ``MAX_SLOT_FRAME``."""


DEFAULT_BUDGET = 1 << 20
# the most entries the (r, r) slot frame of a hunt's max_rank r may hold:
# r^2 dim T units of r dim R columns and r dim T rows, 64 MiB of int64
MAX_SLOT_FRAME = 1 << 23


@dataclass(frozen=True)
class CatalogGroup:
    """All candidates sharing a dimension signature, with one
    representative kept for re-verification."""

    rank: int
    kernel_dim: int
    passed: bool
    count: int
    representative: tuple  # component matrices


@dataclass(frozen=True)
class Catalog:
    total: int
    groups: tuple

    def passing(self):
        return tuple(g for g in self.groups if g.passed)


_CHUNK = 1024  # candidates staged per batch


def _staged(ring: TensorRing, rank: int, coeffs: np.ndarray):
    """SC1 verdicts, kernel dimensions and SC3 verdicts of a block of
    candidates of one rank, one row of slot coordinates each, from the
    products of the module docstring; SC3 is decided on the SC1 survivors
    only and reads False elsewhere."""
    field, d = ring.algebra.field, ring.algebra.dim
    units = ring.unit_table(1)._num  # column b is vec(A_b), A_b dim T x dim T
    p, height, count = field.p, units.shape[1], coeffs.shape[0]
    n = rank * height
    if max(n, height) * p ** 2 >= 1 << 63:
        raise ValueError(f"{max(n, height)} terms per sum overflow the int64 staging")
    coords = coeffs  # C[c, k, l, b] as it stands below rank 2: one copy at most, Ind(id) = id
    if rank > 1:
        lo = [0, *accumulate(h for h, _ in ring.slot_frame(1, 1)[1])]
        # the coordinates (k, t') of each slot i, with t' over grade i of Ind(P), side by side
        slots = np.concatenate([coeffs[:, rank * rank * a:rank * rank * b].reshape(
            count, rank, rank * (b - a)) for a, b in zip(lo, lo[1:])], axis=2)
        # times the stacked Ind(pi_l), with the F^i(Pi) down its diagonal
        coords = slots @ ring.ind_projections(rank)._num.T % p
    # a column-major vec reshapes row-major to the transpose: B^T[c, (k, y), (l, x)],
    # with the ranks of B, and its grade-0 rows are the transposed grade-0 columns
    mats = (coords.reshape(count, rank, rank, height) @ units.T % p).reshape(
        count, rank, rank, height, height).transpose(0, 1, 3, 2, 4).reshape(count, n, n)
    firsts = mats.reshape(count, rank, height, n)[:, :, :d].reshape(count, rank * d, n)
    sc1 = ~(firsts @ mats % p).any(axis=(1, 2))
    kernel_dims = n - batched_rank(field, mats)
    sc3 = np.zeros(count, dtype=bool)
    if sc1.any():
        # zs[c, z, k, (x, b)] = (A_b Z_k)[x, z], Z_k^T the column block k of the firsts
        live = int(sc1.sum())
        zs = firsts[sc1].reshape(live, rank * d, rank, height) @ units.reshape(height, -1)
        ks = zs.reshape(live, rank * d, rank, height, height).transpose(0, 1, 3, 2, 4)
        sc3[sc1] = 2 * batched_rank(field, ks.reshape(live, rank * d * height, n)) == n
    return sc1, kernel_dims, sc3


def _one_periodic(s: StarMorphism) -> tuple[CheckReport, int]:
    """The one-periodic report of a candidate and its kernel dimension,
    n minus the rank of its assembled matrix, from one window, so that C2
    reads the assembled matrix the rank is taken of."""
    w = ResolutionWindow(s.ring, 0, (s.source_rank, s.source_rank), (s,), period=1)
    return strong_report(w), s.ring.ind_free(s.source_rank).x.dim - w.assembled(0).rank()


def _full_check(s: StarMorphism, kernel_dim: int, sc1: bool, sc2: bool, sc3: bool) -> None:
    """Run the one-periodic check on a candidate and cross-check it
    against its staged verdicts and its batched kernel dimension; a
    disagreement raises :class:`~tensorgp.resolution.InternalCheckError`."""
    report, full_kernel_dim = _one_periodic(s)
    if full_kernel_dim != kernel_dim:
        raise InternalCheckError("the batched rank disagrees with the rank of the assembled matrix")
    if report.passed and not sc2:
        raise InternalCheckError("the full check passes a candidate that fails the staged SC1 or SC2")
    staged = ("pass" if sc1 else "fail", ("pass" if sc2 else "fail") if sc1 else "skip")
    full = (report.status(0, "SC1"), report.status(0, "SC2"))
    if full != staged:
        raise InternalCheckError(f"staged SC1, SC2 {staged} disagree with the full check {full}")
    if sc1 and report.status(0, "SC3") != ("pass" if sc3 else "fail"):
        raise InternalCheckError(f"staged SC3 {'pass' if sc3 else 'fail'} disagrees with "
                                 f"the full check {report.status(0, 'SC3')}")


def _classify(ring: TensorRing, blocks) -> Catalog:
    """Group candidates by (rank, kernel dimension, verdict).

    ``blocks`` yields (rank, coordinate rows) in candidate order.  SC1, SC2
    and SC3 are staged by the products of the module docstring, so every
    candidate's group is known without the full check; it runs on the
    first candidate of each group, which is the group's representative,
    so every stored representative is certified by it.
    """
    counts, reps = {}, {}
    total = 0
    for rank, coeffs in blocks:
        n = ring.ind_free(rank).x.dim
        staged = _staged(ring, rank, coeffs)
        total += coeffs.shape[0]
        for c, sc1, kd, sc3 in zip(coeffs.tolist(), *(a.tolist() for a in staged)):
            sc2 = sc1 and 2 * kd == n
            key = (rank, kd, sc2 and sc3)
            if key not in counts:
                s = ring.star_at(rank, rank, c)
                _full_check(s, kd, sc1, sc2, sc3)
                reps[key] = tuple(comp.mat for comp in s.components)
                counts[key] = 0
            counts[key] += 1
    ordered = tuple(CatalogGroup(*key, counts[key], reps[key]) for key in sorted(counts))
    return Catalog(total, ordered)


def _grid(p: int, m: int) -> Iterator[np.ndarray]:
    """The points of F_p^m in lexicographic order, ``_CHUNK`` rows at a
    time."""
    weights = np.array([p ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    count = p ** m
    for start in range(0, count, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        yield index[:, None] // weights % p


def _hunt_dim(ring: TensorRing, max_rank: int) -> int:
    """dim T, the sum of the power dimensions, for a hunt up to
    ``max_rank``.  A negative rank, a field that is not finite and a rank
    whose slot frame passes ``MAX_SLOT_FRAME`` are refused before any frame
    or table is built."""
    if max_rank < 0:
        raise ValueError(f"negative max_rank {max_rank}")
    if not ring.algebra.field.is_prime:
        raise ValueError("hunting needs a finite field")
    dim_t = sum(ring.power_dim(i) for i in range(ring.nilpotency + 1))
    entries = max_rank ** 4 * dim_t ** 2 * ring.algebra.dim
    if entries > MAX_SLOT_FRAME:
        raise TableTooLarge(f"the slot frame of rank {max_rank} has {entries} entries, "
                            f"past the ceiling of {MAX_SLOT_FRAME}")
    return dim_t


def hunt_strongly_gp(ring: TensorRing, max_rank: int,
                     budget: int = DEFAULT_BUDGET) -> Catalog:
    """Classify every one-periodic candidate up to the given rank.

    The catalog groups candidates by (rank, kernel dimension, verdict).
    SC1, SC2 and SC3 are decided in batches; every group's representative
    runs the full one-periodic check, and re-verifies on reload.
    """
    dim_t = _hunt_dim(ring, max_rank)
    p = ring.algebra.field.p
    needed = 0  # the slot frame of rank r has r^2 dim T coordinates
    for rank in range(max_rank + 1):
        needed += p ** (rank * rank * dim_t)
        if needed > budget:
            raise BudgetExceeded(needed, budget, at_least=rank < max_rank)
    return _classify(ring, ((rank, block) for rank in range(max_rank + 1)
                            for block in _grid(p, ring.slot_frame(rank, rank)[0].cols)))


def reverify_catalog(ring: TensorRing, catalog: Catalog) -> bool:
    """Re-run the one-periodic check on every representative and compare
    with the stored verdict and kernel dimension."""
    for g in catalog.groups:
        p = ring.free(g.rank)
        comps = tuple(ModuleMap(p, ring.model(i, p).result, m)
                      for i, m in enumerate(g.representative))
        report, kernel_dim = _one_periodic(StarMorphism(ring, g.rank, g.rank, comps))
        if report.passed != g.passed or kernel_dim != g.kernel_dim:
            return False
    return True


def sample_strongly_gp(ring: TensorRing, max_rank: int, samples: int,
                       seed: int) -> Catalog:
    """Seeded random variant of :func:`hunt_strongly_gp` for spaces too
    large to exhaust; classification and grouping are identical.

    Each draw is a rank and then its slot coordinates, in the order of
    :func:`random_star`; draws are staged ``_CHUNK`` at a time, per rank
    in draw order.  Needs a finite field.
    """
    _hunt_dim(ring, max_rank)
    field = ring.algebra.field
    rng = random.Random(seed)

    def draws():
        for start in range(0, samples, _CHUNK):
            by_rank = {}
            for _ in range(min(_CHUNK, samples - start)):
                rank = rng.randrange(max_rank + 1)
                m = ring.slot_frame(rank, rank)[0].cols
                by_rank.setdefault(rank, []).append([_random_scalar(field, rng) for _ in range(m)])
            for rank, rows in sorted(by_rank.items()):
                yield rank, np.array(rows, dtype=np.int64)

    return _classify(ring, draws())


# -- seeded random generation --------------------------------------------------


def _random_scalar(field, rng: random.Random):
    if field.is_prime:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-2, 2))


def random_star(ring: TensorRing, rank_p: int, rank_q: int,
                rng: random.Random) -> StarMorphism:
    """The component list with seeded random slot coordinates, drawn in
    slot-major order."""
    m = ring.slot_frame(rank_p, rank_q)[0].cols
    return ring.star_at(rank_p, rank_q, [_random_scalar(ring.algebra.field, rng)
                                         for _ in range(m)])


def random_window(ring: TensorRing, seed: int, ranks,
                  periodic: bool = True) -> ResolutionWindow:
    """Seeded reproducible window.

    With ``periodic`` the rank list describes one period and the window
    wraps; otherwise it is the full rank list of a window-local segment.
    """
    rng = random.Random(seed)
    ranks = tuple(ranks)
    if periodic:
        if not ranks:
            raise ValueError("need at least one rank")
        full = ranks + (ranks[0],)
        maps = tuple(random_star(ring, full[t], full[t + 1], rng)
                     for t in range(len(ranks)))
        return ResolutionWindow(ring, 0, full, maps, period=len(ranks))
    if len(ranks) < 2:
        raise ValueError("a window-local segment needs at least two ranks")
    maps = tuple(random_star(ring, ranks[t], ranks[t + 1], rng)
                 for t in range(len(ranks) - 1))
    return ResolutionWindow(ring, 0, ranks, maps, period=None)


# -- brute-force module isomorphism ---------------------------------------------


def modules_isomorphic_bruteforce(x: LeftModule, y: LeftModule,
                                  budget: int = 1 << 16) -> bool:
    """Search for an invertible map in Hom(x, y) by enumerating the whole
    hom space over a finite field.  Intended for tiny dimensions."""
    if x.algebra != y.algebra or x.dim != y.dim:
        return False
    if x.dim == 0:
        return True
    field = x.algebra.field
    if not field.is_prime:
        raise ValueError("brute-force isomorphism search needs a finite field")
    basis = hom_space(x, y)
    count = field.p ** len(basis)
    if count > budget:
        raise BudgetExceeded(count, budget)
    for coeffs in iproduct(range(field.p), repeat=len(basis)):
        acc = sum((b.mat.scale(c) for c, b in zip(coeffs, basis) if c),
                  Matrix.zeros(field, y.dim, x.dim))
        if acc.rank() == x.dim:
            return True
    return False
