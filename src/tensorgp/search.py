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

Classification is staged and runs on blocks of candidates of one rank r,
as products of the ring's two unit tables
(:meth:`~tensorgp.tensor_ring.TensorRing.unit_assemblies`), read in
place; the hunter keeps no table of its own.  Column a of the (r, r) table
is vec(A_a), the assembled matrix of the unit candidate e_a (slot
coordinate a set to 1, the others to 0), and column b of the (r, 1) table
is vec(F_b) for the unit functional tuple f_b out of the same free module.
Assembly is linear, so the coordinates c of a block times the (r, r)
table give the assembled matrices A = sum_a c_a A_a of its candidates, as
transposes, since a column-major vec reshapes row-major to the transpose.
The components of a composite are the first block column of its assembled
matrix, and assembling a composite multiplies the assembled matrices, so:

- SC1 by product.  The components of alpha . alpha are the first block
  column of A A, so SC1 holds iff (A^T)[:d] A^T vanishes mod p, with
  d = dim P: one batched product.
- SC2 by rank.  One batched rank mod p
  (:func:`tensorgp.exactlin.batched_rank`) of the A^T gives the kernel
  dimension kd.  When the square vanishes, im alpha lies in ker alpha, so
  SC2 holds iff 2 kd = n, with n = dim Ind(P).
- SC3 by rank.  Column b of K(alpha), the matrix of f |-> f . alpha on
  the m' frame coordinates, is the first block column of F_b A; read
  row-major, the (r, 1) table is the F_b^T side by side, so K(alpha) of
  every SC1 survivor is one batched product with (A^T)[:d].  When the
  square vanishes, every g . alpha is killed by alpha, so im K(alpha)
  lies in the frame image of ker K(alpha), and SC3 holds iff
  2 rank K(alpha) = m'.

Every candidate's group (rank, kd, verdict) is therefore known from the
stages, and the full one-periodic check runs only on the first candidate
of each new group, its representative.  It must agree with the staged
SC1 and SC2 verdicts, with the staged SC3 verdict whenever SC1 holds,
and its rank with the batched kernel dimension; a disagreement raises
:class:`~tensorgp.resolution.InternalCheckError`.

The coordinate product sums m products of residues, m the number of slot
coordinates, and the others n, so they stay exact in int64 while
max(m, n) * p**2 < 2**63 (see the limits in ``exactlin``).  Candidates
are staged ``_CHUNK`` at a time, so the staging arrays stay bounded
however large the budget.  The unit tables are not: the (r, r) one holds
r^4 (dim T)^3 entries, so a hunt whose ``max_rank`` passes
``MAX_UNIT_TABLE`` entries is refused before any frame or table is built.

The random generators are seeded and reproducible: identical seeds give
byte-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
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
    """The unit table of a hunt's ``max_rank`` passes ``MAX_UNIT_TABLE``."""


DEFAULT_BUDGET = 1 << 20
# the most entries the (r, r) unit table of a hunt's max_rank r may hold:
# r^2 dim T unit candidates, each an assembled matrix of side r dim T, so
# r^4 (dim T)^3 int64 entries, 64 MiB at the ceiling
MAX_UNIT_TABLE = 1 << 23


def count_star(ring: TensorRing, rank_p: int, rank_q: int) -> int:
    """Number of component lists between the induced frees of the given
    ranks: p to the number of slot coordinates."""
    field = ring.algebra.field
    if not field.is_prime:
        raise ValueError("exhaustive enumeration needs a finite field")
    return field.p ** ring.slot_frame(rank_p, rank_q)[0].cols


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
    field = ring.algebra.field
    p = field.p
    units = ring.unit_assemblies(rank, rank)._num
    functionals = ring.unit_assemblies(rank, 1)._num
    m, n, d = units.shape[1], ring.ind_free(rank).x.dim, ring.free(rank).dim
    height, tuples = ring.ind_free(1).x.dim, functionals.shape[1]
    if max(m, n) * p ** 2 >= 1 << 63:
        raise ValueError(f"{max(m, n)} terms per sum overflow the int64 staging")
    count = coeffs.shape[0]
    # a column-major vec reshapes row-major to the transpose: mats[c] = A^T
    mats = (coeffs @ units.T % p).reshape(count, n, n)
    firsts = mats[:, :d]  # the transposed first block columns
    sc1 = ~(firsts @ mats % p).any(axis=(1, 2))
    kernel_dims = n - batched_rank(field, mats)
    sc3 = np.zeros(count, dtype=bool)
    if sc1.any():
        # row-major, the (r, 1) table reads as [F_b^T for every b], side by side
        ks = firsts[sc1] @ functionals.reshape(n, height * tuples)
        sc3[sc1] = 2 * batched_rank(field, ks.reshape(len(ks), d * height, tuples)) == tuples
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
        sc1s, kernel_dims, sc3s = _staged(ring, rank, coeffs)
        total += coeffs.shape[0]
        for c, sc1, kd, sc3 in zip(coeffs.tolist(), sc1s.tolist(), kernel_dims.tolist(),
                                   sc3s.tolist()):
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
    whose unit table passes ``MAX_UNIT_TABLE`` are refused before any frame
    or table is built."""
    if max_rank < 0:
        raise ValueError(f"negative max_rank {max_rank}")
    if not ring.algebra.field.is_prime:
        raise ValueError("hunting needs a finite field")
    dim_t = sum(ring.power_dim(i) for i in range(ring.nilpotency + 1))
    entries = max_rank ** 4 * dim_t ** 3
    if entries > MAX_UNIT_TABLE:
        raise TableTooLarge(f"the unit table of rank {max_rank} has {entries} entries, "
                            f"past the ceiling of {MAX_UNIT_TABLE}")
    return dim_t


def hunt_strongly_gp(ring: TensorRing, max_rank: int,
                     budget: int = DEFAULT_BUDGET) -> Catalog:
    """Classify every one-periodic candidate up to the given rank.

    The catalog groups candidates by (rank, kernel dimension, verdict).
    SC1, SC2 and SC3 are decided in batches; every group's representative
    runs the full one-periodic check.
    Representatives re-verify on reload.
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
    if x.algebra != y.algebra:
        return False
    if x.dim != y.dim:
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
        acc = Matrix.zeros(field, y.dim, x.dim)
        for c, b in zip(coeffs, basis):
            if c:
                acc = acc + b.mat.scale(c)
        if acc.rank() == x.dim:
            return True
    return False
