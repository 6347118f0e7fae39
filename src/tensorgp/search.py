"""Bounded brute-force enumeration and seeded random generation.

Component lists between induced free modules form an affine space with
one coordinate per basis element of each slot Hom(P, F^(i-1)(Q)); the
enumerator walks that space in lexicographic coordinate order over a
finite field, aborting before work starts if the candidate count exceeds
the budget.  The strongly-periodic hunter classifies every candidate and
returns a catalog deduplicated by dimension signature, with one
re-verifiable representative per signature.  Classification is staged:
SC1 (the square vanishes) decides the candidates that fail it, and only
SC1 survivors and each group's representative run the full one-periodic
check.

The random generators are seeded and reproducible: identical seeds give
byte-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator

from tensorgp.exactlin import Matrix
from tensorgp.algebra import LeftModule, ModuleMap, free_hom_basis, hom_space
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import (
    InternalCheckError,
    ResolutionWindow,
    check_c1,
    check_strongly_gp,
)


class BudgetExceeded(Exception):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} candidates, budget is {budget}")
        self.needed = needed
        self.budget = budget


DEFAULT_BUDGET = 1 << 20


def _slot_bases(ring: TensorRing, rank_p: int, rank_q: int):
    return [free_hom_basis(ring.algebra, rank_p, ring.model(i, ring.free(rank_q)).result)
            for i in range(ring.nilpotency + 1)]


def _star_from_coefficients(ring, rank_p, rank_q, slots, coeffs) -> StarMorphism:
    p = ring.free(rank_p)
    comps = []
    pos = 0
    for i, basis in enumerate(slots):
        target = ring.model(i, ring.free(rank_q)).result
        acc = Matrix.zeros(ring.algebra.field, target.dim, p.dim)
        for b in basis:
            c = coeffs[pos]
            pos += 1
            if c:
                acc = acc + b.mat.scale(c)
        comps.append(ModuleMap(p, target, acc))
    return StarMorphism(ring, rank_p, rank_q, tuple(comps))


def enumerate_star(ring: TensorRing, rank_p: int, rank_q: int,
                   budget: int = DEFAULT_BUDGET) -> Iterator[StarMorphism]:
    """All component lists between the induced frees of the given ranks.

    Deterministic lexicographic order over the slot coordinates; requires
    a finite field; aborts with the exact count required when it exceeds
    the budget.
    """
    field = ring.algebra.field
    if not field.is_prime:
        raise ValueError("exhaustive enumeration needs a finite field")
    slots = _slot_bases(ring, rank_p, rank_q)
    total = sum(len(s) for s in slots)
    count = field.p ** total
    if count > budget:
        raise BudgetExceeded(count, budget)
    for coeffs in iproduct(range(field.p), repeat=total):
        yield _star_from_coefficients(ring, rank_p, rank_q, slots, coeffs)


def count_star(ring: TensorRing, rank_p: int, rank_q: int) -> int:
    """Number of candidates :func:`enumerate_star` would produce."""
    field = ring.algebra.field
    if not field.is_prime:
        raise ValueError("exhaustive enumeration needs a finite field")
    return field.p ** sum(len(s) for s in _slot_bases(ring, rank_p, rank_q))


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


def _classify(ring: TensorRing, candidates) -> Catalog:
    """Group (rank, candidate) pairs by (rank, kernel dimension, verdict).

    SC1 runs first: a candidate whose square does not vanish fails the
    one-periodic check whatever SC2 and SC3 say, so only SC1 survivors get
    the full check.  A failing candidate that opens a new group gets it
    too, and must fail it, so every stored representative is certified by
    the full check.  Representatives are the first candidate of each group.
    """
    groups = {}
    total = 0
    for rank, s in candidates:
        c1_passed, _ = check_c1(s, s)
        passed = c1_passed and check_strongly_gp(s).passed
        kernel_dim = ring.ind_free(rank).x.dim - ring.assemble_star(s).rank()
        key = (rank, kernel_dim, passed)
        g = groups.get(key)
        if g is None:
            if not c1_passed and check_strongly_gp(s).passed:
                raise InternalCheckError("the full check passes a candidate that fails SC1")
            groups[key] = CatalogGroup(rank, kernel_dim, passed, 1,
                                       tuple(c.mat for c in s.components))
        else:
            groups[key] = CatalogGroup(g.rank, g.kernel_dim, g.passed,
                                       g.count + 1, g.representative)
        total += 1
    ordered = tuple(groups[k] for k in sorted(groups))
    return Catalog(total, ordered)


def hunt_strongly_gp(ring: TensorRing, max_rank: int,
                     budget: int = DEFAULT_BUDGET) -> Catalog:
    """Classify every one-periodic candidate up to the given rank.

    The catalog groups candidates by (rank, kernel dimension, verdict).
    Candidates that fail SC1 are decided by it; SC1 survivors and every
    group's representative run the full one-periodic check.
    Representatives re-verify on reload.
    """
    if max_rank < 0:
        raise ValueError(f"negative max_rank {max_rank}")
    needed = sum(count_star(ring, r, r) for r in range(max_rank + 1))
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    return _classify(ring, ((rank, s) for rank in range(max_rank + 1)
                            for s in enumerate_star(ring, rank, rank, budget)))


def reverify_catalog(ring: TensorRing, catalog: Catalog) -> bool:
    """Re-run the one-periodic check on every representative and compare
    with the stored verdict and kernel dimension."""
    for g in catalog.groups:
        p = ring.free(g.rank)
        comps = tuple(ModuleMap(p, ring.model(i, p).result, m)
                      for i, m in enumerate(g.representative))
        s = StarMorphism(ring, g.rank, g.rank, comps)
        report = check_strongly_gp(s)
        kernel_dim = ring.ind_free(g.rank).x.dim - ring.assemble_star(s).rank()
        if report.passed != g.passed or kernel_dim != g.kernel_dim:
            return False
    return True


def sample_strongly_gp(ring: TensorRing, max_rank: int, samples: int,
                       seed: int) -> Catalog:
    """Seeded random variant of :func:`hunt_strongly_gp` for spaces too
    large to exhaust; classification and grouping are identical."""
    if max_rank < 0:
        raise ValueError(f"negative max_rank {max_rank}")
    rng = random.Random(seed)

    def draws():
        for _ in range(samples):
            rank = rng.randrange(max_rank + 1)
            yield rank, random_star(ring, rank, rank, rng)

    return _classify(ring, draws())


# -- seeded random generation --------------------------------------------------


def _random_scalar(field, rng: random.Random):
    if field.is_prime:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-2, 2))


def random_star(ring: TensorRing, rank_p: int, rank_q: int,
                rng: random.Random) -> StarMorphism:
    slots = _slot_bases(ring, rank_p, rank_q)
    coeffs = [_random_scalar(ring.algebra.field, rng)
              for s in slots for _ in range(len(s))]
    return _star_from_coefficients(ring, rank_p, rank_q, slots, coeffs)


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
