"""Validation and indexing shared by the three window kinds: generic
resolution windows, context-ring windows and triangular windows."""

import pytest

from tensorgp.algebra import ModuleMap, free_module
from tensorgp.bimodule import zero_bimodule
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import ResolutionError, ResolutionWindow
from tensorgp.special_rings import (
    MoritaWindow,
    PairBimodule,
    SpecialRingError,
    TriangularWindow,
    block_power_module,
)

from helpers import F2, dual_numbers, full_tensor_pair, x_multiplication

A = dual_numbers(F2)
V = PairBimodule.zero(A, A)


def free_map(n, n1, nonzero):
    """Multiplication by x on the rank-one free module, or a zero map."""
    if nonzero:
        return x_multiplication(F2)
    return ModuleMap.zero(free_module(A, n), free_module(A, n1))


def generic(ranks, nonzero, period):
    ring = TensorRing(A, zero_bimodule(A), 0)
    maps = tuple(StarMorphism(ring, ranks[t], ranks[t + 1],
                              (free_map(ranks[t], ranks[t + 1], nonzero[t]),))
                 for t in range(len(nonzero)))
    return ResolutionWindow(ring, 0, ranks, maps, period=period)


def context_families(ranks, nonzero):
    n = len(nonzero)
    tau = tuple(free_map(ranks[t], ranks[t + 1], nonzero[t]) for t in range(n))
    sigma = tuple(free_map(ranks[t], ranks[t + 1], False) for t in range(n))
    beta = tuple(ModuleMap.zero(free_module(A, ranks[t]), block_power_module(V, ranks[t + 1]))
                 for t in range(n))
    return tau, sigma, beta


def morita(ranks, nonzero, period):
    tau, sigma, beta = context_families(ranks, nonzero)
    return MoritaWindow(0, ranks, ranks, tau, sigma, beta, beta, period=period)


def triangular(ranks, nonzero, period):
    tau, sigma, beta = context_families(ranks, nonzero)
    return TriangularWindow(0, ranks, ranks, tau, sigma, beta, period=period)


def map_at(w, k):
    return w.map_at(k) if isinstance(w, ResolutionWindow) else w.at(k)


KINDS = [(generic, ResolutionError), (morita, SpecialRingError),
         (triangular, SpecialRingError)]

# (ranks, nonzero maps, period) of two-map windows the constructors refuse
REFUSED = {
    "period 0": ((1, 1, 1), (True, True), 0),
    "period n+1": ((1, 1, 1), (True, True), 3),
    "boolean period": ((1, 1, 1), (True, True), True),
    "fractional period": ((1, 1, 1), (True, True), 1.5),
    "ranks not periodic": ((1, 0, 1), (False, False), 1),
    "maps not periodic": ((1, 1, 1), (True, False), 1),
}


@pytest.mark.parametrize("make,error", KINDS, ids=["generic", "morita", "triangular"])
@pytest.mark.parametrize("case", list(REFUSED) + ["index outside"])
def test_window_validation(make, error, case):
    for period in (None, 1, 2):
        make((1, 1, 1), (True, True), period)
    if case == "index outside":
        w = make((1, 1, 1), (True, True), None)
        assert w.positions() == [1]
        map_at(w, 1)
        for k in (-1, 2):
            with pytest.raises(error):
                map_at(w, k)
        return
    ranks, nonzero, period = REFUSED[case]
    make(ranks, nonzero, 2)
    with pytest.raises(error):
        make(ranks, nonzero, period)


@pytest.mark.parametrize("make", [generic, morita, triangular])
def test_periodic_positions_wrap(make):
    w = make((1, 0, 1), (False, False), 2)
    assert w.positions() == [0, 1]
    assert map_at(w, -1) == map_at(w, 1) and map_at(w, 4) == map_at(w, 0)


def test_generic_rank_lookup():
    w = generic((1, 0, 1), (False, False), None)
    assert [w.rank_at(k) for k in range(3)] == [1, 0, 1]
    with pytest.raises(ResolutionError):
        w.rank_at(3)
    assert generic((1, 0, 1), (False, False), 2).rank_at(3) == 0


@pytest.mark.parametrize("make", [morita, triangular])
def test_maps_must_match_the_stored_ranks(make):
    """Rank-one maps stored under rank two are refused, as the generic
    window refuses them, on either side of a context or triangular
    window."""
    make((1, 1), (True,), 1)
    with pytest.raises(SpecialRingError, match="tau map 0"):
        make((2, 2), (True,), 1)
    tau, sigma, beta = context_families((1, 1), (True,))
    with pytest.raises(SpecialRingError, match="sigma map 0"):
        if make is morita:
            MoritaWindow(0, (1, 1), (2, 2), tau, sigma, beta, beta, period=1)
        else:
            TriangularWindow(0, (1, 1), (2, 2), tau, sigma, beta, period=1)


@pytest.mark.parametrize("kind", ["morita", "triangular"])
def test_block_powers_must_match_the_stored_ranks(kind):
    """Every map into a block power has the block dimension of the first
    one: a rank-one power stored under rank two is refused."""
    v = full_tensor_pair(A, A)
    ranks_q = (1, 1, 2)
    tau = (x_multiplication(F2),) * 2
    sigma = tuple(ModuleMap.zero(free_module(A, ranks_q[t]), free_module(A, ranks_q[t + 1]))
                  for t in range(2))
    gamma = tuple(ModuleMap.zero(s.source, block_power_module(V, 1)) for s in sigma)

    def make(powers):
        beta = tuple(ModuleMap.zero(free_module(A, 1), block_power_module(v, n)) for n in powers)
        if kind == "morita":
            return MoritaWindow(0, (1, 1, 1), ranks_q, tau, sigma, beta, gamma)
        return TriangularWindow(0, (1, 1, 1), ranks_q, tau, sigma, beta)

    make(ranks_q[1:])
    with pytest.raises(SpecialRingError, match="beta map 1"):
        make((1, 1))
