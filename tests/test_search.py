"""Tests for enumeration, hunting, seeded generation and brute-force
isomorphism search."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tensorgp.resolution as resolution
import tensorgp.search as search
import tensorgp.tensor_ring as tensor_ring
from tensorgp.exactlin import GF, Matrix, batched_rank
from tensorgp.algebra import LeftModule, free_hom_vecs, free_module
from tensorgp.bimodule import zero_bimodule
from tensorgp.tensor_ring import TensorRing
from tensorgp.resolution import (CheckReport, InternalCheckError, check_complete,
                                  check_strongly_gp, strong_report)
from tensorgp.search import (
    BudgetExceeded,
    Catalog,
    CatalogGroup,
    MAX_SLOT_FRAME,
    TableTooLarge,
    hunt_strongly_gp,
    modules_isomorphic_bruteforce,
    random_star,
    random_window,
    reverify_catalog,
    sample_strongly_gp,
)

from helpers import (
    F2,
    F3,
    QQ,
    corner_bimodule,
    dual_numbers,
    enumerate_star,
    ground_algebra,
    path_bimodule,
    product_fields,
    ring_pool,
    simple_over_product,
)


F5 = GF(5)


def dual_ring():
    r = dual_numbers(F2)
    return TensorRing(r, zero_bimodule(r), 0)


def triangular_ring(field=F2):
    m = corner_bimodule(field)
    return TensorRing(m.algebra, m, 1)


def corner_n2_ring(field):
    m = corner_bimodule(field)
    return TensorRing(m.algebra, m, 2)


def dual_n1_ring(field):
    r = dual_numbers(field)
    return TensorRing(r, zero_bimodule(r), 1)


def square_n2_ring(field):
    r = product_fields(field, 2)
    return TensorRing(r, zero_bimodule(r), 2)


def semisimple_ring():
    r = product_fields(F2, 2)
    return TensorRing(r, zero_bimodule(r), 0)


def ground_ring(field=F2):
    r = ground_algebra(field)
    return TensorRing(r, zero_bimodule(r), 0)


def path_ring():
    m = path_bimodule(F2, 3)
    return TensorRing(m.algebra, m, 2)


def exhaustive(ring, max_rank):
    return [(rank, s) for rank in range(max_rank + 1)
            for s in enumerate_star(ring, rank, rank)]


def sampled(ring, max_rank, samples, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        rank = rng.randrange(max_rank + 1)
        out.append((rank, random_star(ring, rank, rank, rng)))
    return out


def reference_keys(ring, candidates):
    """(rank, kernel dimension, verdict) of every candidate, each verdict
    from the full one-periodic check."""
    return [(rank,
             ring.ind_free(rank).x.dim - ring.assemble_star(s).rank(),
             check_strongly_gp(s).passed)
            for rank, s in candidates]


def reference_catalog(ring, candidates):
    groups = {}
    for (rank, s), key in zip(candidates, reference_keys(ring, candidates)):
        if key in groups:
            g = groups[key]
            groups[key] = CatalogGroup(*key, g.count + 1, g.representative)
        else:
            groups[key] = CatalogGroup(*key, 1, tuple(c.mat for c in s.components))
    return Catalog(len(candidates), tuple(groups[k] for k in sorted(groups)))


class TestEnumerate:
    def test_rank_zero_gives_single_zero(self):
        ring = triangular_ring()
        stars = list(enumerate_star(ring, 0, 0))
        assert len(stars) == 1
        assert stars[0].is_zero()

    def test_dual_numbers_rank_one_count(self):
        assert 2 ** dual_ring().slot_frame(1, 1)[0].cols == 4
        assert len(list(enumerate_star(dual_ring(), 1, 1))) == 4

    def test_triangular_rank_one_count_formula(self):
        ring = triangular_ring()
        # 2 ** (dim Hom(P, Q) + dim Hom(P, F(Q))) = 2 ** (2 + 1)
        assert 2 ** ring.slot_frame(1, 1)[0].cols == 8

    def test_deterministic_order(self):
        ring = dual_ring()
        first = [tuple(c.mat.entries for c in s.components)
                 for s in enumerate_star(ring, 1, 1)]
        second = [tuple(c.mat.entries for c in s.components)
                  for s in enumerate_star(ring, 1, 1)]
        assert first == second

    def test_budget_enforced(self):
        ring = triangular_ring()
        with pytest.raises(BudgetExceeded) as err:
            list(enumerate_star(ring, 2, 2, budget=10))
        assert err.value.needed == 2 ** ring.slot_frame(2, 2)[0].cols


class TestHuntBudget:
    def test_refused_hunt_builds_no_frame_past_the_refusing_rank(self):
        # 2 ** 27 candidates at rank 3 pass the budget; a count by slot
        # frames would build and keep the frames of ranks 0 to 10
        ring = triangular_ring()
        with pytest.raises(BudgetExceeded, match="needs at least") as err:
            hunt_strongly_gp(ring, 10)
        assert err.value.needed == 1 + 2 ** 3 + 2 ** 12 + 2 ** 27
        assert all(max(key) <= 3 for key in ring._cache.get("slot_frame", {}))

    @pytest.mark.parametrize("make", [triangular_ring, lambda: corner_n2_ring(F2),
                                      lambda: dual_n1_ring(F2), path_ring],
                             ids=["triangular", "corner-N2", "dual-N1", "path"])
    def test_count_at_the_last_rank_is_exact(self, make):
        ring = make()
        needed = sum(ring.algebra.field.p ** ring.slot_frame(r, r)[0].cols for r in range(3))
        with pytest.raises(BudgetExceeded) as err:
            hunt_strongly_gp(make(), 2, budget=needed - 1)
        assert err.value.needed == needed
        assert str(err.value) == f"enumeration needs {needed} candidates, budget is {needed - 1}"


    @pytest.mark.parametrize("hunt", [lambda ring, rank: hunt_strongly_gp(ring, rank),
                                      lambda ring, rank: sample_strongly_gp(ring, rank, 10, 1)],
                             ids=["exhaustive", "sampled"])
    def test_unit_table_ceiling_is_refused_before_any_table(self, hunt):
        # dim T = 3 and dim R = 2: the slot frame of rank 27 has
        # 27^4 * 9 * 2 entries, and that of rank 26 fits
        ring = triangular_ring()
        assert 26 ** 4 * 18 <= MAX_SLOT_FRAME < 27 ** 4 * 18
        assert search._hunt_dim(ring, 26) == 3
        with pytest.raises(TableTooLarge, match=f"rank 27 has {27 ** 4 * 18} entries"):
            hunt(ring, 27)
        assert not {"slot_frame", "unit_table", "ind_projections"} & set(ring._cache)

    def test_sampled_hunt_stays_small(self):
        # the staging tables of the drawn ranks once peaked at 47 MiB at
        # max_rank 6, and the (r, r) unit tables at 31 MiB at max_rank 12,
        # where the slot frames and the staging now peak at 10 MiB
        ring = triangular_ring()
        tracemalloc.start()
        try:
            sample_strongly_gp(ring, 12, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        # only (r, 1) tables: r dim T columns of (dim T)^2 r entries
        assert all(t.shape == (9 * r, 3 * r) for r, t in ring._cache["unit_table"].items())

class TestHunt:
    def test_semisimple_only_contractible(self):
        cat = hunt_strongly_gp(semisimple_ring(), 1)
        for g in cat.passing():
            assert g.kernel_dim == 0

    def test_dual_numbers_x_map_is_the_nonzero_pass(self):
        cat = hunt_strongly_gp(dual_ring(), 1)
        passing = cat.passing()
        dims = sorted((g.rank, g.kernel_dim) for g in passing)
        assert (1, 1) in dims  # the multiplication-by-x kernel
        one = [g for g in passing if g.rank == 1 and g.kernel_dim == 1]
        assert one[0].count == 1
        assert one[0].representative[0] == Matrix.from_rows(F2, [[0, 0], [1, 0]])

    def test_hereditary_passing_kernels_trivial(self):
        cat = hunt_strongly_gp(triangular_ring(), 1)
        assert cat.total == 9  # 1 candidate at rank 0, 8 at rank 1
        for g in cat.passing():
            assert g.kernel_dim == 0

    def test_catalog_reverifies(self):
        ring = dual_ring()
        cat = hunt_strongly_gp(ring, 1)
        assert reverify_catalog(ring, cat)

    @pytest.mark.parametrize("tamper", [
        lambda g: replace(g, passed=not g.passed),
        lambda g: replace(g, kernel_dim=g.kernel_dim + 1),
    ], ids=["passed", "kernel_dim"])
    def test_tampered_catalog_refused(self, tamper):
        ring = dual_ring()
        cat = hunt_strongly_gp(ring, 1)
        assert len(cat.groups) > 1
        for i, g in enumerate(cat.groups):
            groups = cat.groups[:i] + (tamper(g),) + cat.groups[i + 1:]
            assert not reverify_catalog(ring, replace(cat, groups=groups))

    def test_determinism(self):
        a = hunt_strongly_gp(triangular_ring(), 1)
        b = hunt_strongly_gp(triangular_ring(), 1)
        assert a == b

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            hunt_strongly_gp(triangular_ring(), 2, budget=100)

    def test_negative_max_rank_refused(self):
        with pytest.raises(ValueError):
            hunt_strongly_gp(triangular_ring(), -1)

    def test_sample_negative_max_rank_refused(self):
        with pytest.raises(ValueError):
            sample_strongly_gp(triangular_ring(), -1, 10, seed=1)


class TestStagedClassifier:
    """The hunter stages SC1, SC2 and SC3 in batches; its catalogs must
    equal those built from the full check on every candidate."""

    @pytest.mark.parametrize("make_ring, max_rank", [
        (ground_ring, 2),
        (dual_ring, 1),
        (triangular_ring, 1),
        (path_ring, 1),
        pytest.param(lambda: ground_ring(F3), 2, id="ground_ring_F3-2"),
        pytest.param(lambda: square_n2_ring(F3), 1, id="square_n2_ring_F3-1"),
        pytest.param(lambda: square_n2_ring(F5), 1, id="square_n2_ring_F5-1"),
        pytest.param(lambda: dual_n1_ring(F3), 1, id="dual_n1_ring_F3-1"),
        pytest.param(lambda: dual_n1_ring(F5), 1, id="dual_n1_ring_F5-1"),
        pytest.param(lambda: corner_n2_ring(F3), 1, id="corner_n2_ring_F3-1"),
        pytest.param(lambda: corner_n2_ring(F5), 1, id="corner_n2_ring_F5-1"),
    ])
    def test_hunt_matches_full_check_reference(self, make_ring, max_rank):
        ring = make_ring()
        expected = reference_catalog(ring, exhaustive(ring, max_rank))
        assert hunt_strongly_gp(ring, max_rank) == expected

    def test_sample_matches_full_check_reference(self):
        for field in (F2, F3):
            ring = triangular_ring(field)
            expected = reference_catalog(ring, sampled(ring, 2, 40, seed=3))
            assert sample_strongly_gp(ring, 2, 40, seed=3) == expected

    def test_sample_needs_a_finite_field(self):
        r = ground_algebra(QQ)
        with pytest.raises(ValueError):
            sample_strongly_gp(TensorRing(r, zero_bimodule(r), 0), 1, 10, seed=1)

    def test_exactly_one_full_check_per_group(self, monkeypatch):
        # up to rank 2 SC2 survivors repeat a group on both rings, so a full
        # check on every SC2 survivor would run more often
        calls = []

        def counting(w):
            calls.append(w.maps[0])
            return strong_report(w)

        monkeypatch.setattr(search, "strong_report", counting)
        for ring in (ground_ring(F3), dual_ring()):
            calls.clear()
            catalog = hunt_strongly_gp(ring, 2)
            assert len(calls) == len(catalog.groups)
            assert {tuple(c.mat for c in s.components) for s in calls} == \
                {g.representative for g in catalog.groups}
            # every candidate of a passing group is an SC2 survivor
            assert sum(g.count for g in catalog.passing()) > len(catalog.passing())

    def test_full_check_passing_an_sc1_failure_is_an_internal_error(self, monkeypatch):
        def passing_sc1_failures(w):
            report = strong_report(w)
            if all(v.label != "SC1" for v in report.failures()):
                return report
            return CheckReport(report.scheme, tuple(replace(v, status="pass", witness=None)
                                                    for v in report.verdicts))

        monkeypatch.setattr(search, "strong_report", passing_sc1_failures)
        with pytest.raises(InternalCheckError, match="passes a candidate"):
            hunt_strongly_gp(dual_ring(), 1)

    @staticmethod
    def _pool_blocks(ring):
        """Every candidate up to rank 1, and 200 seeded sparse ones at rank 2,
        whose squares vanish more often than those of uniform draws; on the
        path ring one of them passes SC3."""
        p = ring.algebra.field.p
        rng = random.Random(2)
        blocks = [(rank, block) for rank in (0, 1)
                  for block in search._grid(p, ring.slot_frame(rank, rank)[0].cols)]
        m = ring.slot_frame(2, 2)[0].cols
        blocks.append((2, np.array([[rng.randrange(1, p) if rng.random() < 0.1 else 0
                                     for _ in range(m)] for _ in range(200)], dtype=np.int64)))
        return blocks

    @staticmethod
    def _staged_candidates(ring, blocks):
        """(star, staged SC1, staged kernel dimension, staged SC3) of every
        candidate of the blocks."""
        for rank, coeffs in blocks:
            staged = search._staged(ring, rank, coeffs)
            for c, sc1, kd, sc3 in zip(coeffs.tolist(), *(a.tolist() for a in staged)):
                yield ring.star_at(rank, rank, c), sc1, kd, sc3

    def _cases(self):
        """The pool blocks of every ring, and every rank-2 candidate of the
        corner ring, where 36 of the 76 SC1 survivors pass SC3."""
        cases = [(ring, self._pool_blocks(ring)) for ring in ring_pool((F2, F3))]
        corner = triangular_ring()
        cases.append((corner, [(2, b) for b in search._grid(2, corner.slot_frame(2, 2)[0].cols)]))
        return cases

    def test_staged_sc1_is_the_vanishing_square(self):
        for ring in ring_pool((F2, F3)):
            for s, sc1, _kd, _sc3 in self._staged_candidates(ring, self._pool_blocks(ring)):
                assert sc1 == all(c.is_zero() for c in resolution.star_compose(s, s).components)

    def test_staged_kernel_dims_are_the_assembled_ranks(self):
        # the full check compares them on representatives only
        for ring, blocks in self._cases():
            for s, _sc1, kd, _sc3 in self._staged_candidates(ring, blocks):
                n = ring.ind_free(s.source_rank).x.dim
                assert kd == n - ring.assemble_star(s).rank()

    def test_staged_sc3_matches_check_c3_on_the_sc1_survivors(self):
        seen = set()
        for ring, blocks in self._cases():
            for s, sc1, _kd, sc3 in self._staged_candidates(ring, blocks):
                if sc1:
                    assert sc3 == (resolution.check_c3(s, s)[0] == "pass")
                    seen.add((s.source_rank, sc3))
        assert seen == {(rank, sc3) for rank in (0, 1, 2) for sc3 in (True, False)} - {(0, False)}

    def test_one_unit_table_per_rank(self):
        # the stager reads the rank-1 unit table in place and keeps no table
        # of its own, and C3 reads the (r, 1) one without a table of its own
        for ring in ring_pool((F2, F3)):
            hunt_strongly_gp(ring, 1)
            sample_strongly_gp(ring, 2, 20, seed=1)
            check_complete(random_window(ring, 3, (1, 2)))
            assert not {"hunt_stage", "functional_basis", "unit_assemblies"} & set(ring._cache)
            height = ring.ind_free(1).x.dim
            assert all(t.shape == (height * height * r, height * r)
                       for r, t in ring._cache["unit_table"].items())

    @staticmethod
    def _flip(monkeypatch, which, where):
        """Wrap ``_staged`` so that output ``which`` (0 for SC1, 2 for SC3)
        reads the other way on the candidates selected by ``where``."""
        staged = search._staged

        def flipped(ring, rank, coeffs):
            out = list(staged(ring, rank, coeffs))
            out[which] = out[which] ^ where(rank, coeffs, out)
            return tuple(out)

        monkeypatch.setattr(search, "_staged", flipped)

    def test_corrupted_sc1_stage_is_an_internal_error(self, monkeypatch):
        # the square-zero x map staged as an SC1 failure; x opens its group
        ring = dual_ring()
        assert ring.star_at(1, 1, [0, 1]).components[0].mat == \
            Matrix.from_rows(F2, [[0, 0], [1, 0]])
        self._flip(monkeypatch, 0, lambda rank, coeffs, out:
                   np.array([rank == 1 and c == [0, 1] for c in coeffs.tolist()]))
        with pytest.raises(InternalCheckError, match="staged SC1"):
            hunt_strongly_gp(ring, 1)

    def test_corrupted_sc3_stage_is_an_internal_error(self, monkeypatch):
        # every SC1 survivor of rank 1 staged with the other SC3 verdict,
        # which the x map's full check contradicts
        ring = dual_ring()
        self._flip(monkeypatch, 2, lambda rank, coeffs, out: out[0] & (rank == 1))
        with pytest.raises(InternalCheckError, match="staged SC3"):
            hunt_strongly_gp(ring, 1)

    def test_corrupted_batched_rank_is_an_internal_error(self, monkeypatch):
        def one_too_many(field, arr):
            return batched_rank(field, arr) + 1

        monkeypatch.setattr(search, "batched_rank", one_too_many)
        with pytest.raises(InternalCheckError, match="batched rank"):
            hunt_strongly_gp(dual_ring(), 1)

    def test_warm_ring_builds_no_slot_bases(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return free_hom_vecs(*args)

        monkeypatch.setattr(tensor_ring, "free_hom_vecs", counting)
        monkeypatch.setattr(resolution, "free_hom_vecs", counting)
        ring = triangular_ring()
        first = hunt_strongly_gp(ring, 2)
        assert calls
        calls.clear()
        assert hunt_strongly_gp(ring, 2) == first
        assert calls == []


class TestRandomWindow:
    def test_same_seed_identical(self):
        ring = triangular_ring()
        w1 = random_window(ring, 42, (1, 2))
        w2 = random_window(ring, 42, (1, 2))
        assert w1.ranks == w2.ranks
        assert all(a == b for a, b in zip(w1.maps, w2.maps))

    def test_zero_ranks_zero_window(self):
        ring = dual_ring()
        w = random_window(ring, 7, (0,))
        assert all(s.is_zero() for s in w.maps)

    def test_frozen_seed_one_fixture(self):
        # seed 1 over the triangular corner ring, window-local ranks (1,1,1):
        # generated once and pinned
        ring = triangular_ring()
        w = random_window(ring, 1, (1, 1, 1), periodic=False)
        got = [tuple(c.mat.entries for c in s.components) for s in w.maps]
        assert got == [
            (((0, 0), (0, 0)), ((1, 0),)),
            (((0, 0), (0, 1)), ((1, 0),)),
        ]

    def test_periodic_structure(self):
        ring = dual_ring()
        w = random_window(ring, 5, (1, 2, 1))
        assert w.period == 3
        assert w.ranks == (1, 2, 1, 1)


class TestBruteForceIso:
    def test_equal_modules_isomorphic(self):
        r = product_fields(F2, 2)
        s1 = simple_over_product(r, 0)
        assert modules_isomorphic_bruteforce(s1, s1)

    def test_different_simples_not_isomorphic(self):
        r = product_fields(F2, 2)
        s1 = simple_over_product(r, 0)
        s2 = simple_over_product(r, 1)
        assert not modules_isomorphic_bruteforce(s1, s2)

    def test_dimension_mismatch(self):
        r = product_fields(F2, 2)
        assert not modules_isomorphic_bruteforce(simple_over_product(r, 0), free_module(r, 1))

    def test_free_modules_same_rank(self):
        r = dual_numbers(F2)
        assert modules_isomorphic_bruteforce(free_module(r, 1), free_module(r, 1))

    def test_zero_modules(self):
        r = dual_numbers(F2)
        z1 = LeftModule(r, 0, tuple(Matrix.zeros(F2, 0, 0) for _ in range(2)))
        assert modules_isomorphic_bruteforce(z1, z1)
