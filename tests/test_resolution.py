"""Tests for the resolution condition checkers, extraction, compatibility,
lifting, and the independent oracles."""

import random

import pytest

from tensorgp.exactlin import QQ, Matrix, is_exact_pair
from tensorgp.algebra import LeftModule, ModuleMap, free_hom_basis, free_module, hom_space
from tensorgp.bimodule import iterate_functor_map, power, tensor_module, zero_bimodule
from tensorgp import search
from tensorgp.tensor_ring import StarMorphism, TModule, TMorphism, TensorRing
from tensorgp.resolution import (
    BlockWitness,
    CheckReport,
    ExtractionRefused,
    FunctionalWitness,
    IncompatibleBimodule,
    InternalCheckError,
    KernelWitness,
    NotCompleteResolution,
    ResolutionError,
    ResolutionWindow,
    check_c1,
    check_c2,
    check_c3,
    check_compatibility,
    check_complete,
    check_strongly_gp,
    complex_window,
    exactness_oracle,
    extract_gp,
    extract_gp_with_inclusion,
    hom_complex_oracle,
    lift_resolution,
    replay_compat_verdict,
    replay_verdict,
    star_compose,
    zero_window,
    _functional_basis,
    _functional_constraints,
)

from helpers import (
    F2,
    F3,
    reference_c3_columns,
    ring_pool,
    augmentation_bimodule,
    corner_bimodule,
    dual_numbers,
    path_bimodule,
    product_fields,
    random_hom,
    random_module,
    x_multiplication,
)


def dual_ring(field=F2):
    r = dual_numbers(field)
    return TensorRing(r, zero_bimodule(r), 0)


def dual_ring_n1(field=F2):
    """Dual numbers with the zero bimodule declared 1-nilpotent."""
    r = dual_numbers(field)
    return TensorRing(r, zero_bimodule(r), 1)


def triangular_ring(field=F2):
    m = corner_bimodule(field)
    return TensorRing(m.algebra, m, 1)


def x_star(ring):
    x = x_multiplication(ring.algebra.field)
    comps = [ModuleMap(ring.free(1), ring.free(1), x.mat)]
    for i in range(1, ring.nilpotency + 1):
        comps.append(ModuleMap.zero(ring.free(1), ring.model(i, ring.free(1)).result))
    return StarMorphism(ring, 1, 1, tuple(comps))


def x_window(ring):
    return ResolutionWindow(ring, 0, (1, 1), (x_star(ring),), period=1)


def random_star(ring, rank_p, rank_q, rng):
    comps = tuple(random_hom(ring.free(rank_p), ring.model(i, ring.free(rank_q)).result, rng)
                  for i in range(ring.nilpotency + 1))
    return StarMorphism(ring, rank_p, rank_q, comps)


def random_periodic_window(ring, ranks, rng):
    """Periodic window with the given one-period rank list."""
    p = len(ranks)
    full_ranks = tuple(ranks) + (ranks[0],)
    maps = tuple(random_star(ring, full_ranks[t], full_ranks[t + 1], rng) for t in range(p))
    return ResolutionWindow(ring, 0, full_ranks, maps, period=p)


class TestStarCompose:
    def test_matches_matrix_product(self):
        rng = random.Random(3)
        for ring in (triangular_ring(), TensorRing(path_bimodule(F3, 3).algebra,
                                                   path_bimodule(F3, 3), 2)):
            for _ in range(10):
                s1 = random_star(ring, 1, 2, rng)
                s2 = random_star(ring, 2, 1, rng)
                lhs = ring.assemble_star(star_compose(s2, s1))
                rhs = ring.assemble_star(s2) @ ring.assemble_star(s1)
                assert lhs == rhs


class TestC1:
    def test_zero_next_passes(self):
        ring = triangular_ring()
        rng = random.Random(5)
        prev = random_star(ring, 1, 1, rng)
        ok, _ = check_c1(prev, StarMorphism.zero(ring, 1, 1))
        assert ok

    def test_x_squared_vanishes(self):
        ring = dual_ring()
        s = x_star(ring)
        ok, _ = check_c1(s, s)
        assert ok

    def test_identity_fails_at_first_block(self):
        ring = triangular_ring()
        p = ring.free(1)
        ident = StarMorphism(ring, 1, 1, (ModuleMap.identity(p),
                                          ModuleMap.zero(p, ring.model(1, p).result)))
        ok, wit = check_c1(ident, ident)
        assert not ok
        assert isinstance(wit, BlockWitness) and wit.j == 1


class TestC2:
    def test_zero_maps_on_nonzero_module_fail(self):
        ring = dual_ring()
        z = StarMorphism.zero(ring, 1, 1)
        status, wit = check_c2(ResolutionWindow(ring, 0, (1, 1), (z,), period=1), 0)
        assert status == "fail"
        assert isinstance(wit, KernelWitness)

    def test_x_period_one_passes(self):
        ring = dual_ring()
        status, _ = check_c2(x_window(ring), 0)
        assert status == "pass"

    def test_skip_when_not_a_complex(self):
        # check_c2 decides exactness alone; check_complete skips it when
        # C1 fails
        ring = dual_ring()
        p = ring.free(1)
        ident = StarMorphism(ring, 1, 1, (ModuleMap.identity(p),))
        report = check_complete(ResolutionWindow(ring, 0, (1, 1), (ident,), period=1))
        assert report.status(0, "C1") == "fail"
        c2 = [v for v in report.verdicts if v.label == "C2"]
        assert [(v.status, v.witness, v.note) for v in c2] == [("skip", None, "C1 failed")]


class TestC3:
    def test_vacuous_on_zero_ranks(self):
        ring = triangular_ring()
        z = StarMorphism.zero(ring, 0, 0)
        ok, _ = check_c3(z, z)
        assert ok

    def test_x_period_one_passes(self):
        ring = dual_ring()
        s = x_star(ring)
        ok, _ = check_c3(s, s)
        assert ok

    def test_x_then_zero_fails_with_functional_witness(self):
        ring = dual_ring()
        s = x_star(ring)
        z = StarMorphism.zero(ring, 1, 1)
        ok, wit = check_c3(s, z)
        assert not ok
        assert isinstance(wit, FunctionalWitness)
        # the witness functional kills multiplication by x
        assert (wit.components[0] @ s.components[0].mat).is_zero()
        assert not wit.components[0].is_zero()


class TestC3Operator:
    def test_columns_match_star_compose_reference(self):
        # memoised assembled functionals times raw components give the
        # columns that star_compose gives one basis tuple at a time
        rng = random.Random(43)
        for ring in ring_pool((F2, F3, QQ)):
            for rank_src in range(3):
                for rank in range(3):
                    through = random_star(ring, rank_src, rank, rng)
                    basis, constraint = reference_c3_columns(ring, through)
                    assert _functional_basis(ring, rank)[0] == basis
                    assert _functional_constraints(ring, through) == constraint


class TestUncheckedBuilders:
    def test_rewrapped_in_validating_constructors(self):
        # free modules, zero and identity maps, hom bases, tensor models and
        # maps, induced modules and the components of star_compose and of
        # enumerated candidates are built unchecked; re-wrapping each in the
        # validating constructors must not raise
        def module(x):
            return LeftModule(x.algebra, x.dim, x.action)

        def hom(f):
            return ModuleMap(f.source, f.target, f.mat)

        rng = random.Random(47)
        for ring in ring_pool((F2, F3, QQ)):
            a, m = ring.algebra, ring.bimodule
            modules = [module(free_module(a, r)) for r in range(3)] + [random_module(a, rng)]
            for x in modules:
                hom(ModuleMap.identity(x))
                ind = ring.ind(x)
                TModule(ring, module(ind.x), ind.u)
                for i in range(1, ring.nilpotency + 1):
                    module(tensor_module(power(m, i).bim, x).result)
                for rank in range(3):
                    for b in free_hom_basis(a, rank, x):
                        hom(b)
                for y in modules:
                    hom(ModuleMap.zero(x, y))
                    for b in hom_space(x, y):
                        hom(b)
                    f = random_hom(x, y, rng)
                    for i in range(1, ring.nilpotency + 1):
                        hom(iterate_functor_map(m, i, f))
            for rank_p in range(3):
                for rank_q in range(3):
                    s1 = search.random_star(ring, rank_p, rank_q, rng)
                    s2 = search.random_star(ring, rank_q, rank_p, rng)
                    for s in (s1, s2, star_compose(s2, s1)):
                        StarMorphism(ring, s.source_rank, s.target_rank,
                                     tuple(hom(c) for c in s.components))


class TestCheckComplete:
    def test_zero_window_passes(self):
        for ring in (dual_ring(), triangular_ring()):
            report = check_complete(zero_window(ring))
            assert report.passed
            assert not report.window_local

    def test_x_window_passes_everything(self):
        report = check_complete(x_window(dual_ring()))
        assert report.passed
        labels = {(v.k, v.label): v.status for v in report.verdicts}
        assert labels[(0, "C1")] == labels[(0, "C2")] == labels[(0, "C3")] == "pass"

    def test_triangular_zero_star_rank_one_fails_c2(self):
        ring = triangular_ring()
        z = StarMorphism.zero(ring, 1, 1)
        w = ResolutionWindow(ring, 0, (1, 1), (z,), period=1)
        report = check_complete(w)
        assert not report.passed
        assert report.status(0, "C2") == "fail"

    def test_window_local_flag(self):
        ring = dual_ring()
        s = x_star(ring)
        w = ResolutionWindow(ring, 0, (1, 1, 1), (s, s), period=None)
        report = check_complete(w)
        assert report.window_local
        assert report.passed

    def test_periodicity_validated(self):
        ring = dual_ring()
        s = x_star(ring)
        z = StarMorphism.zero(ring, 1, 1)
        with pytest.raises(ResolutionError):
            ResolutionWindow(ring, 0, (1, 1, 1), (s, z), period=1)


class TestLemmaEquivalencesSample:
    def test_c1_c2_match_assembled_exactness(self):
        rng = random.Random(11)
        rings = [dual_ring(), triangular_ring(),
                 TensorRing(path_bimodule(F2, 3).algebra, path_bimodule(F2, 3), 2)]
        for ring in rings:
            for _ in range(12):
                w = random_periodic_window(ring, [rng.randrange(3) for _ in
                                                  range(rng.randrange(1, 3))], rng)
                oracle = exactness_oracle(w)
                report = check_complete(w)
                for k in w.positions():
                    paper = (report.status(k, "C1") == "pass"
                             and report.status(k, "C2") == "pass")
                    assert paper == oracle[k], f"disagreement at k={k}"

    def test_c3_matches_hom_complex_defects(self):
        rng = random.Random(13)
        rings = [dual_ring(), triangular_ring()]
        for ring in rings:
            for _ in range(8):
                w = random_periodic_window(ring, [rng.randrange(3) for _ in
                                                  range(rng.randrange(1, 3))], rng)
                defects = hom_complex_oracle(w)
                report = check_complete(w)
                for k in w.positions():
                    assert (report.status(k, "C3") == "pass") == (defects[k] == 0)


class TestExtractGP:
    def test_zero_window_extracts_zero(self):
        ring = triangular_ring()
        t = extract_gp(zero_window(ring), 0)
        assert t.x.dim == 0

    def test_x_window_extracts_socle(self):
        ring = dual_ring()
        t, incl = extract_gp_with_inclusion(x_window(ring), 0)
        assert t.x.dim == 1
        assert t.u.shape == (1, 0)
        # inclusion carries the kernel of multiplication by x
        assert (x_star(ring).components[0].mat @ incl.mat).is_zero()

    def test_refuses_failing_window(self):
        ring = triangular_ring()
        p = ring.free(1)
        canonical = hom_space(p, ring.model(1, p).result)[0]
        shift = StarMorphism(ring, 1, 1, (ModuleMap.zero(p, p), canonical))
        w = ResolutionWindow(ring, 0, (1, 1), (shift,), period=1)
        assert not check_complete(w).passed
        with pytest.raises(ExtractionRefused):
            extract_gp(w, 0)

    def test_refuses_window_local_without_flag(self):
        ring = dual_ring()
        s = x_star(ring)
        w = ResolutionWindow(ring, 0, (1, 1, 1), (s, s), period=None)
        with pytest.raises(ExtractionRefused):
            extract_gp(w, 1)
        t = extract_gp(w, 1, allow_window_local=True)
        assert t.x.dim == 1

    def test_dimension_accounting(self):
        ring = dual_ring()
        w = x_window(ring)
        t = extract_gp(w, 0)
        total = ring.ind_free(1).x.dim
        assert t.x.dim == total - w.assembled(0).rank()


class TestStronglyGP:
    def test_zero_rank_zero_passes(self):
        ring = triangular_ring()
        report = check_strongly_gp(StarMorphism.zero(ring, 0, 0))
        assert report.passed
        assert {v.label for v in report.verdicts} == {"SC1", "SC2", "SC3"}

    def test_x_map_is_strongly_gp(self):
        ring = dual_ring()
        report = check_strongly_gp(x_star(ring))
        assert report.passed

    def test_identity_fails_sc1(self):
        ring = dual_ring()
        ident = StarMorphism(ring, 1, 1, (ModuleMap.identity(ring.free(1)),))
        report = check_strongly_gp(ident)
        assert report.status(0, "SC1") == "fail"

    def test_matches_period_one_window(self):
        rng = random.Random(17)
        ring = triangular_ring()
        for _ in range(20):
            s = random_star(ring, 1, 1, rng)
            report = check_strongly_gp(s)
            w = ResolutionWindow(ring, 0, (1, 1), (s,), period=1)
            base = check_complete(w)
            for sc, c in (("SC1", "C1"), ("SC2", "C2"), ("SC3", "C3")):
                assert report.status(0, sc) == base.status(0, c)


def semisimple_alternating_complex(field=F2):
    """The exact period-2 complex over k x k with right multiplications by
    the two idempotents."""
    r = product_fields(field, 2)
    fr = free_module(r, 1)
    e1 = ModuleMap(fr, fr, Matrix.from_rows(field, [[1, 0], [0, 0]]))
    e2 = ModuleMap(fr, fr, Matrix.from_rows(field, [[0, 0], [0, 1]]))
    return complex_window([e1, e2, e1], period=2)


class TestCompatibility:
    def test_zero_bimodule_trivially_compatible(self):
        ring = dual_ring()
        pc = complex_window([x_multiplication(F2)], period=1)
        report = check_compatibility(zero_bimodule(ring.algebra), pc, 0)
        assert report.passed
        assert report.verdicts == ()

    def test_semisimple_corner_is_compatible(self):
        pc = semisimple_alternating_complex()
        m = corner_bimodule(F2)
        report = check_compatibility(m, pc, 1)
        assert report.passed

    def test_augmentation_bimodule_incompatible_at_level_one(self):
        pc = complex_window([x_multiplication(F2)], period=1)
        m = augmentation_bimodule(F2)
        report = check_compatibility(m, pc, 1)
        assert not report.passed
        fails = report.failures()
        assert any(v.label == "F1-exact" for v in fails)

    def test_base_complex_must_be_complete(self):
        r = dual_numbers(F2)
        fr = free_module(r, 1)
        pc = complex_window([ModuleMap.zero(fr, fr)], period=1)
        with pytest.raises(NotCompleteResolution):
            check_compatibility(zero_bimodule(r), pc, 0)


class TestLift:
    def test_lift_semisimple_corner(self):
        ring = triangular_ring()
        pc = semisimple_alternating_complex()
        lifted = lift_resolution(ring, pc)
        assert check_complete(lifted).passed
        assert lifted.period == 2

    def test_lifted_kernels_are_the_projectives(self):
        ring = triangular_ring()
        lifted = lift_resolution(ring, semisimple_alternating_complex())
        dims = sorted(extract_gp(lifted, k).x.dim for k in lifted.positions())
        assert dims == [1, 2]

    def test_lift_refused_for_incompatible_bimodule(self):
        r = dual_numbers(F2)
        m = augmentation_bimodule(F2)
        pc = complex_window([x_multiplication(F2)], period=1)
        report = check_compatibility(m, pc, 1)
        assert not report.passed
        # the refusal carries the failing level in its message
        err = IncompatibleBimodule(report)
        assert "F1" in str(err)

    def test_lift_zero_bimodule_reproduces_base(self):
        ring = dual_ring_n1()
        pc = complex_window([x_multiplication(F2)], period=1)
        lifted = lift_resolution(ring, pc)
        assert lifted.ranks == (1, 1)
        assert check_complete(lifted).passed

    def test_converse_block_zero_extraction(self):
        # when a lifted window passes, the head components recover a base
        # complex that passes the zero-power checks on its own
        ring = triangular_ring()
        lifted = lift_resolution(ring, semisimple_alternating_complex())
        heads = []
        for s in lifted.maps:
            star = ring.decompose_star(
                TMorphism(ring.ind_free(s.source_rank), ring.ind_free(s.target_rank),
                          ring.assemble_star(s)))
            heads.append(star.components[0])
        base = complex_window(heads, period=lifted.period)
        assert check_complete(base).passed


class TestHomComplexOracle:
    def test_zero_window(self):
        assert hom_complex_oracle(zero_window(dual_ring())) == {0: 0}

    def test_x_window_vanishes(self):
        assert hom_complex_oracle(x_window(dual_ring())) == {0: 0}

    def test_x_then_zero_has_defect(self):
        ring = dual_ring()
        s = x_star(ring)
        z = StarMorphism.zero(ring, 1, 1)
        w = ResolutionWindow(ring, 0, (1, 1, 1), (s, z))
        defects = hom_complex_oracle(w)
        assert defects[1] == 1
        ok, _ = check_c3(s, z)
        assert not ok


class TestWitnessReplay:
    def test_c1_witness_replays(self):
        ring = triangular_ring()
        p = ring.free(1)
        ident = StarMorphism(ring, 1, 1, (ModuleMap.identity(p),
                                          ModuleMap.zero(p, ring.model(1, p).result)))
        w = ResolutionWindow(ring, 0, (1, 1), (ident,), period=1)
        report = check_complete(w)
        for v in report.failures():
            assert replay_verdict(w, v)

    def test_c2_witness_replays(self):
        ring = dual_ring()
        z = StarMorphism.zero(ring, 1, 1)
        w = ResolutionWindow(ring, 0, (1, 1), (z,), period=1)
        for v in check_complete(w).failures():
            assert replay_verdict(w, v)

    def test_c3_witness_replays(self):
        ring = dual_ring()
        s = x_star(ring)
        z = StarMorphism.zero(ring, 1, 1)
        w = ResolutionWindow(ring, 0, (1, 1, 1), (s, z))
        for v in check_complete(w).failures():
            assert replay_verdict(w, v)

    def test_compat_witness_replays(self):
        pc = complex_window([x_multiplication(F2)], period=1)
        m = augmentation_bimodule(F2)
        report = check_compatibility(m, pc, 1)
        for v in report.failures():
            assert replay_compat_verdict(m, pc, v)

    def test_random_failures_replay(self):
        rng = random.Random(23)
        ring = triangular_ring()
        replayed = 0
        for _ in range(15):
            w = random_periodic_window(ring, [rng.randrange(1, 3)], rng)
            for v in check_complete(w).failures():
                assert replay_verdict(w, v)
                replayed += 1
        assert replayed > 10
