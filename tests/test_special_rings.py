"""Tests for the trivial extension, context ring and triangular ring
specializations and their agreement with the generic checkers."""

import random

import pytest

from tensorgp.exactlin import QQ, Matrix
from tensorgp.algebra import ModuleMap, free_module
from tensorgp.bimodule import certify_nilpotent, tensor_bimodule
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.resolution import ResolutionWindow, check_complete
from tensorgp.special_rings import (
    HypothesisViolated,
    MoritaData,
    MoritaWindow,
    PairBimodule,
    SpecialRingError,
    TriangularData,
    TriangularWindow,
    TrivialExtData,
    block_model_iso,
    _block_model_iso,
    _morita_quadruple_columns,
    _morita_slots,
    _triangular_columns,
    _trivext_columns,
    block_power_module,
    embed_pair_bimodule,
    induced_block_map,
    morita_checks,
    morita_to_trivext,
    mu_transport,
    product_algebra,
    triangular_checks,
    trivext_checks,
)

from helpers import (
    F2,
    F3,
    corner_bimodule,
    reference_block_model_iso,
    reference_induced_block_map,
    reference_induced_columns,
    reference_morita_c3_columns,
    reference_triangular_c3_columns,
    reference_trivext_c3_columns,
    corner_pair,
    dual_numbers,
    full_tensor_pair,
    ground_algebra,
    morita_context_algebra,
    product_fields,
    random_free_map,
    random_hom,
    random_morita_data,
    random_morita_window,
    random_triangular_data,
    random_triangular_window,
    verdicts_at,
    x_multiplication,
)


class TestProductAlgebra:
    def test_product_of_fields(self):
        pa = product_algebra(ground_algebra(F2), ground_algebra(F2))
        expected = product_fields(F2, 2)
        assert pa.algebra.consts == expected.consts
        assert pa.algebra.unit == expected.unit

    def test_mixed_product_validates(self):
        pa = product_algebra(dual_numbers(F3), ground_algebra(F3))
        assert pa.algebra.dim == 3


class TestPairBimodule:
    def test_full_tensor_pair_valid(self):
        full_tensor_pair(dual_numbers(F2), ground_algebra(F2))

    def test_corner_embedding_roundtrip(self):
        a = ground_algebra(F2)
        b = ground_algebra(F2)
        v = full_tensor_pair(a, b)  # one-dimensional
        pa = product_algebra(a, b)
        enc = embed_pair_bimodule(pa, v)
        assert enc.dim == 1
        # recovers the corner bimodule over k x k exactly
        m = corner_bimodule(F2)
        assert enc.left_action == m.left_action
        assert enc.right_action == m.right_action

    def test_induced_block_map_functorial(self):
        rng = random.Random(3)
        a = dual_numbers(F2)
        b = product_fields(F2, 2)
        v = full_tensor_pair(a, b)
        for _ in range(10):
            f = random_free_map(b, 2, 1, rng)
            g = random_free_map(b, 1, 2, rng)
            assert induced_block_map(v, f @ g) == induced_block_map(v, f) @ induced_block_map(v, g)
        ident = ModuleMap.identity(free_module(b, 2))
        assert induced_block_map(v, ident) == Matrix.identity(F2, v.dim * 2)


class TestBlockBuilders:
    """The block-matrix builders against the per-basis-vector references,
    over F_2, F_3 and Q, at ranks 0 to 2 (empty slots included: rank 0 and
    the zero pair bimodules)."""

    FIELDS = (F2, F3, QQ)

    def test_induced_block_map_matches_reference(self):
        rng = random.Random(29)
        for field in self.FIELDS:
            for a, b in ((dual_numbers(field), product_fields(field, 2)),
                         (ground_algebra(field), dual_numbers(field))):
                for v in (PairBimodule.zero(a, b), full_tensor_pair(a, b)):
                    for n_src in range(3):
                        for n_tgt in range(3):
                            f = random_free_map(b, n_src, n_tgt, rng)
                            assert induced_block_map(v, f) == reference_induced_block_map(v, f)

    def test_induced_columns_match_reference(self):
        """The closed-form columns vec(U (x) b) and vec(V (x) b) of the
        context slots against one induced block map per basis map."""
        for field in self.FIELDS:
            for a, b in ((dual_numbers(field), product_fields(field, 2)),
                         (ground_algebra(field), dual_numbers(field))):
                for v, u in ((PairBimodule.zero(a, b), PairBimodule.zero(b, a)),
                             (full_tensor_pair(a, b), PairBimodule.zero(b, a)),
                             (PairBimodule.zero(a, b), full_tensor_pair(b, a))):
                    d = MoritaData(a, b, v, u)
                    for rank_p in range(3):
                        for rank_q in range(3):
                            _, u_f1, v_f2 = _morita_slots(d, rank_p, rank_q)
                            assert u_f1 == reference_induced_columns(u, rank_p)
                            assert v_f2 == reference_induced_columns(v, rank_q)

    def test_trivext_columns_match_reference(self):
        from tensorgp.bimodule import zero_bimodule
        from tensorgp.search import random_star

        rng = random.Random(31)
        for field in self.FIELDS:
            m, r = corner_bimodule(field), dual_numbers(field)
            for d in (TrivialExtData(m.algebra, m), TrivialExtData(r, zero_bimodule(r))):
                for rank_src in range(3):
                    for rank in range(3):
                        through = random_star(d.ring, rank_src, rank, rng)
                        assert _trivext_columns(d, through)[:2] == \
                            reference_trivext_c3_columns(d, through)

    def test_morita_columns_match_reference(self):
        rng = random.Random(37)
        for field in self.FIELDS:
            for _ in range(4):
                d = random_morita_data(rng, field)
                for rank_p in range(3):
                    for rank_q in range(3):
                        sp, sq = rng.randrange(3), rng.randrange(3)
                        maps = (random_free_map(d.a, sp, rank_p, rng),
                                random_free_map(d.b, sq, rank_q, rng),
                                random_hom(free_module(d.a, sp),
                                           block_power_module(d.v, rank_q), rng),
                                random_hom(free_module(d.b, sq),
                                           block_power_module(d.u, rank_p), rng))
                        assert _morita_quadruple_columns(d, *maps, rank_p, rank_q)[:2] == \
                            reference_morita_c3_columns(d, *maps, rank_p, rank_q)

    def test_triangular_columns_match_reference(self):
        rng = random.Random(41)
        for field in self.FIELDS:
            for _ in range(4):
                d = random_triangular_data(rng, field)
                for rank_p in range(3):
                    for rank_q in range(3):
                        sp, sq = rng.randrange(3), rng.randrange(3)
                        maps = (random_free_map(d.a, sp, rank_p, rng),
                                random_free_map(d.b, sq, rank_q, rng),
                                random_hom(free_module(d.a, sp),
                                           block_power_module(d.v, rank_q), rng))
                        assert _triangular_columns(d, *maps, rank_p, rank_q)[:2] == \
                            reference_triangular_c3_columns(d, *maps, rank_p, rank_q)


    def test_block_model_iso_matches_reference(self):
        rng = random.Random(47)
        for field in self.FIELDS:
            a = b = product_fields(field, 2)
            two_sided = MoritaData(a, b, corner_pair(a, b, {(0, 0): 1}, field),
                                   corner_pair(b, a, {(1, 1): 1}, field))
            zero = MoritaData(a, b, PairBimodule.zero(a, b), PairBimodule.zero(b, a))
            for d in [two_sided, zero] + [random_morita_data(rng, field) for _ in range(6)]:
                te = morita_to_trivext(d)
                for n in range(3):
                    assert _block_model_iso(te, d, n) == reference_block_model_iso(te, d, n)


class TestValidateOnce:
    """Each fact of the context and triangular paths is checked once: no
    zero pair bimodule, no pairing with a zero side and no transport of
    certified context data is validated again."""

    @staticmethod
    def _count(monkeypatch, names):
        import tensorgp.bimodule as bimodule
        import tensorgp.special_rings as special_rings
        import tensorgp.tensor_ring as tensor_ring

        calls = []
        reals = {name: getattr(bimodule, name) for name in names}
        for module in (bimodule, special_rings, tensor_ring):
            for name, real in reals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name:
                                        calls.append(_name) or _real(*args))
        return calls

    def test_as_morita_neither_checks_nor_tensors(self, monkeypatch):
        rng = random.Random(53)
        datas = [random_triangular_data(rng, field) for field in (F2, F3, QQ) for _ in range(4)]
        calls = self._count(monkeypatch, ("check_bimodule", "tensor_bimodule",
                                          "tensor_bimodule_model"))
        for d in datas:
            m = d.as_morita()
            assert m.u.dim == 0 and m.u.left_alg == d.b and m.u.right_alg == d.a
        assert calls == []

    def test_each_induced_block_map_is_built_once(self, monkeypatch):
        import tensorgp.special_rings as special_rings

        real = special_rings.induced_block_map
        built = []
        monkeypatch.setattr(special_rings, "induced_block_map",
                            lambda pb, f: built.append((id(pb), f)) or real(pb, f))
        rng = random.Random(61)
        total = 0
        for field in (F2, F3, QQ):
            for period in (1, 2):
                # each data object keeps its own maps: count per object, and
                # per side, as the two sides may be equal pair bimodules
                d = random_morita_data(rng, field)
                w = random_morita_window(d, rng, max_rank=2, period=period)
                morita_checks(d, w)
                morita_checks(d, w)
                assert len(built) == len(set(built))
                total += len(built)
                built.clear()
                t = random_triangular_data(rng, field)
                tw = random_triangular_window(t, rng, max_rank=2, period=period)
                triangular_checks(t, tw)
                morita_checks(t.as_morita(), tw.as_morita(t))
                assert len(built) == len(set(built))
                total += len(built)
                built.clear()
        assert total

    def test_transport_ring_is_not_recertified(self, monkeypatch):
        rng = random.Random(59)
        datas = [random_morita_data(rng, field) for field in (F2, F3, QQ) for _ in range(4)]
        a = b = product_fields(F3, 2)
        datas.append(MoritaData(a, b, corner_pair(a, b, {(0, 0): 2}, F3),
                                corner_pair(b, a, {(1, 1): 1}, F3)))
        calls = self._count(monkeypatch, ("check_bimodule", "certify_nilpotent"))
        rings = [morita_to_trivext(d).ring for d in datas]
        assert calls == []
        monkeypatch.undo()
        # what was built unchecked is what the checks would have accepted
        from tensorgp.bimodule import check_bimodule

        for d, ring in zip(datas, rings):
            assert ring.nilpotency == 1 and ring.bimodule.dim == d.u.dim + d.v.dim
            assert check_bimodule(ring.bimodule).valid
            assert certify_nilpotent(ring.bimodule, 1)
            assert TensorRing(ring.algebra, ring.bimodule, 1) == ring

    def test_pairings_are_tensored_only_when_both_sides_are_nonzero(self, monkeypatch):
        a = b = product_fields(F2, 2)
        v = corner_pair(a, b, {(0, 0): 1}, F2)
        u = corner_pair(b, a, {(1, 1): 1}, F2)
        calls = self._count(monkeypatch, ("tensor_bimodule",))
        MoritaData(a, b, v, PairBimodule.zero(b, a))
        MoritaData(a, b, PairBimodule.zero(a, b), u)
        assert calls == []
        MoritaData(a, b, v, u)
        assert calls == ["tensor_bimodule"] * 2

    def test_zero_pair_bimodule_needs_one_field(self):
        with pytest.raises(SpecialRingError):
            PairBimodule.zero(ground_algebra(F2), ground_algebra(F3))
        z = PairBimodule.zero(dual_numbers(F3), ground_algebra(F3))
        assert z == PairBimodule(dual_numbers(F3), ground_algebra(F3), 0, z.left_action,
                                 z.right_action)

    def test_two_sided_corner_datum_agrees_with_its_transport(self):
        for field in (F2, F3, QQ):
            a = b = product_fields(field, 2)
            d = MoritaData(a, b, corner_pair(a, b, {(0, 0): 1}, field),
                           corner_pair(b, a, {(1, 1): 1}, field))
            assert d.u.dim and d.v.dim
            rng = random.Random(61)
            for period in (1, 2, 1, 2):
                w = random_morita_window(d, rng, max_rank=2, period=period)
                direct = morita_checks(d, w)
                generic = check_complete(mu_transport(d, w))
                for k in w.positions():
                    for lab, glab in (("C1'", "C1"), ("C2'", "C2"), ("C3'", "C3")):
                        assert direct.status(k, lab) == generic.status(k, glab)


class TestTrivialExtension:
    def test_hypothesis_enforced(self):
        from helpers import augmentation_bimodule

        with pytest.raises(HypothesisViolated):
            TrivialExtData(dual_numbers(F2), augmentation_bimodule(F2))

    def test_zero_window_passes(self):
        d = TrivialExtData(product_fields(F2, 2).algebra if False else corner_bimodule(F2).algebra,
                           corner_bimodule(F2))
        ring = d.ring
        z = StarMorphism.zero(ring, 0, 0)
        w = ResolutionWindow(ring, 0, (0, 0), (z,), period=1)
        assert trivext_checks(d, w).passed

    def test_identity_window_fails_c1(self):
        d = TrivialExtData(corner_bimodule(F2).algebra, corner_bimodule(F2))
        ring = d.ring
        p = ring.free(1)
        s = StarMorphism(ring, 1, 1, (ModuleMap.identity(p),
                                      ModuleMap.zero(p, ring.model(1, p).result)))
        w = ResolutionWindow(ring, 0, (1, 1), (s,), period=1)
        report = trivext_checks(d, w)
        assert report.status(0, "C1") == "fail"

    def test_matches_generic_on_random_windows(self):
        rng = random.Random(7)
        d = TrivialExtData(corner_bimodule(F2).algebra, corner_bimodule(F2))
        ring = d.ring
        for _ in range(25):
            rank = rng.randrange(3)
            comps = tuple(random_hom(ring.free(rank), ring.model(i, ring.free(rank)).result, rng)
                          for i in range(2))
            s = StarMorphism(ring, rank, rank, comps)
            w = ResolutionWindow(ring, 0, (rank, rank), (s,), period=1)
            special = trivext_checks(d, w)
            generic = check_complete(w)
            for label in ("C1", "C2", "C3"):
                assert special.status(0, label) == generic.status(0, label)


class TestMoritaData:
    def test_zero_corners_accepted(self):
        a, b = dual_numbers(F2), ground_algebra(F2)
        MoritaData(a, b, PairBimodule.zero(a, b), PairBimodule.zero(b, a))

    def test_nonvanishing_pairing_rejected(self):
        a = b = ground_algebra(F2)
        v = full_tensor_pair(a, b)
        u = full_tensor_pair(b, a)
        # over a field, v (x) u and u (x) v are nonzero
        with pytest.raises(HypothesisViolated):
            MoritaData(a, b, v, u)

    def test_disjoint_corners_accepted(self):
        a = b = product_fields(F2, 2)
        v = corner_pair(a, b, {(0, 0): 1}, F2)
        u = corner_pair(b, a, {(1, 1): 1}, F2)
        MoritaData(a, b, v, u)

    def test_triangular_recovery(self):
        # a = b = k, v one-dimensional, u = 0: the trivial extension is the
        # corner bimodule over k x k on the nose
        a = b = ground_algebra(F2)
        d = MoritaData(a, b, full_tensor_pair(a, b), PairBimodule.zero(b, a))
        te = morita_to_trivext(d)
        m = corner_bimodule(F2)
        # basis order (u, v) puts the single v generator alone
        assert te.m.dim == 1
        assert te.m.left_action == m.left_action
        assert te.m.right_action == m.right_action


class TestContextAlgebraIso:
    def test_tables_agree_under_coordinate_bijection(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_morita_data(rng, F2)
            direct = morita_context_algebra(d)
            te = morita_to_trivext(d)
            model = te.ring.algebra_model()
            assert direct.dim == model.dim
            assert direct.consts == model.consts
            assert direct.unit == model.unit

    def test_triangular_two_by_two(self):
        a = b = ground_algebra(F2)
        d = MoritaData(a, b, full_tensor_pair(a, b), PairBimodule.zero(b, a))
        lam = morita_context_algebra(d)
        assert lam.dim == 3


class TestMoritaChecks:
    def test_zero_window_passes(self):
        a = b = ground_algebra(F2)
        d = MoritaData(a, b, full_tensor_pair(a, b), PairBimodule.zero(b, a))
        w = MoritaWindow(0, (0, 0), (0, 0),
                         (random_free_map(a, 0, 0, random.Random(0)),),
                         (random_free_map(b, 0, 0, random.Random(0)),),
                         (ModuleMap.zero(free_module(a, 0), block_power_module(d.v, 0)),),
                         (ModuleMap.zero(free_module(b, 0), block_power_module(d.u, 0)),),
                         period=1)
        assert morita_checks(d, w).passed

    def test_degenerate_corner_reduces_to_core_case(self):
        # u = v = 0, a = dual numbers, b = k: the window is the plain
        # multiplication-by-x complex on the a side and zero on the b side
        a, b = dual_numbers(F2), ground_algebra(F2)
        d = MoritaData(a, b, PairBimodule.zero(a, b), PairBimodule.zero(b, a))
        x = x_multiplication(F2)
        w = MoritaWindow(0, (1, 1), (0, 0), (x,),
                         (ModuleMap.zero(free_module(b, 0), free_module(b, 0)),),
                         (ModuleMap.zero(free_module(a, 1), block_power_module(d.v, 0)),),
                         (ModuleMap.zero(free_module(b, 0), block_power_module(d.u, 1)),),
                         period=1)
        report = morita_checks(d, w)
        assert report.passed

    def test_bad_differential_fails_c1(self):
        a, b = dual_numbers(F2), ground_algebra(F2)
        d = MoritaData(a, b, PairBimodule.zero(a, b), PairBimodule.zero(b, a))
        ident = ModuleMap.identity(free_module(a, 1))
        w = MoritaWindow(0, (1, 1), (0, 0), (ident,),
                         (ModuleMap.zero(free_module(b, 0), free_module(b, 0)),),
                         (ModuleMap.zero(free_module(a, 1), block_power_module(d.v, 0)),),
                         (ModuleMap.zero(free_module(b, 0), block_power_module(d.u, 1)),),
                         period=1)
        report = morita_checks(d, w)
        assert report.status(0, "C1'") == "fail"

    def test_beta_into_a_block_power_of_the_wrong_rank_refused(self):
        # ranks_q = (2, 2) but beta lands in the rank-one power of the
        # four-dimensional v; the window alone reads a block dimension of 2
        # off beta and accepts it
        a, b = dual_numbers(F2), product_fields(F2, 2)
        d = MoritaData(a, b, full_tensor_pair(a, b), PairBimodule.zero(b, a))
        assert d.v.dim == 4
        rng = random.Random(5)
        w = MoritaWindow(0, (2, 2), (2, 2), (random_free_map(a, 2, 2, rng),),
                         (random_free_map(b, 2, 2, rng),),
                         (random_hom(free_module(a, 2), block_power_module(d.v, 1), rng),),
                         (ModuleMap.zero(free_module(b, 2), block_power_module(d.u, 2)),),
                         period=1)
        for check in (morita_checks, mu_transport):
            with pytest.raises(SpecialRingError, match="beta map 0"):
                check(d, w)

    def test_repeated_maps_are_one_periodic(self, monkeypatch):
        # a window with no period that holds the same maps twice builds one
        # quadruple constraint at that position and reports as the period-1
        # window; at the next position the ranks grow, so its image is
        # built too
        import tensorgp.special_rings as special_rings

        real = special_rings._morita_quadruple_columns
        ranks_built = []
        monkeypatch.setattr(special_rings, "_morita_quadruple_columns",
                            lambda d, *args: ranks_built.append(args[4:]) or real(d, *args))

        rng = random.Random(67)
        seen, built_out = set(), 0
        for field in (F2, F3, QQ):
            for _ in range(6):
                d = random_morita_data(rng, field)
                w = random_morita_window(d, rng, max_rank=2, period=1)
                r = w.ranks_p[0]
                grow = (random_free_map(d.a, r, r + 1, rng), random_free_map(d.b, r, r + 1, rng),
                        random_hom(free_module(d.a, r), block_power_module(d.v, r + 1), rng),
                        random_hom(free_module(d.b, r), block_power_module(d.u, r + 1), rng))
                ranks = (r, r, r, r + 1)
                doubled = MoritaWindow(0, ranks, ranks, *(
                    family * 2 + (g,) for family, g in zip((w.tau, w.sigma, w.beta, w.gamma), grow)))
                ranks_built.clear()
                report = morita_checks(d, doubled)
                # the image is built only where some quadruple kills the maps
                assert ranks_built in ([(r, r)] * 2, [(r, r)] * 2 + [(r + 1, r + 1)])
                built_out += len(ranks_built) == 3
                periodic = morita_checks(d, w)
                assert verdicts_at(report, 1) == verdicts_at(periodic, 0)
                seen.add(periodic.status(0, "C3'"))
        assert seen == {"pass", "fail"} and built_out


class TestMuTransport:
    def test_zero_data_zero_window(self):
        a = b = ground_algebra(F2)
        d = MoritaData(a, b, PairBimodule.zero(a, b), PairBimodule.zero(b, a))
        rng = random.Random(0)
        w = random_morita_window(d, rng, max_rank=0)
        tw = mu_transport(d, w)
        assert tw.ranks == (0, 0)

    def test_block_model_iso_is_module_iso(self):
        rng = random.Random(13)
        for _ in range(10):
            d = random_morita_data(rng, F2)
            te = morita_to_trivext(d)
            for n in (0, 1, 2):
                xi = block_model_iso(te, d, n)
                assert xi.rows == xi.cols == n * (d.u.dim + d.v.dim)

    def test_transported_verdicts_match_direct(self):
        rng = random.Random(17)
        trials = 0
        for _ in range(40):
            d = random_morita_data(rng, F2)
            w = random_morita_window(d, rng, max_rank=2)
            tw = mu_transport(d, w)
            direct = morita_checks(d, w)
            generic = check_complete(tw)
            for k in w.positions():
                for lab, glab in (("C1'", "C1"), ("C2'", "C2"), ("C3'", "C3")):
                    assert direct.status(k, lab) == generic.status(k, glab), (
                        f"{lab} at k={k}")
            trials += 1
        assert trials == 40

    def test_transports_share_one_ring(self):
        rng = random.Random(23)
        d = random_morita_data(rng, F3)
        w1 = random_morita_window(d, rng, max_rank=2)
        w2 = random_morita_window(d, rng, max_rank=2)
        first, second, again = mu_transport(d, w1), mu_transport(d, w2), mu_transport(d, w1)
        assert first.ring is second.ring is again.ring is morita_to_trivext(d).ring
        unshared = mu_transport(MoritaData(d.a, d.b, d.v, d.u), w1)
        assert unshared.ring is not first.ring
        assert check_complete(again) == check_complete(first) == check_complete(unshared)

    def test_unequal_ranks_rejected(self):
        a = b = ground_algebra(F2)
        d = MoritaData(a, b, full_tensor_pair(a, b), PairBimodule.zero(b, a))
        w = MoritaWindow(0, (1, 1), (0, 0),
                         (random_free_map(a, 1, 1, random.Random(1)),),
                         (random_free_map(b, 0, 0, random.Random(1)),),
                         (ModuleMap.zero(free_module(a, 1), block_power_module(d.v, 0)),),
                         (ModuleMap.zero(free_module(b, 0), block_power_module(d.u, 1)),),
                         period=1)
        with pytest.raises(SpecialRingError):
            mu_transport(d, w)


class TestTriangularChecks:
    def test_zero_data_passes(self):
        d = random_triangular_data(random.Random(0), F2)
        w = random_triangular_window(d, random.Random(0), max_rank=0)
        assert triangular_checks(d, w).passed

    def test_core_case_embedding(self):
        # a = dual numbers, b = k, v = 0: multiplication by x upstairs
        a, b = dual_numbers(F2), ground_algebra(F2)
        d = TriangularData(a, b, PairBimodule.zero(a, b))
        x = x_multiplication(F2)
        zero_q = random_free_map(b, 0, 0, random.Random(0))
        w = TriangularWindow(0, (1, 1), (0, 0), (x,), (zero_q,),
                             (ModuleMap.zero(free_module(a, 1), block_power_module(d.v, 0)),),
                             period=1)
        report = triangular_checks(d, w)
        assert report.passed

    def test_zero_sigma_on_nonzero_ranks_fails_ii(self):
        a, b = ground_algebra(F2), ground_algebra(F2)
        d = TriangularData(a, b, PairBimodule.zero(a, b))
        zero_p = random_free_map(a, 0, 0, random.Random(0))
        sigma = ModuleMap.zero(free_module(b, 1), free_module(b, 1))
        w = TriangularWindow(0, (0, 0), (1, 1), (zero_p,), (sigma,),
                             (ModuleMap.zero(free_module(a, 0), block_power_module(d.v, 1)),),
                             period=1)
        report = triangular_checks(d, w)
        assert report.status(0, "(ii) exact") == "fail"

    def test_beta_into_a_block_power_of_the_wrong_rank_refused(self):
        a, b = dual_numbers(F2), product_fields(F2, 2)
        d = TriangularData(a, b, full_tensor_pair(a, b))
        rng = random.Random(5)
        w = TriangularWindow(0, (1, 1), (2, 2), (random_free_map(a, 1, 1, rng),),
                             (random_free_map(b, 2, 2, rng),),
                             (random_hom(free_module(a, 1), block_power_module(d.v, 1), rng),),
                             period=1)
        with pytest.raises(SpecialRingError, match="beta map 0"):
            triangular_checks(d, w)

    def test_matches_morita_at_zero_corner(self):
        rng = random.Random(19)
        for _ in range(40):
            d = random_triangular_data(rng, F2)
            w = random_triangular_window(d, rng, max_rank=2)
            tri = triangular_checks(d, w)
            md = d.as_morita()
            mw = w.as_morita(d)
            mor = morita_checks(md, mw)
            for k in w.positions():
                c1 = all(tri.status(k, lab) == "pass"
                         for lab in ("(i) complex", "(ii) complex", "(iii)"))
                assert (mor.status(k, "C1'") == "pass") == c1
                mor2 = mor.status(k, "C2'")
                if mor2 == "skip":
                    assert tri.status(k, "(ii) exact") == "skip"
                    assert tri.status(k, "(iv)") == "skip"
                else:
                    c2 = (tri.status(k, "(ii) exact") == "pass"
                          and tri.status(k, "(iv)") == "pass")
                    assert (mor2 == "pass") == c2
                c3 = (tri.status(k, "(i) lift") == "pass"
                      and tri.status(k, "(v)") == "pass")
                assert (mor.status(k, "C3'") == "pass") == c3
