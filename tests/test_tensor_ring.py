"""Tests for the tensor ring context: induction, stalks, block morphisms,
ring model and morphism spaces."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgp.exactlin import QQ, Matrix, hstack, is_exact_pair, unvec, vec, vstack
from tensorgp.algebra import (
    LeftModule,
    ModuleMap,
    check_module,
    free_module,
    hom_space,
)
from tensorgp.bimodule import graft, iterate_functor_map, tensor_map, zero_bimodule
from tensorgp.resolution import star_compose
from tensorgp.tensor_ring import (
    DecompositionError,
    InducedModule,
    NotNilpotent,
    StarMorphism,
    TModule,
    TMorphism,
    TensorRing,
    TensorRingError,
)

from helpers import (
    F2,
    F3,
    corner_bimodule,
    dual_numbers,
    path_bimodule,
    product_fields,
    random_hom,
    random_module,
    random_scalar,
    reference_hom_t_system,
    reference_star,
    reference_unit_table,
    ring_pool,
    simple_over_product,
    slot_bases,
    x_multiplication,
)


def triangular_ring(field=F2):
    m = corner_bimodule(field)
    return TensorRing(m.algebra, m, 1)


def trivial_ring(field=F2):
    r = dual_numbers(field)
    return TensorRing(r, zero_bimodule(r), 0)


def path_ring(field=F2, vertices=3):
    m = path_bimodule(field, vertices)
    return TensorRing(m.algebra, m, vertices - 1)


class TestTensorRingConstruction:
    def test_nilpotency_enforced(self):
        m = corner_bimodule(F2)
        with pytest.raises(NotNilpotent):
            TensorRing(m.algebra, m, 0)
        TensorRing(m.algebra, m, 1)

    def test_zero_bimodule_every_index(self):
        r = dual_numbers(F2)
        TensorRing(r, zero_bimodule(r), 0)


class TestInd:
    def test_zero_bimodule_ind_is_stalk_shape(self):
        ring = trivial_ring()
        x = ring.free(1)
        t = ring.ind(x)
        assert t.x == x
        assert t.u.shape == (2, 0)

    def test_triangular_ind_free(self):
        ring = triangular_ring()
        t = ring.ind_free(1)
        # dim 2 + dim F(R) = 2 + 1
        assert t.x.dim == 3
        assert t.offsets == (0, 2, 3)
        # u embeds F(Y) into block 1 and is injective there
        assert t.u.rank() == 1

    def test_ind_zero_module(self):
        ring = triangular_ring()
        t = ring.ind(free_module(ring.algebra, 0))
        assert t.x.dim == 0

    def test_forget_dim_is_sum_of_blocks(self):
        ring = path_ring(F2, 3)
        x = ring.free(2)
        t = ring.ind(x)
        expected = sum(ring.model(i, x).result.dim for i in range(ring.nilpotency + 1))
        assert t.x.dim == expected


class TestIndMap:
    def test_ind_projections_invert_the_copy_inclusions(self):
        # the stacked Ind(pi_k) are ind_map of the projections, and
        # [Ind iota_1 | ... | Ind iota_r] is their inverse
        for ring in ring_pool((F2, F3, QQ)):
            d = ring.algebra.dim
            for rank in range(1, 4):
                eye = Matrix.identity(ring.algebra.field, rank * d)
                blocks = [range(k * d, k * d + d) for k in range(rank)]
                pis = [ring.ind_map(ModuleMap(ring.free(rank), ring.free(1), eye.take_rows(b)))
                       for b in blocks]
                iotas = [ring.ind_map(ModuleMap(ring.free(1), ring.free(rank), eye.take_cols(b)))
                         for b in blocks]
                stacked = ring.ind_projections(rank)
                n = ring.ind_free(rank).x.dim
                assert stacked.shape == (n, n)
                assert stacked == vstack([pi.mat for pi in pis])
                assert stacked @ hstack([iota.mat for iota in iotas]) == \
                    Matrix.identity(ring.algebra.field, n)

    def test_identity(self):
        ring = triangular_ring()
        x = ring.free(1)
        f = ModuleMap.identity(x)
        tm = ring.ind_map(f)
        assert tm.mat == Matrix.identity(F2, ring.ind(x).x.dim)

    def test_zero(self):
        ring = triangular_ring()
        x = ring.free(1)
        tm = ring.ind_map(ModuleMap.zero(x, x))
        assert tm.is_zero()

    def test_projection_to_simple_one_kills_higher_block(self):
        ring = triangular_ring()
        r = ring.algebra
        x = ring.free(1)
        s1 = simple_over_product(r, 0)
        f = ModuleMap(x, s1, Matrix.from_rows(F2, [[1, 0]]))
        tm = ring.ind_map(f)
        # F(S1) = 0 so the diagonal is (f, 0): total rank is rank f
        assert tm.mat.rank() == 1


class TestStalkCoker:
    def test_coker_of_stalk_is_identity(self):
        ring = triangular_ring()
        x = ring.free(1)
        ck = ring.coker(ring.stalk(x))
        assert ck.module.dim == x.dim

    def test_coker_of_ind_recovers_base(self):
        for ring in (triangular_ring(), path_ring(F2, 3), trivial_ring()):
            for rank in (0, 1, 2):
                x = ring.free(rank)
                t = ring.ind(x)
                ck = ring.coker(t)
                assert ck.module.dim == x.dim

    def test_stalk_invariant(self):
        ring = triangular_ring()
        s = ring.stalk(simple_over_product(ring.algebra, 1))
        assert s.u.shape == (1, 1)
        assert s.u.is_zero()


class TestAssembleStar:
    def test_single_block_at_index_zero(self):
        ring = trivial_ring()
        x = x_multiplication(F2)
        s = StarMorphism(ring, 1, 1, (x,))
        assert ring.assemble_star(s) == x.mat

    def test_zero_components(self):
        ring = triangular_ring()
        s = StarMorphism.zero(ring, 1, 1)
        assert ring.assemble_star(s).is_zero()

    def test_two_block_lower_triangular_form(self):
        ring = triangular_ring()
        rng = random.Random(3)
        p = ring.free(1)
        fq = ring.model(1, p).result
        a1 = random_hom(p, p, rng)
        a2 = random_hom(p, fq, rng)
        s = StarMorphism(ring, 1, 1, (a1, a2))
        big = ring.assemble_star(s)
        # block (1,1) = a1, (2,1) = a2, (1,2) = 0, (2,2) = F(a1)
        assert big.block(0, 2, 0, 2) == a1.mat
        assert big.block(2, 3, 0, 2) == a2.mat
        assert big.block(0, 2, 2, 3).is_zero()
        fa1 = tensor_map(ring.bimodule, a1, ring.model(1, p), ring.model(1, p))
        assert big.block(2, 3, 2, 3) == fa1.mat

    def test_endpoints_are_the_cached_induced_frees(self):
        ring = triangular_ring()
        s = StarMorphism.zero(ring, 1, 2)
        big = ring.assemble_star(s)
        assert big.shape == (ring.ind_free(2).x.dim, ring.ind_free(1).x.dim)
        TMorphism(ring.ind_free(1), ring.ind_free(2), big)

    def test_assembled_composition_matches_matrix_product(self):
        # composing two component lists through the big matrices stays
        # lower triangular and is again determined by the first column
        ring = path_ring(F3, 3)
        rng = random.Random(9)
        p = ring.free(1)
        comps1 = tuple(random_hom(p, ring.model(i, p).result, rng)
                       for i in range(ring.nilpotency + 1))
        comps2 = tuple(random_hom(p, ring.model(i, p).result, rng)
                       for i in range(ring.nilpotency + 1))
        s1 = StarMorphism(ring, 1, 1, comps1)
        s2 = StarMorphism(ring, 1, 1, comps2)
        big = ring.assemble_star(s2) @ ring.assemble_star(s1)
        composed = TMorphism(ring.ind_free(1), ring.ind_free(1), big)
        back = ring.decompose_star(composed)
        assert ring.assemble_star(back) == big


    def test_assembled_matrices_are_morphisms_of_pairs(self):
        rng = random.Random(41)
        for ring in ring_pool((F2, F3, QQ)):
            for rank_p in range(3):
                for rank_q in range(3):
                    comps = tuple(random_hom(ring.free(rank_p),
                                             ring.model(i, ring.free(rank_q)).result, rng)
                                  for i in range(ring.nilpotency + 1))
                    s = StarMorphism(ring, rank_p, rank_q, comps)
                    TMorphism(ring.ind_free(rank_p), ring.ind_free(rank_q),
                              ring.assemble_star(s))


@lru_cache(maxsize=None)
def fp_pool():
    return tuple(ring_pool((F2, F3)))


def sparse_star(ring, rank_p, rank_q, rng):
    """A component list whose components are each zero with probability
    1/2 and random otherwise."""
    p = ring.free(rank_p)
    comps = []
    for i in range(ring.nilpotency + 1):
        target = ring.model(i, ring.free(rank_q)).result
        zero = rng.random() < 0.5
        comps.append(ModuleMap.zero(p, target) if zero else random_hom(p, target, rng))
    return StarMorphism(ring, rank_p, rank_q, tuple(comps))


def per_cell_assembly(s):
    """The assembled matrix built cell by cell, with nothing skipped:
    block (j, i) is graft(i-1, j-i) . F^(i-1)(component j-i+1) for j >= i
    and zero above the diagonal."""
    ring = s.ring
    m, n = ring.bimodule, ring.nilpotency
    p, q = ring.free(s.source_rank), ring.free(s.target_rank)
    rows = []
    for j in range(1, n + 2):
        cells = []
        for i in range(1, n + 2):
            if j < i:
                cells.append(Matrix.zeros(ring.algebra.field, ring.model(j - 1, q).result.dim,
                                          ring.model(i - 1, p).result.dim))
            else:
                lifted = iterate_functor_map(m, i - 1, s.components[j - i])
                cells.append(graft(m, i - 1, j - i, q).mat @ lifted.mat)
        rows.append(hstack(cells))
    return vstack(rows)


class TestZeroComponents:
    """Zero components become zero blocks in ``assemble_star`` and drop
    out of ``star_compose``; both must equal the formulas that lift
    every component."""

    @settings(max_examples=80, deadline=None)
    @given(index=st.integers(0, 9), ranks=st.tuples(*[st.integers(0, 2)] * 3),
           seed=st.integers(0, 2 ** 32))
    def test_assembly_and_composition_with_zero_components(self, index, ranks, seed):
        ring = fp_pool()[index]
        rng = random.Random(seed)
        a = sparse_star(ring, ranks[1], ranks[2], rng)
        b = sparse_star(ring, ranks[0], ranks[1], rng)
        assert ring.assemble_star(star_compose(a, b)) == \
            ring.assemble_star(a) @ ring.assemble_star(b)
        for s in (a, b):
            assert ring.assemble_star(s) == per_cell_assembly(s)


class TestSlotFrame:
    """The memoised slot frame and ``star_at`` against the sum of scaled
    slot-basis maps (helpers.reference_star)."""

    def test_matches_the_slot_basis_reference(self):
        rng = random.Random(53)
        for ring in ring_pool((F2, F3, QQ)):
            field = ring.algebra.field
            for rank_p in range(3):
                for rank_q in range(3):
                    frame, shapes = ring.slot_frame(rank_p, rank_q)
                    assert ring.slot_frame(rank_p, rank_q)[0] is frame
                    m = sum(len(b) for b in slot_bases(ring, rank_p, rank_q))
                    assert frame.cols == m
                    zero = StarMorphism.zero(ring, rank_p, rank_q)
                    assert list(shapes) == [c.mat.shape for c in zero.components]
                    for a in range(m):
                        unit = reference_star(ring, rank_p, rank_q,
                                              [int(a == b) for b in range(m)])
                        assert frame.col(a) == vstack([vec(c.mat) for c in unit.components])
                    coords = [random_scalar(field, rng) for _ in range(m)]
                    assert ring.star_at(rank_p, rank_q, coords) == \
                        reference_star(ring, rank_p, rank_q, coords)
            # every rank's (r, 1) table, read from the rank-1 one, against
            # the table assembled one slot-basis unit at a time
            for rank in range(4):
                units = ring.unit_table(rank)
                assert ring.unit_table(rank) is units
                assert units == reference_unit_table(ring, rank, 1)

    def test_higher_ranks_assemble_nothing(self, monkeypatch):
        calls = []
        assemble = TensorRing.assemble_star

        def counting(self, s):
            calls.append(s)
            return assemble(self, s)

        monkeypatch.setattr(TensorRing, "assemble_star", counting)
        for ring in ring_pool((F2, F3, QQ)):
            ring.unit_table(1)
            calls.clear()
            ring.unit_table(3)
            assert calls == []


class TestDecomposeStar:
    def test_roundtrip_random(self):
        rng = random.Random(17)
        for ring in (triangular_ring(), path_ring(F2, 3)):
            p = ring.free(1)
            q = ring.free(2)
            for _ in range(5):
                comps = tuple(random_hom(p, ring.model(i, q).result, rng)
                              for i in range(ring.nilpotency + 1))
                s = StarMorphism(ring, 1, 2, comps)
                back = ring.decompose_star(
                    TMorphism(ring.ind_free(1), ring.ind_free(2), ring.assemble_star(s)))
                assert all(a.mat == b.mat for a, b in zip(back.components, s.components))

    def test_identity_decomposes_to_identity_head(self):
        ring = triangular_ring()
        t = ring.ind_free(1)
        ident = TMorphism(t, t, Matrix.identity(F2, t.x.dim))
        s = ring.decompose_star(ident)
        assert s.components[0].mat == Matrix.identity(F2, 2)
        assert s.components[1].is_zero()

    def test_non_morphism_rejected_with_block(self):
        ring = triangular_ring()
        t = ring.ind_free(1)
        # an arbitrary matrix that is not a morphism of pairs
        bad = Matrix.from_rows(F2, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        fake = TMorphism.unchecked(t, t, bad)
        with pytest.raises(DecompositionError) as err:
            ring.decompose_star(fake)
        assert err.value.block is not None

    def test_morphism_space_dimension_matches_component_freedom(self):
        # every morphism of pairs between induced frees is assembled from
        # free component choices: the dimensions must agree
        for ring in (triangular_ring(), path_ring(F2, 3)):
            p = ring.free(1)
            q = ring.free(1)
            homs = ring.hom_t(ring.ind_free(1), ring.ind_free(1))
            expected = sum(len(hom_space(p, ring.model(i, q).result))
                           for i in range(ring.nilpotency + 1))
            assert len(homs) == expected
            for h in homs:
                ring.decompose_star(TMorphism(ring.ind_free(1), ring.ind_free(1), h.mat))


class TestRingModel:
    def test_zero_bimodule_gives_base_algebra(self):
        ring = trivial_ring()
        model = ring.algebra_model()
        assert model.dim == ring.algebra.dim
        assert model.consts == ring.algebra.consts
        assert model.unit == ring.algebra.unit

    def test_triangular_is_upper_triangular_matrices(self):
        ring = triangular_ring()
        model = ring.algebra_model()
        assert model.dim == 3
        # basis: e1, e2 (grade 0), m (grade 1); map to E11, E22, E12
        i1, i2, m12 = 0, 1, 2
        def product(i, j):
            return tuple(model.consts[i][j])
        assert product(i1, m12) == (0, 0, 1)   # E11 E12 = E12
        assert product(m12, i2) == (0, 0, 1)   # E12 E22 = E12
        assert product(m12, i1) == (0, 0, 0)
        assert product(i2, m12) == (0, 0, 0)
        assert product(m12, m12) == (0, 0, 0)

    def test_path_ring_model_validates(self):
        ring = path_ring(F3, 4)
        model = ring.algebra_model()
        assert model.dim == 4 + 3 + 2 + 1


class TestToAlgebraModule:
    def test_stalk_has_grade_zero_action_only(self):
        ring = triangular_ring()
        x = ring.free(1)
        mod = ring.to_algebra_module(ring.stalk(x))
        assert check_module(mod).valid
        # grade-1 basis element (index 2) acts as zero
        assert mod.action[2].is_zero()

    def test_ind_free_is_regular_dimension(self):
        ring = triangular_ring()
        t = ring.ind_free(1)
        mod = ring.to_algebra_module(t)
        model = ring.algebra_model()
        assert mod.dim == model.dim == 3

    def test_zero_module(self):
        ring = triangular_ring()
        t = ring.stalk(free_module(ring.algebra, 0))
        assert ring.to_algebra_module(t).dim == 0

    def test_ind_free_isomorphic_to_regular(self):
        from itertools import product as iproduct

        ring = triangular_ring()
        mod = ring.to_algebra_module(ring.ind_free(1))
        model = ring.algebra_model()
        regular = free_module(model, 1)
        basis = hom_space(regular, mod)
        found = False
        for coeffs in iproduct((0, 1), repeat=len(basis)):
            acc = Matrix.zeros(F2, 3, 3)
            for c, h in zip(coeffs, basis):
                if c:
                    acc = acc + h.mat
            if acc.rank() == 3:
                found = True
                break
        assert found  # the regular representation and Ind(R) are isomorphic


class TestHomT:
    def test_adjunction_dimensions_sample(self):
        rng = random.Random(23)
        checked = 0
        for ring in (triangular_ring(), path_ring(F2, 3)):
            for _ in range(10):
                x = random_module(ring.algebra, rng)
                y = random_module(ring.algebra, rng)
                v = random_hom(ring.model(1, y).result, y, rng)
                t = TModule(ring, y, v.mat)
                lhs = len(ring.hom_t(ring.ind(x), t))
                rhs = len(hom_space(x, y))
                assert lhs == rhs
                checked += 1
        assert checked == 20

    def test_stalk_adjunction_dimensions_sample(self):
        rng = random.Random(29)
        for ring in (triangular_ring(), path_ring(F2, 3)):
            for _ in range(10):
                x = random_module(ring.algebra, rng)
                u = random_hom(ring.model(1, x).result, x, rng)
                t = TModule(ring, x, u.mat)
                y = random_module(ring.algebra, rng)
                lhs = len(ring.hom_t(t, ring.stalk(y)))
                rhs = len(hom_space(ring.coker(t).module, y))
                assert lhs == rhs

    def test_hom_t_agrees_with_ring_model_hom(self):
        rng = random.Random(31)
        ring = triangular_ring()
        for _ in range(5):
            x = random_module(ring.algebra, rng)
            y = random_module(ring.algebra, rng)
            u = random_hom(ring.model(1, x).result, x, rng)
            v = random_hom(ring.model(1, y).result, y, rng)
            t1 = TModule(ring, x, u.mat)
            t2 = TModule(ring, y, v.mat)
            pairwise = len(ring.hom_t(t1, t2))
            model_side = len(hom_space(ring.to_algebra_module(t1), ring.to_algebra_module(t2)))
            assert pairwise == model_side


def _random_pair(ring, rng):
    x = random_module(ring.algebra, rng)
    return TModule(ring, x, random_hom(ring.model(1, x).result, x, rng).mat)


class TestHomTSystem:
    def test_matches_per_unit_reference(self):
        # the Kronecker system has the kernel of the system built one
        # matrix unit at a time, basis and order included, over induced
        # frees of rank 0-2, induced and stalk modules and random pairs
        rng = random.Random(37)
        compared = 0
        for ring in ring_pool((F2, F3, QQ)):
            top = 1 if ring.algebra.field == QQ and ring.nilpotency == 2 else 2
            pairs = [(ring.ind_free(r1), ring.ind_free(r2))
                     for r1 in range(top + 1) for r2 in range(top + 1)]
            for _ in range(2):
                x = random_module(ring.algebra, rng)
                pairs.append((ring.ind(x), _random_pair(ring, rng)))
                pairs.append((_random_pair(ring, rng), ring.stalk(x)))
                pairs.append((_random_pair(ring, rng), _random_pair(ring, rng)))
            for t1, t2 in pairs:
                got = [h.mat for h in ring.hom_t(t1, t2)]
                a, b = t2.x.dim, t1.x.dim
                if a * b == 0:
                    assert got == []
                    continue
                ker = reference_hom_t_system(ring, t1, t2).kernel_basis()
                assert got == [unvec(ring.algebra.field, ker.col(c), a, b)
                               for c in range(ker.cols)]
                for h in got:
                    TMorphism(t1, t2, h)
                compared += 1
        assert compared >= 90

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_four_vertex_path_ring_matches_per_unit_reference(self, field):
        # nilpotency 3: an induced source has four grade blocks, and the
        # structure equation cuts the grade-by-grade linear maps down;
        # stalk sources take the one-block path
        ring = path_ring(field, 4)
        rng = random.Random(43)
        stalks = [ring.stalk(ring.free(1)), ring.stalk(random_module(ring.algebra, rng))]
        pairs = [(ring.ind_free(r), ring.ind_free(1)) for r in range(4)]
        pairs += [(ring.ind_free(1), ring.ind_free(r)) for r in (0, 2)]
        pairs += [(s, ring.ind_free(r)) for s in stalks for r in (1, 2)]
        dims = []
        for t1, t2 in pairs:
            got = [h.mat for h in ring.hom_t(t1, t2)]
            a, b = t2.x.dim, t1.x.dim
            dims.append(len(got))
            if a * b == 0:
                assert got == []
                continue
            ker = reference_hom_t_system(ring, t1, t2).kernel_basis()
            assert got == [unvec(field, ker.col(c), a, b) for c in range(ker.cols)]
        # Hom_T(Ind R^r, Ind R) = Hom_R(R^r, Ind R) has dimension 10 r
        assert dims[:4] == [0, 10, 20, 30]


class TestHomTMemory:
    def test_induced_frees_solve_without_the_stacked_system(self):
        # from Ind(R^3) to Ind(R) over the four-vertex path ring the
        # stacked system, built from dense Kronecker blocks, is 1,380 x
        # 300; one grade block at a time the largest system is 480 x 120.
        # numpy reports its buffers to tracemalloc, so the peak repeats
        import tracemalloc

        ring = path_ring(F3, 4)
        t1, t2 = ring.ind_free(3), ring.ind_free(1)
        tracemalloc.start()
        try:
            basis = ring.hom_t(t1, t2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 30
        assert peak < 2.5e6


class TestExactnessTransfer:
    def test_exactness_agrees_between_pair_level_and_ring_model(self):
        rng = random.Random(37)
        ring = triangular_ring()
        agreements = 0
        for _ in range(100):
            mods = [random_module(ring.algebra, rng) for _ in range(3)]
            ts = []
            for w in mods:
                u = random_hom(ring.model(1, w).result, w, rng)
                ts.append(TModule(ring, w, u.mat))
            homs_fg = ring.hom_t(ts[0], ts[1])
            homs_gh = ring.hom_t(ts[1], ts[2])
            if not homs_fg or not homs_gh:
                continue
            fm = homs_fg[rng.randrange(len(homs_fg))]
            gm = homs_gh[rng.randrange(len(homs_gh))]
            pair_level = is_exact_pair(fm.mat, gm.mat)
            a1 = ring.to_algebra_module(ts[0])
            a2 = ring.to_algebra_module(ts[1])
            a3 = ring.to_algebra_module(ts[2])
            f_alg = ModuleMap(a1, a2, fm.mat)  # same matrices must be linear over the model
            g_alg = ModuleMap(a2, a3, gm.mat)
            assert f_alg.target == g_alg.source
            assert is_exact_pair(f_alg.mat, g_alg.mat) == pair_level
            agreements += 1
        assert agreements >= 30
