"""Tests for bimodules, tensor products over the base ring and tensor powers."""

import random

import pytest

from tensorgp.exactlin import Matrix
from tensorgp.algebra import LeftModule, ModuleMap, free_module, hom_space
from tensorgp.bimodule import (
    Bimodule,
    BimoduleError,
    InvalidBimodule,
    ModelMismatch,
    certify_nilpotent,
    concat_mult,
    direct_sum_bimodule,
    graft,
    graft_inverse,
    iterate_functor,
    iterate_functor_map,
    power,
    power_dims,
    regular_bimodule,
    tensor_bimodule,
    tensor_bimodule_model,
    tensor_map,
    tensor_module,
    zero_bimodule,
)
from tensorgp.tensor_ring import TensorRing

from helpers import (
    F2,
    F3,
    augmentation_bimodule,
    corner_bimodule,
    dual_numbers,
    ground_algebra,
    nested_model,
    path_bimodule,
    product_fields,
    reference_concat_mult,
    reference_graft,
    ring_pool,
    simple_over_product,
    x_multiplication,
)


class TestBimoduleAxioms:
    def test_regular_valid(self):
        regular_bimodule(dual_numbers(F2))

    def test_corner_valid(self):
        corner_bimodule(F3)

    def test_noncommuting_rejected(self):
        r = product_fields(F2, 2)
        one = Matrix.from_rows(F2, [[1]])
        zero = Matrix.zeros(F2, 1, 1)
        # left and right actions both through e1, then altered to clash on laws
        with pytest.raises(InvalidBimodule):
            Bimodule(r, 1, (one, one), (zero, one))


class TestTensorModule:
    def test_zero_bimodule_kills_everything(self):
        r = dual_numbers(F2)
        t = tensor_module(zero_bimodule(r), free_module(r, 2))
        assert t.result.dim == 0

    def test_corner_of_simple_two_gives_simple_one(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        s2 = simple_over_product(r, 1)
        t = tensor_module(m, s2)
        assert t.result.dim == 1
        assert t.result.action[0] == Matrix.from_rows(F2, [[1]])  # e1 acts as 1
        assert t.result.action[1].is_zero()

    def test_corner_of_simple_one_vanishes(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        s1 = simple_over_product(r, 0)
        assert tensor_module(m, s1).result.dim == 0

    def test_regular_tensor_free_is_free_dim(self):
        r = dual_numbers(F3)
        m = regular_bimodule(r)
        x = free_module(r, 2)
        t = tensor_module(m, x)
        assert t.result.dim == x.dim

    def test_projection_section_split(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        t = tensor_module(m, x)
        assert t.projection @ t.section == Matrix.identity(F2, t.result.dim)


class TestTensorMap:
    def test_identity_goes_to_identity(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        fx = tensor_module(m, x)
        f = ModuleMap.identity(x)
        assert tensor_map(m, f, fx, fx).mat == Matrix.identity(F2, fx.result.dim)

    def test_zero_goes_to_zero(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        fx = tensor_module(m, x)
        f = ModuleMap.zero(x, x)
        assert tensor_map(m, f, fx, fx).is_zero()

    def test_projection_to_simple_two(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        s2 = simple_over_product(r, 1)
        f = ModuleMap(x, s2, Matrix.from_rows(F2, [[0, 1]]))
        fx = tensor_module(m, x)
        fs = tensor_module(m, s2)
        ff = tensor_map(m, f, fx, fs)
        # F(R) and F(S2) are both one-dimensional here and F(f) is onto
        assert fx.result.dim == 1 and fs.result.dim == 1
        assert ff.mat == Matrix.from_rows(F2, [[1]])

    def test_model_mismatch_rejected(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        s2 = simple_over_product(r, 1)
        fx = tensor_module(m, x)
        f = ModuleMap.identity(x)
        with pytest.raises(ModelMismatch):
            tensor_map(m, f, fx, tensor_module(m, s2))

    def test_functoriality_randomized(self):
        rng = random.Random(41)
        r = product_fields(F3, 2)
        m = corner_bimodule(F3)
        mods = [free_module(r, 1), free_module(r, 2), simple_over_product(r, 0),
                simple_over_product(r, 1)]
        trials = 0
        while trials < 200:
            x, y, z = (mods[rng.randrange(len(mods))] for _ in range(3))
            homs_xy = hom_space(x, y)
            homs_yz = hom_space(y, z)
            if not homs_xy or not homs_yz:
                trials += 1
                continue
            f = homs_xy[rng.randrange(len(homs_xy))]
            g = homs_yz[rng.randrange(len(homs_yz))]
            fx, fy, fz = (tensor_module(m, w) for w in (x, y, z))
            lhs = tensor_map(m, g @ f, fx, fz)
            rhs = tensor_map(m, g, fy, fz) @ tensor_map(m, f, fx, fy)
            assert lhs.mat == rhs.mat
            # additivity on the (f, f) diagonal when endpoints allow it
            if x == y:
                h = hom_space(x, y)[0]
                s = tensor_map(m, f + h, fx, fy)
                assert s.mat == (tensor_map(m, f, fx, fy) + tensor_map(m, h, fx, fy)).mat
            trials += 1


class TestTensorBimodule:
    def test_zero_factor(self):
        r = dual_numbers(F2)
        z = zero_bimodule(r)
        assert tensor_bimodule(regular_bimodule(r), z).dim == 0

    def test_corner_squares_to_zero(self):
        m = corner_bimodule(F2)
        assert tensor_bimodule(m, m).dim == 0

    def test_regular_tensor_regular_is_regular_dim(self):
        for field in (F2, F3):
            r = dual_numbers(field)
            m = regular_bimodule(r)
            assert tensor_bimodule(m, m).dim == r.dim


class TestNilpotency:
    def test_zero_is_zero_nilpotent(self):
        r = dual_numbers(F2)
        assert certify_nilpotent(zero_bimodule(r), 0)

    def test_corner_is_one_nilpotent(self):
        m = corner_bimodule(F2)
        assert not certify_nilpotent(m, 0)
        assert certify_nilpotent(m, 1)

    def test_regular_never_nilpotent(self):
        r = product_fields(F2, 2)
        m = regular_bimodule(r)
        dims = power_dims(m, 4)
        assert dims == [2, 2, 2, 2, 2]
        assert not any(certify_nilpotent(m, n) for n in range(4))

    def test_path_bimodule_grades(self):
        m = path_bimodule(F2, 3)
        assert power_dims(m, 3) == [3, 2, 1, 0]
        assert certify_nilpotent(m, 2)
        assert not certify_nilpotent(m, 1)

    def test_augmentation_not_nilpotent(self):
        m = augmentation_bimodule(F2)
        assert power_dims(m, 3) == [2, 1, 1, 1]
        assert not certify_nilpotent(m, 3)


class TestIterateFunctor:
    def test_zeroth_is_identity(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        x = free_module(r, 1)
        t = iterate_functor(m, 0, x)
        assert t.result is x
        assert t.projection == Matrix.identity(F2, 2)

    def test_first_power_of_simple(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        s2 = simple_over_product(r, 1)
        t = iterate_functor(m, 1, s2)
        assert t.result.dim == 1
        assert t.result.action[0] == Matrix.from_rows(F2, [[1]])

    def test_second_power_vanishes_for_one_nilpotent(self):
        r = product_fields(F2, 2)
        m = corner_bimodule(F2)
        for x in (free_module(r, 1), free_module(r, 2), simple_over_product(r, 0)):
            assert iterate_functor(m, 2, x).result.dim == 0

    def test_memoized_model_is_stable(self):
        m = corner_bimodule(F2)
        x = free_module(m.algebra, 1)
        assert iterate_functor(m, 1, x) is iterate_functor(m, 1, x)

    def test_nested_matches_power_model_dims(self):
        m = path_bimodule(F2, 4)
        x = free_module(m.algebra, 1)
        for i in range(4):
            assert nested_model(m, i, x).dim == iterate_functor(m, i, x).result.dim

    def test_certified_nilpotency_kills_every_argument(self):
        import random as _random
        from helpers import random_module

        rng = _random.Random(47)
        for m, n in ((corner_bimodule(F2), 1), (path_bimodule(F3, 3), 2)):
            assert certify_nilpotent(m, n)
            for _ in range(10):
                x = random_module(m.algebra, rng)
                assert iterate_functor(m, n + 1, x).result.dim == 0

    def test_functoriality_at_higher_powers(self):
        rng = random.Random(53)
        m = path_bimodule(F3, 4)
        r = m.algebra
        x = free_module(r, 1)
        y = free_module(r, 2)
        homs_xy = hom_space(x, y)
        homs_yx = hom_space(y, x)
        for i in (2, 3):
            for trial in range(10):
                f = homs_xy[trial % len(homs_xy)]
                g = homs_yx[trial % len(homs_yx)]
                lhs = iterate_functor_map(m, i, g @ f)
                rhs = iterate_functor_map(m, i, g) @ iterate_functor_map(m, i, f)
                assert lhs.mat == rhs.mat
                h = homs_xy[(trial + 1) % len(homs_xy)]
                add_lhs = iterate_functor_map(m, i, f + h)
                add_rhs = iterate_functor_map(m, i, f) + iterate_functor_map(m, i, h)
                assert add_lhs.mat == add_rhs.mat


class TestGraft:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1)])
    def test_graft_is_natural_isomorphism(self, a, b):
        m = path_bimodule(F3, 4)
        r = m.algebra
        x = free_module(r, 1)
        y = free_module(r, 2)
        g = graft(m, a, b, x)
        assert g.source.dim == g.target.dim == iterate_functor(m, a + b, x).result.dim
        # naturality: graft_y . F^a(F^b(f)) = F^{a+b}(f) . graft_x
        homs = hom_space(x, y)
        for f in homs[:3]:
            fb = iterate_functor_map(m, b, f)
            fab_nested = iterate_functor_map(m, a, fb)
            lhs = graft(m, a, b, y).mat @ fab_nested.mat
            rhs = iterate_functor_map(m, a + b, f).mat @ g.mat
            assert lhs == rhs

    def test_graft_trivial_edges(self):
        m = corner_bimodule(F2)
        x = free_module(m.algebra, 1)
        assert graft(m, 0, 1, x).mat == Matrix.identity(F2, iterate_functor(m, 1, x).result.dim)
        assert graft(m, 1, 0, x).mat == Matrix.identity(F2, iterate_functor(m, 1, x).result.dim)

    def test_identity_grafts_and_zeroth_model_are_memoised(self):
        m = corner_bimodule(F2)
        x = free_module(m.algebra, 1)
        assert graft(m, 0, 1, x) is graft(m, 0, 1, x)
        assert graft(m, 1, 0, x) is graft(m, 1, 0, x)
        assert graft_inverse(m, 0, 1, x) is graft(m, 0, 1, x)
        assert iterate_functor(m, 0, x) is iterate_functor(m, 0, x)
        assert iterate_functor(m, 0, x).result == x

    def test_graft_inverse(self):
        m = path_bimodule(F2, 4)
        x = free_module(m.algebra, 1)
        g = graft(m, 1, 1, x)
        gi = graft_inverse(m, 1, 1, x)
        assert (gi.mat @ g.mat) == Matrix.identity(F2, g.source.dim)


class TestConcatMult:
    def test_unit_grades(self):
        m = path_bimodule(F2, 3)
        # 0 (x) 1 -> 1 via the left action of the unit: must be full rank
        mu = concat_mult(m, 0, 1)
        assert mu.shape == (2, 3 * 2)
        mu10 = concat_mult(m, 1, 0)
        assert mu10.shape == (2, 2 * 3)

    def test_concat_associativity_on_basis(self):
        m = path_bimodule(F2, 4)
        from tensorgp.exactlin import kron
        for a, b, c in [(1, 1, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1)]:
            da = power(m, a).result.dim
            db = power(m, b).result.dim
            dc = power(m, c).result.dim
            left = concat_mult(m, a + b, c) @ kron(concat_mult(m, a, b), Matrix.identity(F2, dc))
            right = concat_mult(m, a, b + c) @ kron(Matrix.identity(F2, da), concat_mult(m, b, c))
            assert left == right


class TestLargeLeftIndex:
    def test_graft_and_concat_mult_take_no_recursion_depth(self):
        # past the default recursion limit of 1,000 in the left index: the
        # corner ring declared at nilpotency 1,200 (its square already
        # vanishes, so every map here is between zero models)
        m = corner_bimodule(F2)
        ring = TensorRing(m.algebra, m, 1200)
        x = ring.free(1)
        g = graft(m, 1200, 1, x)
        assert g.mat.shape == (0, 0)
        # every step below is memoised under the same key as before
        cache = m._cache["graft"]
        assert all((a, 1, x) in cache for a in range(1201))
        assert graft(m, 1200, 1, x) is g
        assert graft_inverse(m, 1200, 1, x).mat.shape == (0, 0)
        assert concat_mult(m, 1100, 1).shape == (0, 0)


def _flat_reference_cases():
    """(bimodule, highest a + b) for the corpus ring pool over F_2 and F_3,
    up to the first vanishing power, and for the six-vertex path ring over
    F_3 (nilpotency 5)."""
    cases = [(ring.bimodule, max(2, ring.nilpotency + 1)) for ring in ring_pool()]
    return cases + [(path_bimodule(F3, 6), 5)]


class TestFlatReference:
    """The left-nested recursions over R equal the k-level construction
    through V_M^{(x)i}, matrix for matrix."""

    @pytest.mark.parametrize("m, top", _flat_reference_cases())
    def test_graft_and_concat_match_flat_construction(self, m, top):
        for rank in (1, 2):
            x = free_module(m.algebra, rank)
            for a in range(1, top):
                for b in range(1, top + 1 - a):
                    assert graft(m, a, b, x).mat == reference_graft(m, a, b, x), (rank, a, b)
        for a in range(1, top):
            for b in range(1, top + 1 - a):
                assert concat_mult(m, a, b) == reference_concat_mult(m, a, b), (a, b)

    def test_powers_are_left_nested_models(self):
        m = path_bimodule(F3, 4)
        for i in (0, 1):
            pw = power(m, i)
            assert pw.projection == pw.section == Matrix.identity(F3, pw.result.dim)
        assert power(m, 1).result is m
        for i in (2, 3, 4):
            nested = tensor_bimodule_model(m, power(m, i - 1).result)
            assert power(m, i).result.dim == nested.result.dim
            assert power(m, i).projection == nested.projection
            assert power(m, i).section == nested.section


class TestDirectSum:
    def test_direct_sum_dims(self):
        m = corner_bimodule(F2)
        z = zero_bimodule(m.algebra)
        s = direct_sum_bimodule(m, m)
        assert s.dim == 2
        assert direct_sum_bimodule(m, z).dim == 1
