"""Tests for structure-constant algebras, modules and hom spaces."""

import random

import pytest

from tensorgp.exactlin import GF, QQ, Matrix
from tensorgp.algebra import (
    Algebra,
    AlgebraError,
    InvalidAlgebra,
    InvalidMap,
    InvalidModule,
    LeftModule,
    ModuleMap,
    check_algebra,
    check_module,
    compose,
    free_hom_basis,
    free_module,
    hom_space,
    is_exact_at,
    quotient_by_columns,
    submodule_from_columns,
    zero_module,
)

from helpers import (
    F2,
    F3,
    dual_numbers,
    ground_algebra,
    product_fields,
    simple_over_product,
    x_multiplication,
)


class TestCheckAlgebra:
    def test_dual_numbers_valid(self):
        assert check_algebra(dual_numbers(F2)).valid

    def test_product_valid(self):
        assert check_algebra(product_fields(F2, 2)).valid

    def test_wrong_unit_reported(self):
        # e2*e2 = e1 with the unit declared as e2: unit axiom must fail
        consts = [
            [[0, 0], [0, 0]],
            [[0, 0], [1, 0]],
        ]
        raw = Algebra.unchecked(F2, 2, consts, (0, 1))
        report = check_algebra(raw)
        assert not report.valid
        assert any(v[0].startswith("unit") for v in report.violations)

    def test_associativity_witness(self):
        # e1 e1 = e2, e1 e2 = e1, rest zero: (e1 e1) e1 = e1 but e1 (e1 e1) = e1 —
        # craft a genuinely non-associative table instead
        consts = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 1]],
        ]
        raw = Algebra.unchecked(F2, 2, consts, (1, 0))
        report = check_algebra(raw)
        if not report.valid:
            kind, witness, residual = report.violations[0]
            assert kind in ("associativity", "unit-left", "unit-right")
            assert residual is not None and not residual.is_zero()

    def test_constructor_raises(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(F2, 2, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], (0, 1))


class TestFreeModule:
    def test_rank_zero(self):
        r = dual_numbers(F2)
        m = free_module(r, 0)
        assert m.dim == 0

    def test_dual_numbers_regular(self):
        r = dual_numbers(F2)
        m = free_module(r, 1)
        assert m.dim == 2
        assert m.action[1] == Matrix.from_rows(F2, [[0, 0], [1, 0]])

    def test_product_rank_two(self):
        r = product_fields(F2, 2)
        m = free_module(r, 2)
        assert m.dim == 4
        assert m.action[0] == Matrix.from_rows(F2, [[1, 0, 0, 0], [0, 0, 0, 0],
                                                    [0, 0, 1, 0], [0, 0, 0, 0]])

    def test_block_diagonal_structure(self):
        r = dual_numbers(F3)
        n = 3
        m = free_module(r, n)
        single = free_module(r, 1)
        for i in range(r.dim):
            for c in range(n):
                block = m.action[i].block(c * r.dim, (c + 1) * r.dim, c * r.dim, (c + 1) * r.dim)
                assert block == single.action[i]
            # off-diagonal blocks vanish
            for c1 in range(n):
                for c2 in range(n):
                    if c1 != c2:
                        assert m.action[i].block(c1 * r.dim, (c1 + 1) * r.dim,
                                                 c2 * r.dim, (c2 + 1) * r.dim).is_zero()


class TestMemoKeys:
    def test_hash_is_the_field_hash_computed_once(self):
        x = free_module(dual_numbers(F3), 2)
        a = x.algebra
        assert hash(a) == hash((a.field, a.dim, a.consts, a.unit))
        assert hash(x) == hash((a, x.dim, x.action))
        assert "_hash" in vars(a) and "_hash" in vars(x)
        y = LeftModule(a, x.dim, x.action)
        assert y == x and hash(y) == hash(x)


class TestHomSpace:
    def test_identity_in_hom(self):
        r = dual_numbers(F2)
        x = free_module(r, 1)
        basis = hom_space(x, x)
        span = Matrix.from_rows(F2, [[b.mat[i, j] for b in basis]
                                     for i in range(2) for j in range(2)])
        idvec = Matrix.column(F2, [1, 0, 0, 1])
        assert span.solve(idvec) is not None

    def test_simples_orthogonal(self):
        r = product_fields(F2, 2)
        s1 = simple_over_product(r, 0)
        s2 = simple_over_product(r, 1)
        assert hom_space(s1, s2) == []

    def test_dual_numbers_endo_dim(self):
        r = dual_numbers(F2)
        x = free_module(r, 1)
        assert len(hom_space(x, x)) == 2

    def test_hom_from_free_rank_one_has_dim_of_target(self):
        rng = random.Random(5)
        for field in (F2, F3):
            for r in (dual_numbers(field), product_fields(field, 2)):
                free1 = free_module(r, 1)
                for n in range(4):
                    y = free_module(r, n)
                    assert len(hom_space(free1, y)) == y.dim

    def test_free_hom_basis_matches_generic(self):
        for r in (dual_numbers(F2), product_fields(F3, 2)):
            for n in (0, 1, 2):
                for target_rank in (1, 2):
                    w = free_module(r, target_rank)
                    fast = free_hom_basis(r, n, w)
                    slow = hom_space(free_module(r, n), w)
                    assert len(fast) == len(slow)
                    if fast:
                        cols = [b.mat for b in slow]
                        span = Matrix.from_rows(
                            r.field,
                            [[c[i, j] for c in cols]
                             for i in range(w.dim) for j in range(n * r.dim)])
                        for b in fast:
                            v = Matrix.column(r.field, [b.mat[i, j] for i in range(w.dim)
                                                        for j in range(n * r.dim)])
                            assert span.solve(v) is not None


class TestModuleMap:
    def test_intertwining_enforced(self):
        r = product_fields(F2, 2)
        s1 = simple_over_product(r, 0)
        s2 = simple_over_product(r, 1)
        with pytest.raises(InvalidMap):
            ModuleMap(s1, s2, Matrix.from_rows(F2, [[1]]))

    def test_compose_identity(self):
        f = x_multiplication(F2)
        ident = ModuleMap.identity(f.source)
        assert compose(ident, f).mat == f.mat
        assert (f @ ident).mat == f.mat

    def test_exactness_of_x_multiplication(self):
        f = x_multiplication(F2)
        assert is_exact_at(f, f)

    def test_zero_sequence_not_exact(self):
        r = dual_numbers(F2)
        fr = free_module(r, 1)
        z = zero_module(r)
        into = ModuleMap.zero(z, fr)
        out = ModuleMap.zero(fr, z)
        assert not is_exact_at(into, out)

    def test_add(self):
        f = x_multiplication(F3)
        assert (f + f).mat == f.mat.scale(2)


class TestSubQuotient:
    def test_submodule_of_free(self):
        f = x_multiplication(F2)
        ker = f.mat.kernel_basis()
        sub, incl = submodule_from_columns(f.source, ker)
        assert sub.dim == 1
        assert incl.mat == ker

    def test_unstable_span_rejected(self):
        r = dual_numbers(F2)
        fr = free_module(r, 1)
        # span{1} is not an ideal: x*1 = x leaves the span
        with pytest.raises(AlgebraError):
            submodule_from_columns(fr, Matrix.from_rows(F2, [[1], [0]]))

    def test_quotient_of_free_by_socle(self):
        r = dual_numbers(F2)
        fr = free_module(r, 1)
        socle = Matrix.from_rows(F2, [[0], [1]])
        quot, proj, sect = quotient_by_columns(fr, socle)
        assert quot.dim == 1
        assert (proj.mat @ socle).is_zero()
        assert proj.mat @ sect == Matrix.identity(F2, 1)
        # x acts as zero on the quotient
        assert quot.action[1].is_zero()

    def test_quotient_by_nothing(self):
        r = dual_numbers(F3)
        fr = free_module(r, 1)
        quot, proj, sect = quotient_by_columns(fr, Matrix.zeros(F3, 2, 0))
        assert quot.dim == 2


class TestRandomizedInvariants:
    def test_hom_space_maps_are_linear(self):
        # hom_space builds its basis unchecked, so certify every element here
        for r in (dual_numbers(F2), product_fields(F3, 3)):
            x = free_module(r, 2)
            y = free_module(r, 1)
            for b in hom_space(x, y):
                for i in range(r.dim):
                    assert b.mat @ x.action[i] == y.action[i] @ b.mat

    def test_hom_dim_free_source_random_targets(self):
        from helpers import random_module

        rng = random.Random(31)
        count = 0
        for field in (F2, F3):
            for r in (dual_numbers(field), product_fields(field, 2)):
                free1 = free_module(r, 1)
                for _ in range(25):
                    y = random_module(r, rng)
                    assert len(hom_space(free1, y)) == y.dim
                    count += 1
        assert count == 100


# -- the law-based reports against the loop-per-checker references ---------------

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgp.bimodule import Bimodule, check_bimodule, regular_bimodule, zero_bimodule

from helpers import (
    augmentation_bimodule,
    corner_bimodule,
    cubic_nilpotent,
    path_bimodule,
    random_module,
    reference_check_algebra,
    reference_check_bimodule,
    reference_check_module,
)

LAW_FIELDS = [F2, F3, QQ]


def _nonzero(field, data):
    if field.is_prime:
        return data.draw(st.integers(1, field.p - 1))
    return data.draw(st.fractions(-3, 3, max_denominator=3).filter(bool))


def _perturbed_matrix(m, data):
    """m with one entry shifted by a nonzero scalar."""
    rows = [list(r) for r in m.entries]
    i = data.draw(st.integers(0, m.rows - 1))
    j = data.draw(st.integers(0, m.cols - 1))
    rows[i][j] += _nonzero(m.field, data)
    return Matrix.from_rows(m.field, rows)


def _replaced(items, k, item):
    return tuple(item if t == k else x for t, x in enumerate(items))


def _small_algebras(field):
    return [ground_algebra(field), dual_numbers(field), product_fields(field, 2),
            cubic_nilpotent(field)]


def _table(data, a, kinds=("valid", "consts", "unit", "shape")):
    """The table of ``a`` as it is, or with a shifted structure constant, a
    random unit, or a malformed table or unit."""
    field, d = a.field, a.dim
    kind = data.draw(st.sampled_from(kinds))
    consts = [[list(row) for row in plane] for plane in a.consts]
    unit = list(a.unit)
    if kind == "consts":
        i, j, k = (data.draw(st.integers(0, d - 1)) for _ in range(3))
        consts[i][j][k] += _nonzero(field, data)
    elif kind == "unit":
        unit = [data.draw(st.integers(0, 2)) for _ in range(d)]
    elif kind == "shape":
        if data.draw(st.booleans()):
            unit = unit[:-1]
        else:
            i = data.draw(st.integers(0, d - 1))
            consts[i] = consts[i][:-1]
    return Algebra.unchecked(field, d, consts, unit)


def _same_report(new, ref):
    assert new.subject == ref.subject
    assert new.violations == ref.violations


class TestLawReportsMatchReferences:
    """check_algebra, check_module and check_bimodule read one law
    primitive; their reports must list the same kinds, indices and
    residuals, in the same order, as the per-checker loops they replace."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(LAW_FIELDS))
    def test_algebra_reports(self, data, field):
        a = _table(data, data.draw(st.sampled_from(_small_algebras(field))))
        _same_report(check_algebra(a), reference_check_algebra(a))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(LAW_FIELDS))
    def test_module_reports(self, data, field):
        a = data.draw(st.sampled_from(_small_algebras(field)))
        if data.draw(st.booleans()):
            x = free_module(a, data.draw(st.integers(0, 2)))
        else:
            x = random_module(a, random.Random(data.draw(st.integers(0, 99))))
        action = x.action
        kind = data.draw(st.sampled_from(["valid", "entry", "shape", "field"]))
        k = data.draw(st.integers(0, a.dim - 1))
        if kind == "entry" and x.dim:
            action = _replaced(action, k, _perturbed_matrix(action[k], data))
        elif kind == "shape":
            action = action[:-1] if data.draw(st.booleans()) else \
                _replaced(action, k, Matrix.zeros(field, x.dim + 1, x.dim + 1))
        elif kind == "field":
            other = F3 if field is F2 else F2
            action = _replaced(action, k, Matrix.zeros(other, x.dim, x.dim))
        raw = LeftModule.unchecked(_table(data, a, ("valid", "consts", "unit")), x.dim, action)
        _same_report(check_module(raw), reference_check_module(raw))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(LAW_FIELDS))
    def test_bimodule_reports(self, data, field):
        a = data.draw(st.sampled_from([dual_numbers(field), product_fields(field, 2)]))
        m = data.draw(st.sampled_from([
            regular_bimodule(a), zero_bimodule(a), regular_bimodule(cubic_nilpotent(field)),
            corner_bimodule(field), path_bimodule(field, 3), augmentation_bimodule(field)]))
        algebra = _table(data, m.algebra, ("valid", "consts", "unit"))
        left, right = m.left_action, m.right_action
        kind = data.draw(st.sampled_from(["valid", "left", "right", "shape"]))
        k = data.draw(st.integers(0, algebra.dim - 1))
        if kind == "left" and m.dim:
            left = _replaced(left, k, _perturbed_matrix(left[k], data))
        elif kind == "right" and m.dim:
            right = _replaced(right, k, _perturbed_matrix(right[k], data))
        elif kind == "shape":
            right = right[:-1] if data.draw(st.booleans()) else \
                _replaced(right, k, Matrix.zeros(field, m.dim + 1, m.dim + 1))
        raw = Bimodule.unchecked(algebra, m.dim, left, right)
        _same_report(check_bimodule(raw), reference_check_bimodule(raw))
