"""Tests for the exact matrix layer."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from tensorgp.exactlin import (
    GF,
    QQ,
    DimensionMismatch,
    ExactLinError,
    FieldMismatch,
    FieldSpec,
    Matrix,
    batched_rank,
    block_diagonal,
    block_matrix,
    canonical_basis,
    direct_sum,
    hstack,
    is_exact_pair,
    kron,
    kron_sum,
    lift_or_witness,
    unlifted_solution,
    unvec,
    unvec_blocks,
    unvec_columns,
    vec,
    vec_columns,
    vec_postcompose,
    vec_precompose,
    vstack,
)

F2 = GF(2)
F3 = GF(3)


def M(field, rows):
    return Matrix.from_rows(field, rows)


def random_matrix(field, rows, cols, rng):
    if field.is_prime:
        return M(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])
    return M(field, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
                     for _ in range(rows)])


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(ExactLinError):
            FieldSpec.prime(4)
        with pytest.raises(ExactLinError):
            FieldSpec.prime(1)
        assert GF(7).p == 7

    def test_coerce(self):
        assert F3.coerce(-1) == 2
        assert F3.coerce(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
        assert QQ.coerce(2) == Fraction(2)

    def test_inv(self):
        assert F3.inv(2) == 2
        assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
        with pytest.raises(ZeroDivisionError):
            F2.inv(0)

    def test_elements(self):
        assert list(F3.elements()) == [0, 1, 2]
        with pytest.raises(ExactLinError):
            QQ.elements()


class TestMul:
    def test_identity_left(self):
        a = M(F2, [[1, 0, 1], [0, 1, 1]])
        assert Matrix.identity(F2, 2) @ a == a

    def test_hand_product_mod_2(self):
        a = M(F2, [[1, 1], [0, 1]])
        b = M(F2, [[1, 0], [1, 1]])
        assert a @ b == M(F2, [[0, 1], [1, 1]])

    def test_empty_composition(self):
        a = Matrix.zeros(F2, 2, 0)
        b = Matrix.zeros(F2, 0, 3)
        assert a @ b == Matrix.zeros(F2, 2, 3)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            M(F2, [[1]]) @ M(F3, [[1]])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            M(F2, [[1, 0]]) @ M(F2, [[1, 0]])

    def test_rational(self):
        a = M(QQ, [[Fraction(1, 2), 1]])
        b = M(QQ, [[2], [Fraction(1, 3)]])
        assert a @ b == M(QQ, [[Fraction(4, 3)]])


class TestRank:
    def test_zero(self):
        assert Matrix.zeros(F2, 3, 3).rank() == 0

    def test_identity(self):
        assert Matrix.identity(F3, 4).rank() == 4

    def test_equal_rows_mod2(self):
        assert M(F2, [[1, 1], [1, 1]]).rank() == 1

    def test_rank_equals_transpose_rank_randomized(self):
        rng = random.Random(7)
        for field in (F2, F3, QQ):
            for _ in range(500):
                a = random_matrix(field, rng.randrange(5), rng.randrange(5), rng)
                assert a.rank() == a.transpose().rank()


class TestKernel:
    def test_identity_kernel_empty(self):
        k = Matrix.identity(F2, 3).kernel_basis()
        assert k.shape == (3, 0)

    def test_zero_map_kernel_full(self):
        k = Matrix.zeros(F2, 2, 3).kernel_basis()
        assert k == Matrix.identity(F2, 3)

    def test_sum_mod2(self):
        k = M(F2, [[1, 1]]).kernel_basis()
        assert k == M(F2, [[1], [1]])

    def test_kernel_identities_randomized(self):
        rng = random.Random(11)
        for field in (F2, F3, QQ):
            for _ in range(200):
                a = random_matrix(field, rng.randrange(5), rng.randrange(5), rng)
                k = a.kernel_basis()
                assert (a @ k).is_zero()
                assert k.cols + a.rank() == a.cols
                assert k.rank() == k.cols  # columns independent


class TestSolve:
    def test_identity(self):
        b = M(F3, [[1], [2]])
        assert Matrix.identity(F3, 2).solve(b) == b

    def test_no_solution(self):
        assert Matrix.zeros(F2, 2, 2).solve(M(F2, [[1], [0]])) is None

    def test_enumerated_f2(self):
        a = M(F2, [[1, 1], [0, 0]])
        b = M(F2, [[1], [0]])
        x = a.solve(b)
        assert x is not None and a @ x == b
        assert x.entries in (((1,), (0,)), ((0,), (1,)))

    def test_soundness_and_completeness_randomized(self):
        rng = random.Random(13)
        for field in (F2, F3, QQ):
            for _ in range(200):
                a = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
                b = random_matrix(field, a.rows, 1, rng)
                x = a.solve(b)
                aug_rank = hstack([a, b]).rank()
                if x is None:
                    assert aug_rank > a.rank()
                else:
                    assert a @ x == b
                    assert aug_rank == a.rank()

    def test_multi_column(self):
        a = M(F3, [[1, 1], [0, 1]])
        b = Matrix.identity(F3, 2)
        x = a.solve(b)
        assert a @ x == b


class TestKron:
    def test_left_unit(self):
        a = M(F2, [[1, 0], [1, 1]])
        assert kron(Matrix.identity(F2, 1), a) == a

    def test_right_unit(self):
        a = M(F3, [[1, 2]])
        assert kron(a, Matrix.identity(F3, 1)) == a

    def test_basis_order(self):
        a = M(F2, [[1], [1]])
        b = M(F2, [[1, 0]])
        assert kron(a, b) == M(F2, [[1, 0], [1, 0]])

    def test_functoriality_randomized(self):
        rng = random.Random(17)
        for field in (F2, F3):
            for _ in range(200):
                a = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 4), rng)
                c = random_matrix(field, a.cols, rng.randrange(1, 4), rng)
                b = random_matrix(field, rng.randrange(1, 4), rng.randrange(1, 4), rng)
                d = random_matrix(field, b.cols, rng.randrange(1, 4), rng)
                assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


class TestExactPair:
    def test_identity_then_zero(self):
        f = Matrix.identity(F2, 2)
        g = Matrix.zeros(F2, 1, 2)
        assert is_exact_pair(f, g)

    def test_zero_into_nonzero_then_zero(self):
        f = Matrix.zeros(F2, 2, 1)
        g = Matrix.zeros(F2, 1, 2)
        assert not is_exact_pair(f, g)

    def test_x_multiplication_on_dual_numbers(self):
        x = M(F2, [[0, 0], [1, 0]])
        assert is_exact_pair(x, x)

    def test_not_composable(self):
        with pytest.raises(DimensionMismatch):
            is_exact_pair(Matrix.identity(F2, 2), Matrix.zeros(F2, 1, 3))


class TestBlocks:
    def test_direct_sum(self):
        a = M(F2, [[1]])
        b = M(F2, [[1, 1]])
        assert direct_sum(a, b) == M(F2, [[1, 0, 0], [0, 1, 1]])

    def test_stacks(self):
        a = M(F3, [[1, 2]])
        b = M(F3, [[0, 1]])
        assert vstack([a, b]) == M(F3, [[1, 2], [0, 1]])
        assert hstack([a.transpose(), b.transpose()]) == M(F3, [[1, 0], [2, 1]])

    def test_block_slicing(self):
        a = M(F3, [[0, 1, 2], [1, 0, 1]])
        assert a.block(0, 1, 1, 3) == M(F3, [[1, 2]])
        assert a.col(2) == M(F3, [[2], [1]])

    def test_image_basis(self):
        a = M(F2, [[1, 1, 0], [0, 0, 1]])
        im = a.image_basis()
        assert im == M(F2, [[1, 0], [0, 1]])


class TestVec:
    def test_roundtrip(self):
        rng = random.Random(23)
        for field in (F2, QQ):
            a = random_matrix(field, 3, 2, rng)
            assert unvec(field, vec(a), 3, 2) == a

    def test_vec_identity(self):
        a = M(F2, [[1, 0], [1, 1]])
        b = M(F2, [[1], [0]])
        # vec(A @ X) == kron(X^T ... ) sanity via the standard identity
        x = M(F2, [[1, 1], [0, 1]])
        lhs = vec(a @ x)
        rhs = kron(x.transpose(), Matrix.identity(F2, 2)) @ vec(a)
        assert lhs == rhs


class TestInverse:
    def test_inverse(self):
        a = M(F3, [[1, 1], [0, 1]])
        assert a @ a.inverse() == Matrix.identity(F3, 2)

    def test_singular(self):
        with pytest.raises(ExactLinError):
            M(F2, [[1, 1], [1, 1]]).inverse()


class TestImmutability:
    def test_hashable_and_frozen(self):
        a = M(F2, [[1, 0]])
        assert hash(a) == hash(M(F2, [[1, 0]]))
        with pytest.raises(AttributeError):
            a.rows = 5


from hypothesis import given, settings
from hypothesis import strategies as st


def matrices(field, rows, cols):
    if field.is_prime:
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    else:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda rows_: Matrix.from_rows(field, rows_) if rows_ else Matrix.zeros(field, 0, cols))


FIELDS = [F2, F3, QQ]


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=matrices(F3, 3, 3), b=matrices(F3, 3, 3), c=matrices(F3, 3, 3))
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS))
    def test_rref_idempotent_and_rank_stable(self, data, field):
        a = data.draw(matrices(field, 3, 4))
        r, pivots = a.rref()
        r2, pivots2 = r.rref()
        assert r == r2 and pivots == pivots2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS))
    def test_solve_agrees_with_rank_test(self, data, field):
        a = data.draw(matrices(field, 2, 4))
        b = data.draw(matrices(field, 2, 1))
        x = a.solve(b)
        consistent = hstack([a, b]).rank() == a.rank()
        assert (x is not None) == consistent
        if x is not None:
            assert a @ x == b


class TestBlockMatrix:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS),
           heights=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           widths=st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_matches_padded_stacks(self, data, field, heights, widths):
        """Every grid, with zero blocks given as None, equals the stack of
        its blocks padded with explicit zero matrices."""
        grid = [[data.draw(st.one_of(st.none(), matrices(field, h, w))) for w in widths]
                for h in heights]
        grid[0][0] = data.draw(matrices(field, heights[0], widths[0]))
        padded = vstack([hstack([m if m is not None else Matrix.zeros(field, h, w)
                                 for m, w in zip(row, widths)])
                         for row, h in zip(grid, heights)])
        assert block_matrix(grid, heights, widths) == padded

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS),
           shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=4))
    def test_block_diagonal_is_the_folded_direct_sum(self, data, field, shapes):
        blocks = [data.draw(matrices(field, h, w)) for h, w in shapes]
        folded = blocks[0]
        for b in blocks[1:]:
            folded = direct_sum(folded, b)
        assert block_diagonal(blocks) == folded

    def test_shapes_inferred_from_the_blocks(self):
        a = M(F3, [[1, 2]])
        b = M(F3, [[1], [2]])
        assert block_matrix([[a, None], [None, b]]) == direct_sum(a, b)
        assert block_matrix([[None, a], [b, None]]).shape == (3, 3)

    def test_refused(self):
        with pytest.raises(DimensionMismatch):
            block_matrix([[M(F2, [[1]]), M(F2, [[1, 1]])]], [1], [1, 1])
        with pytest.raises(DimensionMismatch):
            block_matrix([[M(F2, [[1]])], [M(F2, [[1]]), None]])
        with pytest.raises(FieldMismatch):
            block_matrix([[M(F2, [[1]]), M(F3, [[1]])]])
        with pytest.raises(ExactLinError):
            block_matrix([[None]], [1], [1])

    def test_vec_columns(self):
        a, b = M(F2, [[1, 0], [1, 1]]), M(F2, [[0, 1], [0, 0]])
        assert vec_columns(F2, 4, [a, b]) == hstack([vec(a), vec(b)])
        assert vec_columns(F2, 4, []) == Matrix.zeros(F2, 4, 0)


class TestLiftPrimitives:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), rows=st.integers(0, 4),
           lcols=st.integers(0, 3), inside=st.integers(0, 2), outside=st.integers(0, 3))
    def test_lift_or_witness_is_first_unsolvable_column(self, data, field, rows, lcols,
                                                        inside, outside):
        lifts = data.draw(matrices(field, rows, lcols))
        # some target columns in span(lifts) first, then arbitrary ones
        spanned = lifts @ data.draw(matrices(field, lcols, inside))
        targets = hstack([spanned, data.draw(matrices(field, rows, outside))])
        expected = next((c for c in range(targets.cols)
                         if lifts.solve(targets.col(c)) is None), None)
        assert lift_or_witness(lifts, targets) == expected

    def test_lift_or_witness_shapes(self):
        assert lift_or_witness(Matrix.zeros(F2, 2, 0), Matrix.zeros(F2, 2, 0)) is None
        assert lift_or_witness(Matrix.zeros(F2, 2, 0), M(F2, [[0, 1], [0, 0]])) == 1
        with pytest.raises(DimensionMismatch):
            lift_or_witness(Matrix.zeros(F2, 2, 1), Matrix.zeros(F2, 3, 1))
        with pytest.raises(FieldMismatch):
            lift_or_witness(Matrix.zeros(F2, 2, 1), Matrix.zeros(F3, 2, 1))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS),
           shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=4))
    def test_unvec_blocks_inverts_stacked_vec(self, data, field, shapes):
        mats = [data.draw(matrices(field, r, c)) for r, c in shapes]
        assert unvec_blocks(vstack([vec(m) for m in mats]), shapes) == mats

    def test_unvec_blocks_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            unvec_blocks(Matrix.zeros(F2, 5, 1), [(2, 2)])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), n=st.integers(0, 4),
           crows=st.integers(0, 4), brows=st.integers(0, 4), icols=st.integers(0, 3))
    def test_unlifted_solution(self, data, field, n, crows, brows, icols):
        constraint = data.draw(matrices(field, crows, n))
        basis = data.draw(matrices(field, brows, n))
        image = data.draw(matrices(field, brows, icols))
        calls = []

        def image_matrix():
            calls.append(1)
            return image

        found = unlifted_solution(basis, constraint, image_matrix)
        has_solution = n > 0 and constraint.rank() < n
        assert len(calls) == (1 if has_solution else 0)
        expected = None
        if has_solution:
            solutions = basis @ constraint.kernel_basis()
            expected = next((solutions.col(c) for c in range(solutions.cols)
                             if image.solve(solutions.col(c)) is None), None)
        assert found == expected


# -- the array elimination against plain-Python elimination ----------------------


def reference_rref(field, entries, ncols):
    """Gauss-Jordan elimination on lists of scalars with the library's
    pivot rule (the first nonzero entry in column order), inverting pivots
    through ``field.inv``."""
    rows = [list(r) for r in entries]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.coerce(v * inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.coerce(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


def reference_kernel(field, entries, ncols):
    rows, pivots = reference_rref(field, entries, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    grid = [[field.zero()] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        grid[f][k] = field.one()
        for t, pc in enumerate(pivots):
            grid[pc][k] = field.coerce(-rows[t][f])
    return grid


def reference_solve(field, a, b):
    rows, pivots = reference_rref(
        field, [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)], a.cols + b.cols)
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[field.zero()] * b.cols for _ in range(a.cols)]
    for t, pc in enumerate(pivots):
        x[pc] = rows[t][a.cols:]
    return x


def grid(m):
    return [list(row) for row in m.entries]


def assert_canonical(m):
    """Every entry is a reduced int over F_p and a Fraction over Q; the
    read-only numerators are reduced residues over F_p, and over Q are in
    lowest terms over a positive denominator, int64 exactly when every
    one is below 2**62 in absolute value."""
    kind = int if m.field.is_prime else Fraction
    values = [v for row in m.entries for v in row]
    values += [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    assert all(type(v) is kind for v in values)
    assert not m._num.flags.writeable and m._num.shape == m.shape
    nums = [int(v) for v in m._num.flat]
    if m.field.is_prime:
        assert all(0 <= v < m.field.p for v in values)
        assert m._num.dtype == np.int64 and m._den == 1
    else:
        assert m._den > 0 and gcd(m._den, *nums) == 1
        assert (m._num.dtype == object) == any(abs(v) >= 2**62 for v in nums)
        assert [Fraction(v, m._den) for v in nums] == values[:len(nums)]


class TestReferenceElimination:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), rows=st.integers(0, 5),
           cols=st.integers(0, 5), bcols=st.integers(0, 2))
    def test_rref_kernel_and_solve_match_reference(self, data, field, rows, cols, bcols):
        a = data.draw(matrices(field, rows, cols))
        r, pivots = a.rref()
        want_r, want_pivots = reference_rref(field, a.entries, cols)
        assert grid(r) == want_r and pivots == want_pivots
        kernel = a.kernel_basis()
        assert kernel.shape == (cols, cols - len(pivots))
        assert grid(kernel) == reference_kernel(field, a.entries, cols)
        b = data.draw(matrices(field, rows, bcols))
        x = a.solve(b)
        want_x = reference_solve(field, a, b)
        assert (x is None) == (want_x is None)
        if x is not None:
            assert x.shape == (cols, bcols) and grid(x) == want_x
            assert_canonical(x)
        for m in (r, kernel):
            assert_canonical(m)


P_MAX = GF(1048573)  # the largest prime below 2**20, the int64 bound of F_p


def nonzero_scalar(field, rng):
    if field.is_prime:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def from_entries(field, entries, cols):
    return Matrix.from_rows(field, entries) if entries else Matrix.zeros(field, 0, cols)


def assert_matches_reference(field, entries, cols):
    a = from_entries(field, entries, cols)
    r, pivots = a.rref()
    want_r, want_pivots = reference_rref(field, a.entries, cols)
    assert grid(r) == want_r and pivots == want_pivots
    kernel = a.kernel_basis()
    assert kernel.shape == (cols, cols - len(pivots))
    assert grid(kernel) == reference_kernel(field, a.entries, cols)
    for m in (r, kernel):
        assert_canonical(m)
    return pivots


class TestLargerElimination:
    """The elimination against ``reference_rref`` beyond 5 x 5: sparse
    matrices with row swaps and all-zero columns, tall and wide shapes,
    the largest prime below 2**20, and zero-sized matrices."""

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(FIELDS + [P_MAX]), rows=st.integers(0, 12),
           cols=st.integers(0, 16), density=st.sampled_from((0.1, 0.25, 0.5)),
           seed=st.integers(0, 2 ** 32))
    def test_sparse_matrices_up_to_12_by_16(self, field, rows, cols, density, seed):
        rng = random.Random(seed)
        zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))
        entries = [[nonzero_scalar(field, rng)
                    if c not in zero_cols and rng.random() < density else 0
                    for c in range(cols)] for _ in range(rows)]
        pivots = assert_matches_reference(field, entries, cols)
        assert not zero_cols & set(pivots)

    @pytest.mark.parametrize("field", FIELDS + [P_MAX])
    def test_row_swaps_and_zero_columns(self, field):
        # row i has its leading entry in column 15 - i, and every third
        # column is zero, so almost every pivot comes from a later row
        rng = random.Random(71)
        entries = [[0] * 16 for _ in range(12)]
        for i in range(12):
            for c in range(15 - i, 16):
                if c % 3 and (c == 15 - i or rng.random() < 0.5):
                    entries[i][c] = nonzero_scalar(field, rng)
        pivots = assert_matches_reference(field, entries, 16)
        assert pivots and all(c % 3 for c in pivots)

    @pytest.mark.parametrize("shape", [(16, 1), (1, 16), (16, 3), (3, 16), (12, 5), (5, 12)])
    @pytest.mark.parametrize("field", FIELDS + [P_MAX])
    def test_tall_and_wide(self, field, shape):
        rows, cols = shape
        rng = random.Random(rows * 100 + cols)
        entries = [[nonzero_scalar(field, rng) if rng.random() < 0.6 else 0
                    for _ in range(cols)] for _ in range(rows)]
        assert_matches_reference(field, entries, cols)

    def test_largest_prime_stays_exact(self):
        # entries near p make every product of two residues near 2**40
        p = P_MAX.p
        rng = random.Random(73)
        entries = [[rng.randrange(p - 16, p) for _ in range(10)] for _ in range(8)]
        assert len(assert_matches_reference(P_MAX, entries, 10)) == 8

    @pytest.mark.parametrize("shape", [(0, 0), (0, 7), (7, 0)])
    @pytest.mark.parametrize("field", FIELDS + [P_MAX])
    def test_zero_sized(self, field, shape):
        rows, cols = shape
        a = Matrix.zeros(field, rows, cols)
        r, pivots = a.rref()
        assert r.shape == shape and pivots == ()
        assert a.kernel_basis() == Matrix.identity(field, cols)
        assert_matches_reference(field, [[0] * cols for _ in range(rows)], cols)


class TestSlicePath:
    """``take_rows``, ``take_cols`` and ``block`` slice on a step-1 range
    inside the matrix and index row by row otherwise: negative indices
    count from the end and out-of-range ones raise ``IndexError``, as
    Python lists do."""

    INDICES = [range(0, 4), range(1, 3), range(2, 2), range(4, 4), range(3, 1),
               range(-1, 2), range(-4, 0), range(-5, 1), range(2, 6), range(0, 5),
               range(4, 5), range(0, 4, 2), range(3, -1, -1), [0, 2], (3, 1, 3)]

    @staticmethod
    def matrix(field):
        rng = random.Random(79)
        return Matrix.from_rows(field, [[nonzero_scalar(field, rng) for _ in range(4)]
                                        for _ in range(4)])

    @pytest.mark.parametrize("indices", INDICES, ids=repr)
    @pytest.mark.parametrize("field", [F3, QQ])
    def test_rows_and_cols_as_python_indexing(self, field, indices):
        m = self.matrix(field)
        entries = m.entries
        try:
            want = [entries[i] for i in indices]
        except IndexError:
            with pytest.raises(IndexError):
                m.take_rows(indices)
            with pytest.raises(IndexError):
                m.take_cols(indices)
            return
        rows = m.take_rows(indices)
        assert rows.shape == (len(want), 4) and grid(rows) == [list(r) for r in want]
        cols = m.take_cols(indices)
        assert cols.shape == (4, len(want))
        assert grid(cols.transpose()) == [[row[i] for row in entries] for i in indices]
        for piece in (rows, cols):
            assert_canonical(piece)

    @pytest.mark.parametrize("bounds", [(1, 3, 0, 4), (-1, 4, 0, 2), (0, 4, -2, 1),
                                        (2, 6, 0, 1), (0, 1, 3, 5), (3, 1, 0, 4)])
    @pytest.mark.parametrize("field", [F3, QQ])
    def test_block_as_python_indexing(self, field, bounds):
        r0, r1, c0, c1 = bounds
        m = self.matrix(field)
        entries = m.entries
        try:
            want = [[entries[i][j] for j in range(c0, c1)] for i in range(r0, r1)]
        except IndexError:
            with pytest.raises(IndexError):
                m.block(*bounds)
            return
        b = m.block(*bounds)
        assert b.shape == (len(range(r0, r1)), len(range(c0, c1))) and grid(b) == want
        assert_canonical(b)

    @pytest.mark.parametrize("field", [F3, QQ])
    def test_slices_are_read_only_values(self, field):
        m = M(field, [[1, 2, 0, 1], [2, 2, 1, 0], [0, 1, 1, 2]]) if field.is_prime else \
            M(field, [[Fraction(1, 2), 2, 0], [Fraction(3, 4), 1, Fraction(1, 4)],
                      [2, Fraction(1, 2), 1]])
        before = grid(m)
        pieces = [(m.take_rows(range(1, 3)), [1, 2], range(m.cols)),
                  (m.take_cols(range(1, 3)), range(m.rows), [1, 2]),
                  (m.block(0, 2, 1, 3), [0, 1], [1, 2])]
        for piece, rows, cols in pieces:
            fresh = Matrix.from_rows(field, [[m[i, j] for j in cols] for i in rows])
            assert not piece._num.flags.writeable
            assert piece == fresh and fresh == piece and hash(piece) == hash(fresh)
            assert_canonical(piece)
        if field.is_prime:
            assert np.shares_memory(pieces[0][0]._num, m._num)
        assert grid(m) == before


class TestRationalStorage:
    def test_results_hold_fractions_also_without_terms(self):
        a = M(QQ, [[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
        no_cols = Matrix.zeros(QQ, 2, 0)
        x = no_cols.solve(Matrix.zeros(QQ, 2, 3))
        results = [
            no_cols @ Matrix.zeros(QQ, 0, 3),
            kron(no_cols, a), kron(a, Matrix.zeros(QQ, 0, 2)), kron(a, a),
            no_cols.kernel_basis(), x, no_cols @ x, no_cols @ no_cols.kernel_basis(),
            Matrix.zeros(QQ, 2, 2), Matrix.identity(QQ, 3), a.kernel_basis(),
            a.rref()[0], a.solve(Matrix.identity(QQ, 2)), -a, a.scale(2), a.transpose(),
            vec(a), unvec(QQ, vec(a), 2, 2), hstack([a, no_cols]), vstack([a, a]),
        ]
        assert x.shape == (0, 3) and results[0].shape == (2, 3)
        for m in results:
            assert_canonical(m)

    def test_equal_matrices_hash_equal(self):
        built = M(QQ, [[1, 0], [0, 1]])
        product = M(QQ, [[2, 0], [0, 4]]) @ M(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
        reduced = M(QQ, [[2, 1], [4, 3]]).rref()[0]
        for m in (product, reduced, Matrix.identity(QQ, 2)):
            assert m == built and hash(m) == hash(built)
        zero = Matrix.zeros(QQ, 2, 0) @ Matrix.zeros(QQ, 0, 3)
        assert zero == M(QQ, [[0, 0, 0]] * 2) and hash(zero) == hash(M(QQ, [[0, 0, 0]] * 2))
        assert len({built, product, reduced}) == 1


@st.composite
def wide_rationals(draw, rows, cols):
    """A Q matrix with integer or rational entries whose numerators and
    denominators are bounded by a drawn power of two, up to 2**70, past
    the int64 guard; some entries are zero."""
    bound = 2 ** draw(st.integers(0, 70))
    num = st.integers(-bound, bound)
    scalar = st.one_of(st.just(0), num, st.builds(Fraction, num, st.integers(1, bound)))
    grid_ = draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return Matrix.from_rows(QQ, grid_) if grid_ else Matrix.zeros(QQ, 0, cols)


class TestCertifiedElimination:
    """The certified modular elimination over Q against the ``Fraction``
    elimination it replaced (``helpers.fraction_rref``): the RREF, its
    pivots, kernel bases, solutions and inverses, on zero-sized matrices,
    on small and on wide entries and denominators, and on a matrix whose
    RREF modulo the first prime has the wrong pivots."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 5), cols=st.integers(0, 5),
           bcols=st.integers(0, 2), wide=st.booleans())
    def test_matches_the_fraction_elimination(self, data, rows, cols, bcols, wide):
        from helpers import fraction_kernel, fraction_rref, fraction_solve

        draw = wide_rationals if wide else (lambda r, c: matrices(QQ, r, c))
        a = data.draw(draw(rows, cols))
        r, pivots = a.rref()
        want_r, want_pivots = fraction_rref(a)
        assert grid(r) == want_r and pivots == want_pivots
        kernel = a.kernel_basis()
        assert grid(kernel) == fraction_kernel(a)
        assert (a @ kernel).is_zero()
        b = data.draw(draw(rows, bcols))
        x = a.solve(b)
        want_x = fraction_solve(a, b)
        assert (x is None) == (want_x is None)
        if x is not None:
            assert grid(x) == want_x
            assert_canonical(x)
        square = data.draw(draw(cols, cols))
        want_inv = fraction_solve(square, Matrix.identity(QQ, cols))
        if len(fraction_rref(square)[1]) == cols:
            inv = square.inverse()
            assert grid(inv) == want_inv
            assert square @ inv == Matrix.identity(QQ, cols)
            assert_canonical(inv)
        else:
            with pytest.raises(ExactLinError, match="singular"):
                square.inverse()
        for m in (r, kernel):
            assert_canonical(m)

    def test_first_prime_candidate_is_refused_by_the_product_check(self, monkeypatch):
        # modulo the first prime p, [[p, 1]] reduces to [[0, 1]]: pivot 1
        # and kernel (1, 0), which the exact product N K = [[p]] refuses
        import tensorgp.exactlin as exactlin

        p = next(exactlin._primes())
        real = exactlin._reconstruct
        candidates = []
        monkeypatch.setattr(exactlin, "_reconstruct", lambda residues, modulus: candidates.append(
            (modulus, real(residues, modulus))) or candidates[-1][1])
        a = M(QQ, [[p, 1]])
        r, pivots = a.rref()
        assert pivots == (0,) and grid(r) == [[1, Fraction(1, p)]]
        first_modulus, first = candidates[0]
        assert first_modulus == p and first is not None
        assert first[0].tolist() == [[0, 1]]  # the candidate R
        assert len(candidates) > 1 and candidates[1][0] != p
        assert grid(a.kernel_basis()) == [[Fraction(-1, p)], [1]]
        assert a.solve(M(QQ, [[1]])) == M(QQ, [[Fraction(1, p)], [0]])


def reference_object_product(op, a, b):
    """``op`` on ``object`` arrays of the ``Fraction`` entries: the plain
    product that the numerator products of exactlin must agree with."""
    def arr(m):
        return np.array(m.entries, dtype=object).reshape(m.shape)
    return op(arr(a), arr(b)).tolist()


@st.composite
def q_operands(draw, rows, cols):
    """A Q matrix whose integer entries are bounded by a drawn power of two
    (up to 2**66, past the int64 range), with non-integral entries in some
    of them."""
    bound = 2 ** draw(st.integers(0, 66))
    scalar = st.integers(-bound, bound)
    if draw(st.booleans()):
        scalar = st.one_of(scalar, st.fractions(min_value=-4, max_value=4, max_denominator=4))
    grid_ = draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return Matrix.from_rows(QQ, grid_) if grid_ else Matrix.zeros(QQ, 0, cols)


class TestRationalProducts:
    """``@`` and ``kron`` over Q against the plain ``object`` product:
    negative entries, zero-size shapes, large results, non-integral
    entries, numerators of 2**63 and above, and operands on both sides of
    the 2**62 guard."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 4), inner=st.integers(0, 4),
           cols=st.integers(0, 4), brows=st.integers(0, 3), bcols=st.integers(0, 3))
    def test_matches_object_product(self, data, rows, inner, cols, brows, bcols):
        a = data.draw(q_operands(rows, inner))
        b = data.draw(q_operands(inner, cols))
        product = a @ b
        assert product.shape == (rows, cols)
        assert grid(product) == reference_object_product(np.matmul, a, b)
        c = data.draw(q_operands(brows, bcols))
        for x, y in ((a, c), (c, b)):
            k = kron(x, y)
            assert k.shape == (x.rows * y.rows, x.cols * y.cols)
            assert grid(k) == reference_object_product(np.kron, x, y)
        for m in (product, kron(a, c)):
            assert_canonical(m)

    @pytest.mark.parametrize("a_max, b_max, inner", [
        (2**31, 2**31 - 1, 1),  # 2**62 - 2**31: just below the guard
        (2**31, 2**31, 1),      # 2**62: just above it
        (2**30, 2**31 - 1, 2),  # just below, two terms of nearly 2**61
        (2**31, 2**31, 2),      # 2**63: an int64 sum would wrap
        (2**32, 2**31, 1),      # 2**63: an int64 Kronecker entry would wrap
        (2**61 - 1, 1, 2),      # just below, entries of one side near 2**61
        (2**63, 0, 2),          # a numerator past int64 against a zero operand
        (2**64 + 1, 1, 1),
    ])
    def test_at_the_guard(self, a_max, b_max, inner):
        a = M(QQ, [[a_max] * inner, [-a_max] * inner])
        b = M(QQ, [[b_max, -b_max]] * inner)
        for op, result in ((np.matmul, a @ b), (np.kron, kron(a, b))):
            assert grid(result) == reference_object_product(op, a, b)
            assert_canonical(result)


class TestBroadcastKron:
    """``kron`` against ``np.kron`` on the entries, zero-size shapes
    included."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), shape_a=st.tuples(
        st.integers(0, 3), st.integers(0, 3)), shape_b=st.tuples(st.integers(0, 4), st.integers(0, 3)))
    def test_matches_np_kron(self, data, field, shape_a, shape_b):
        a = data.draw(matrices(field, *shape_a))
        b = data.draw(matrices(field, *shape_b))
        k = kron(a, b)
        assert k.shape == (a.rows * b.rows, a.cols * b.cols)
        want = reference_object_product(np.kron, a, b)
        if field.is_prime:
            want = (np.array(want, dtype=np.int64).reshape(k.shape) % field.p).tolist()
        assert grid(k) == want
        assert_canonical(k)


class TestArrayProducts:
    """``vec_precompose`` and ``kron_sum`` against the Kronecker forms they
    replace, and ``unvec_columns`` against ``vec_columns``: F_2, F_3 and Q
    (integer operands on both sides of the int64 guard included), with
    zero-size shapes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), h=st.integers(0, 3),
           r=st.integers(0, 3), c=st.integers(0, 3), m=st.integers(0, 3))
    def test_vec_precompose_is_the_kronecker_product(self, data, field, h, r, c, m):
        from helpers import reference_precompose

        draw = q_operands if field == QQ else (lambda rows, cols: matrices(field, rows, cols))
        x = data.draw(draw(r, c))
        cols = data.draw(draw(h * r, m))
        got = vec_precompose(cols, h, x)
        assert got == reference_precompose(x, h, cols)
        assert got.shape == (c * h, m)
        assert_canonical(got)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), d=st.integers(1, 3),
           n=st.integers(0, 3), k=st.integers(0, 3), r=st.integers(0, 3), c=st.integers(0, 3))
    def test_kron_sum_is_the_sum_of_kronecker_products(self, data, field, d, n, k, r, c):
        draw = q_operands if field == QQ else (lambda rows, cols: matrices(field, rows, cols))
        lefts = data.draw(draw(n * d, k))
        rights = [data.draw(draw(r, c)) for _ in range(d)]
        want = Matrix.zeros(field, n * r, k * c)
        for t in range(d):
            want = want + kron(lefts.take_rows(range(t, n * d, d)), rights[t])
        got = kron_sum(lefts, rights)
        assert got == want
        assert_canonical(got)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), w=st.integers(0, 3),
           r=st.integers(0, 3), c=st.integers(0, 3), m=st.integers(0, 3))
    def test_vec_postcompose_is_the_kronecker_product(self, data, field, w, r, c, m):
        draw = q_operands if field == QQ else (lambda rows, cols: matrices(field, rows, cols))
        x = data.draw(draw(r, c))
        cols = data.draw(draw(c * w, m))
        got = vec_postcompose(x, cols, w)
        assert got == kron(Matrix.identity(field, w), x) @ cols
        assert got.shape == (r * w, m)
        assert_canonical(got)

    def test_at_the_guard(self):
        # entries of 2**31 make products of 2**62, past the int64 guard
        from helpers import reference_precompose

        x = M(QQ, [[2**31, -2**31], [1, 2**31]])
        cols = M(QQ, [[2**31, 1], [-2**31, 2], [3, 2**31], [2**31, 2**31]])
        got = vec_precompose(cols, 2, x)
        assert got == reference_precompose(x, 2, cols)
        assert grid(got) == reference_object_product(np.matmul, kron(x.transpose(),
                                                                     Matrix.identity(QQ, 2)), cols)
        summed = kron_sum(cols, [x, x.transpose()])
        assert summed == kron(cols.take_rows([0, 2]), x) + \
            kron(cols.take_rows([1, 3]), x.transpose())
        left = vec_postcompose(x, cols, 2)
        assert left == kron(Matrix.identity(QQ, 2), x) @ cols
        for m in (got, summed, left):
            assert_canonical(m)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            vec_precompose(Matrix.zeros(F2, 5, 1), 2, Matrix.zeros(F2, 2, 1))
        with pytest.raises(DimensionMismatch):
            vec_postcompose(Matrix.zeros(F2, 1, 2), Matrix.zeros(F2, 5, 1), 2)
        with pytest.raises(DimensionMismatch):
            kron_sum(Matrix.zeros(F2, 3, 1), [Matrix.zeros(F2, 1, 1)] * 2)
        with pytest.raises(DimensionMismatch):
            kron_sum(Matrix.zeros(F2, 2, 1), [Matrix.zeros(F2, 1, 1), Matrix.zeros(F2, 1, 2)])
        with pytest.raises(DimensionMismatch):
            kron_sum(Matrix.zeros(F2, 0, 1), [])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), field=st.sampled_from(FIELDS), rows=st.integers(0, 3),
           cols=st.integers(0, 3), count=st.integers(0, 4))
    def test_unvec_columns_inverts_vec_columns(self, data, field, rows, cols, count):
        mats = [data.draw(matrices(field, rows, cols)) for _ in range(count)]
        stacked = vec_columns(field, rows * cols, mats)
        assert unvec_columns(stacked, rows, cols) == mats


class TestCanonicalBasis:
    """``canonical_basis`` of any spanning set of a kernel is the basis
    ``kernel_basis`` gives: zero, full and partial kernels, spanning sets
    with repeated and recombined columns, over F_2, F_3, F_1048573 (the
    largest prime below 2**20) and Q."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from([F2, F3, GF(1048573), QQ]),
           kind=st.sampled_from(["zero", "full", "partial"]), rows=st.integers(0, 4),
           cols=st.integers(0, 5), extra=st.integers(0, 3))
    def test_matches_kernel_basis(self, data, field, kind, rows, cols, extra):
        a = data.draw(matrices(field, rows, cols))
        if kind == "zero":
            a = vstack([a, Matrix.identity(field, cols)])
        elif kind == "full":
            a = Matrix.zeros(field, rows, cols)
        kernel = a.kernel_basis()
        if kind != "partial":
            assert kernel.cols == (0 if kind == "zero" else cols)
        mix = data.draw(matrices(field, kernel.cols, extra))
        reversed_ = kernel.take_cols(list(range(kernel.cols))[::-1])
        for span in (kernel, reversed_, hstack([kernel @ mix, reversed_]),
                     hstack([reversed_, kernel, kernel @ mix])):
            got = canonical_basis(span)
            assert got == kernel
            assert_canonical(got)

    def test_empty_spans(self):
        for field in (F2, QQ):
            assert canonical_basis(Matrix.zeros(field, 3, 0)).shape == (3, 0)
            assert canonical_basis(Matrix.zeros(field, 3, 2)).shape == (3, 0)
            assert canonical_basis(Matrix.zeros(field, 0, 2)).shape == (0, 0)


class TestSharedIdentity:
    def test_one_read_only_instance_per_field_and_size(self):
        for field, same in ((F2, GF(2)), (F3, GF(3)), (QQ, FieldSpec.rational())):
            i3 = Matrix.identity(field, 3)
            assert Matrix.identity(same, 3) is i3
            assert i3 == M(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
            assert_canonical(i3)
            with pytest.raises(ValueError):
                i3._num[0, 1] = field.one()
            with pytest.raises(AttributeError):
                i3.rows = 2
            # results built from it are new matrices
            assert (i3 + i3) is not i3 and Matrix.identity(field, 3) == i3
        assert Matrix.identity(F2, 3) != Matrix.identity(F3, 3)
        assert Matrix.identity(F2, 0).shape == (0, 0)


class TestBatchedRank:
    """``batched_rank`` against ``Matrix.rank`` slice by slice, with
    unreduced entries and empty batches and slices."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), batch=st.integers(0, 6),
           rows=st.integers(0, 5), cols=st.integers(0, 5))
    def test_matches_matrix_rank(self, data, p, batch, rows, cols):
        field = GF(p)
        entry = st.one_of(st.integers(0, p - 1), st.integers(p, 4 * p))
        arr = np.array(data.draw(st.lists(
            st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
            min_size=batch, max_size=batch)), dtype=np.int64).reshape(batch, rows, cols)
        ranks = batched_rank(field, arr)
        assert ranks.shape == (batch,)
        want = [Matrix(field, rows, cols, a.tolist()).rank() for a in arr]
        assert ranks.tolist() == want

    def test_needs_a_prime_field(self):
        with pytest.raises(ExactLinError):
            batched_rank(QQ, np.zeros((1, 2, 2), dtype=np.int64))
