"""Tests for the exact matrix layer."""

import random
from fractions import Fraction

import pytest

from tensorgp.exactlin import (
    GF,
    QQ,
    DimensionMismatch,
    ExactLinError,
    FieldMismatch,
    FieldSpec,
    Matrix,
    direct_sum,
    hstack,
    is_exact_pair,
    kron,
    lift_or_witness,
    unlifted_solution,
    unvec,
    unvec_blocks,
    vec,
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


def columns(m):
    return [m.col(c) for c in range(m.cols)]


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

        def image_cols():
            calls.append(1)
            return columns(image)

        found = unlifted_solution(columns(basis), columns(constraint), image_cols)
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
    """Every entry is a reduced int over F_p and a Fraction over Q."""
    kind = int if m.field.is_prime else Fraction
    values = [v for row in m.entries for v in row]
    values += [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    assert all(type(v) is kind for v in values)
    if m.field.is_prime:
        assert all(0 <= v < m.field.p for v in values)


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
