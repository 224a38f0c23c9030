"""Exact linear algebra over the scalar tower.

The rank oracle expands determinants of all square minors by the
Leibniz formula, so it shares no code with the elimination pivot logic
it is checking.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hodgescreen import (
    ExactMatrix,
    FunctionField,
    QQ,
    gaussian_field,
    intersection_basis,
    kernel_basis,
    rank,
    rref,
)
from hodgescreen.linalg import fraction_free_rref, inverse, solve_right
from hodgescreen.ratfunc import RatFunc


def leibniz_det(field, rows):
    n = len(rows)
    total = field.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one() if sign > 0 else -field.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def minor_rank(m):
    """Largest r with a nonvanishing r x r minor."""
    field = m.field
    for r in range(min(m.nrows, m.ncols), 0, -1):
        for ri in combinations(range(m.nrows), r):
            for ci in combinations(range(m.ncols), r):
                sub = [[m.rows[i][j] for j in ci] for i in ri]
                if not field.is_zero(leibniz_det(field, sub)):
                    return r
    return 0


def random_rational_matrix(rng, nrows, ncols):
    return ExactMatrix(
        QQ,
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
         for _ in range(nrows)],
    )


def test_rank_agrees_with_minor_oracle_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(m) == minor_rank(m)


def test_rank_agrees_with_minor_oracle_over_gaussian_field():
    K = gaussian_field()
    i = K.gen()
    one = K.one()
    m = ExactMatrix(K, [[one, i], [i, -one]])  # row2 = i * row1
    assert rank(m) == minor_rank(m) == 1
    m2 = ExactMatrix(K, [[one, i], [i, one]])
    assert rank(m2) == minor_rank(m2) == 2


def test_rref_produces_identity_block_on_pivots():
    m = ExactMatrix(QQ, [[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    reduced, pivots = rref(m)
    assert pivots == [0, 2]
    for row_pos, col in enumerate(pivots):
        assert reduced.rows[row_pos][col] == 1
        for other in range(len(pivots)):
            if other != row_pos:
                assert reduced.rows[other][col] == 0


def test_fraction_free_rref_gives_the_rref_as_cramer_ratios():
    # polynomial matrices over Q[t1, t2], some with a row that is a
    # polynomial multiple of another: the pivot count is the minor rank,
    # the rows past it vanish, and each entry over its row's pivot entry
    # is the rref over Q(t1, t2)
    rng = random.Random(31)
    f = FunctionField(QQ, ("t1", "t2"))
    t1, t2 = f.gens()
    pool = [f.zero(), f.zero(), f.one(), t1, t2 - 1, t1 * t2 + 2, t1 * t1 - t2]
    deficient = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
        entries = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:
            entries[-1] = [x * (t1 + t2) for x in entries[0]]
        m = ExactMatrix(f, entries)
        rows = [[x.num for x in row] for row in m.rows]
        pivots = fraction_free_rref(rows, ncols)
        reduced, expected = rref(m)
        assert pivots == expected
        assert len(pivots) == minor_rank(m)
        deficient += len(pivots) < nrows
        assert all(a.is_zero() for row in rows[len(pivots):] for a in row)
        for row, pivot, want in zip(rows, pivots, reduced.rows):
            assert tuple(RatFunc(f, a, row[pivot]) for a in row) == want
    assert deficient


def test_kernel_vectors_annihilate_and_span_the_nullity():
    rng = random.Random(7)
    for _ in range(25):
        m = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rank(m)
        for v in basis:
            assert all(x == 0 for x in m.apply_vector(v))
        if basis:
            stacked = ExactMatrix.from_columns(QQ, basis, nrows=m.ncols)
            assert rank(stacked) == len(basis)


def test_kernel_of_parametric_row():
    field = FunctionField(QQ, ("t1",))
    t1 = field.gen("t1")
    m = ExactMatrix(field, [[field.one(), t1]])
    (v,) = kernel_basis(m)
    assert v[0] == -t1 and v[1] == field.one()


def test_kernel_edge_shapes():
    assert kernel_basis(ExactMatrix.zeros(QQ, 0, 3)) != []
    assert len(kernel_basis(ExactMatrix.zeros(QQ, 2, 0))) == 0
    assert len(kernel_basis(ExactMatrix.zeros(QQ, 2, 3))) == 3


def test_solve_and_inverse_round_trip():
    a = ExactMatrix(QQ, [[2, 1], [1, 1]])
    b = ExactMatrix(QQ, [[1], [0]])
    x = solve_right(a, b)
    assert a * x == b
    assert a * inverse(a) == ExactMatrix.identity(QQ, 2)
    singular = ExactMatrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse(singular)


def test_intersection_of_spans_matches_hand_computation():
    a = ExactMatrix.from_columns(QQ, [(1, 0, 0), (0, 1, 0)])
    b = ExactMatrix.from_columns(QQ, [(0, 1, 0), (0, 0, 1)])
    inter = intersection_basis(a, b)
    assert len(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_intersection_respects_dimension_count():
    rng = random.Random(99)
    for _ in range(20):
        a = random_rational_matrix(rng, 4, rng.randint(1, 3))
        b = random_rational_matrix(rng, 4, rng.randint(1, 3))
        inter = intersection_basis(a, b)
        joint = rank(a.hstack(b))
        expected = rank(a) + rank(b) - joint
        assert len(inter) == expected
        for v in inter:
            # membership in both spans: appending must not raise the rank
            av = ExactMatrix.from_columns(QQ, [v], nrows=4)
            assert rank(a.hstack(av)) == rank(a)
            assert rank(b.hstack(av)) == rank(b)


def test_matrix_multiplication_shapes_and_errors():
    a = ExactMatrix(QQ, [[1, 2]])
    b = ExactMatrix(QQ, [[3], [4]])
    assert (a * b).rows[0][0] == 11
    with pytest.raises(ValueError):
        b.hstack(a)
    assert a.transpose().shape == (2, 1)
