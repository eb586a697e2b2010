import random
from fractions import Fraction

import pytest

from uproj import linalg


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rank_frozen_examples():
    assert linalg.rank(frac_rows([[1, 2], [2, 4]])) == 1
    assert linalg.rank(frac_rows([[1, 0], [0, 1]])) == 2
    assert linalg.rank(frac_rows([[0, 0], [0, 0]])) == 0
    assert linalg.rank(frac_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_solve_exact():
    sol = linalg.solve(frac_rows([[2, 1], [1, 3]]), [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]
    assert linalg.solve(frac_rows([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        r = linalg.rank(rows)
        null = linalg.nullspace(rows, ncols=n)
        assert r + len(null) == n
        for vec in null:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_mat_inv_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            if linalg.rank(m) == n:
                break
        inv = linalg.mat_inv(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(n)


def test_mat_vec():
    m = frac_rows([[1, 2], [3, 4]])
    assert linalg.mat_vec(m, [Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(7)]
    m = frac_rows([[0, 2], [0, 0]])
    assert linalg.mat_vec(m, [Fraction(5), Fraction(1, 2)]) == [Fraction(1), Fraction(0)]


def dense_mat_mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def test_mat_mul_matches_dense_reference():
    rng = random.Random(2)

    def rand_matrix(n, m):
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4
             else Fraction(0) for _ in range(m)]
            for _ in range(n)
        ]
        rows[rng.randrange(n)] = [Fraction(0)] * m
        return rows

    for n, k, m in [(1, 1, 1), (3, 3, 3), (2, 5, 3), (4, 1, 6), (6, 4, 2)]:
        for _ in range(5):
            a, b = rand_matrix(n, k), rand_matrix(k, m)
            assert linalg.mat_mul(a, b) == dense_mat_mul(a, b)
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert linalg.mat_mul(zero, rand_matrix(3, 4)) == [[Fraction(0)] * 4] * 2


def test_solve_columns_matches_per_column_solve():
    rng = random.Random(5)
    for n, k in [(1, 1), (3, 2), (4, 4), (5, 3), (6, 1)]:
        for _ in range(5):
            while True:
                a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(k)] for _ in range(n)]
                if linalg.rank(a) == k:
                    break
            # right-hand sides in the column span, so every one is consistent
            cols = [
                linalg.mat_vec(a, [Fraction(rng.randint(-4, 4)) for _ in range(k)])
                for _ in range(rng.randint(1, 4))
            ]
            assert linalg.solve_columns(a, cols) == [linalg.solve(a, b) for b in cols]
    a = frac_rows([[1, 0], [0, 1], [1, 1]])
    good, bad = frac_rows([[1, 2, 3]])[0], frac_rows([[1, 2, 0]])[0]
    assert linalg.solve_columns(a, [good]) == [frac_rows([[1, 2]])[0]]
    assert linalg.solve_columns(a, [good, bad]) is None
    assert linalg.solve_columns(a, [bad, good]) is None
    assert linalg.solve_columns([], [[], []]) == [[], []]


def test_read_rational_accepts_plain_forms_only():
    assert [linalg.read_rational(v) for v in (3, "-7", "-1/2", "0.25", 0.5)] == [
        3, -7, Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2)
    ]
    for bad in ("1e999999999", "2E3", 1e300, "1/0", "x", None, [1]):
        with pytest.raises(ValueError):
            linalg.read_rational(bad)
