import random
from fractions import Fraction
from math import lcm

import pytest

from uproj import linalg

from oracles import sparse_combination


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


# -- reference: dense Gauss-Jordan over Fraction ------------------------------


def ref_rref(rows):
    m = frac_rows(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    m, pivots = ref_rref(rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(v)
    return basis


def ref_solve_columns(rows, columns):
    if not rows:
        if all(x == 0 for b in columns for x in b):
            return [[] for _ in columns]
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b[i] for b in columns] for i, row in enumerate(rows)]
    m, pivots = ref_rref(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for k in range(ncols, ncols + len(columns)):
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][k]
        sols.append(x)
    return sols


def ref_mat_inv(rows):
    n = len(rows)
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, pivots = ref_rref([list(row) + unit[i] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def ref_mat_vec(a, v):
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def pair_of(v):
    """The pair (d, integer row) of a rational vector."""
    den = lcm(*[Fraction(x).denominator for x in v])
    return linalg.pair(den, [int(Fraction(x) * den) for x in v])


def left_inverse(m):
    """The inverse of a square matrix m, by linalg.left_solve on [m | 1]."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    return [[Fraction(x, a) for x in r] for a, r in linalg.left_solve(aug, n)]


def all_fractions(value):
    """Every number nested in value is a Fraction."""
    if isinstance(value, (list, tuple)):
        return all(all_fractions(x) for x in value)
    return type(value) is Fraction


def _matrices(st):
    """Strategy for nrows x ncols rational matrices: int and Fraction
    entries with small, mixed and large denominators, and up to two rows
    and two columns zeroed."""
    entry = st.one_of(
        st.just(0),
        st.integers(-4, 4),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.builds(
            Fraction,
            st.integers(-(10**30), 10**30),
            st.integers(1, 10**25),
        ),
    )

    @st.composite
    def matrix(draw, nrows, ncols):
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        if nrows and ncols:
            for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
                rows[i] = [0] * ncols
            for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
                for row in rows:
                    row[j] = 0
        return rows

    return matrix


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
        inv = left_inverse(m)
        assert linalg.mat_mul(m, inv) == [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]


def test_mat_vec():
    # sparse_vec maps the pair of v to the pair of a v, in lowest terms
    m = linalg.sparse_rows(frac_rows([[1, 2], [3, 4]]))
    assert linalg.sparse_vec(m, (1, [1, 1])) == (1, [3, 7])
    m = linalg.sparse_rows(frac_rows([[0, 2], [0, 0]]))
    assert linalg.sparse_vec(m, pair_of([5, Fraction(1, 2)])) == (1, [1, 0])
    m = linalg.sparse_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])
    assert linalg.sparse_vec(m, (5, [1, 1])) == (30, [3, -2])
    assert linalg.pair(-4, [2, 6]) == (2, [-1, -3])
    assert linalg.pair(3, [0, 0]) == (1, [0, 0])


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
                ref_mat_vec(a, [Fraction(rng.randint(-4, 4)) for _ in range(k)])
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
    bad_values = ("1e999999999", "2E3", 1e300, "1_000", "1_0/3", "0.000_5",
                  "1/0", "x", None, [1])
    for bad in bad_values:
        with pytest.raises(ValueError):
            linalg.read_rational(bad)


NOT_RATIONAL = "not an integer, p/q or decimal: "


@pytest.mark.parametrize(
    "value,want",
    [
        ("0", 0), ("-0", 0), ("+3", 3), ("007", 7), (" 7", 7),
        ("\u0661\u0662", 12),  # Arabic-Indic digits, as Fraction reads them
        ("\u00b2", NOT_RATIONAL + "'\u00b2'"),  # a digit, but not a decimal one
        ("1_000", NOT_RATIONAL + "'1_000'"), ("1e3", NOT_RATIONAL + "'1e3'"),
        ("3/0", "zero denominator in '3/0'"), ("0.5", Fraction(1, 2)),
        ("-2/4", Fraction(-1, 2)), (True, NOT_RATIONAL + "'True'"),
        (12345678901234567890, 12345678901234567890), (-17, -17),
        ("9" * 5000, NOT_RATIONAL + repr("9" * 5000)),
    ],
    ids=lambda v: repr(v)[:12],
)
def test_read_rational_values_and_messages(value, want):
    # plain digit strings skip Fraction's parser; every value and every
    # message is the one the parser path gives
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            linalg.read_rational(value)
        assert str(err.value) == want
    else:
        got = linalg.read_rational(value)
        assert type(got) is Fraction and got == want


def _sparse_matrix(rng, n):
    """Seeded sparse rows of an n x n rational matrix, about one row in
    four zero."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.25:
            rows.append([0] * n)
        else:
            rows.append([
                Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))
                if rng.random() < 0.4 else 0
                for _ in range(n)
            ])
    return linalg.sparse_rows(rows)


@pytest.mark.parametrize("c", [1, -1, Fraction(1, 3), Fraction(-3, 4)])
def test_commutator_rows_match_reference_composition(c):
    # each fused row is one integer sum; the reference multiplies with
    # sparse_mul and sums through Fraction rows, and both are canonical
    rng = random.Random(f"commutator {c}")
    for _ in range(40):
        n = rng.randint(0, 6)
        a, b = _sparse_matrix(rng, n), _sparse_matrix(rng, n)
        terms = [
            (rng.randint(-3, 3), _sparse_matrix(rng, n))
            for _ in range(rng.randint(0, 3))
        ]
        product = [(c, linalg.sparse_mul(a, b)), (-c, linalg.sparse_mul(b, a))]
        assert linalg.sparse_commutator(a, b, c) == sparse_combination(product, n)
        assert linalg.sparse_commutator(a, b, c, terms) == sparse_combination(
            product + terms, n
        )
        # the residual [a, b] - k [a, b] is empty in every row for k = 1
        # and is [b, a] for k = 2
        ab = linalg.sparse_commutator(a, b, 1)
        assert linalg.sparse_commutator(a, b, 1, [(-1, ab)]) == ((1, ()),) * n
        assert linalg.sparse_commutator(a, b, 1, [(-2, ab)]) == (
            linalg.sparse_commutator(b, a, 1)
        )
    assert linalg.sparse_commutator((), (), c, [(2, ())]) == ()


def test_integer_elimination_matches_fraction_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    matrix = _matrices(st)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.data())
    def check(data):
        # empty, 1 x n, wide and tall shapes
        nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
        a = data.draw(matrix(nrows, ncols))
        want = ref_rref(a)
        got = linalg.rref(a)
        assert got == want and all_fractions(got[0])
        assert linalg.rank(a) == len(want[1])
        null = linalg.nullspace(a, ncols=ncols)
        assert null == ref_nullspace(a, ncols) and all_fractions(null)

        # arbitrary right-hand sides, then one in the column span
        cols = data.draw(matrix(data.draw(st.integers(0, 3)), nrows))
        cols.append(ref_mat_vec(a, data.draw(matrix(1, ncols))[0]))
        sols = linalg.solve_columns(a, cols)
        assert sols == ref_solve_columns(a, cols)
        assert all_fractions(sols or [])
        assert linalg.solve_columns(a, cols[-1:]) is not None

        n = min(nrows, ncols)
        square = [row[:n] for row in a[:n]]
        want_inv = ref_mat_inv(square)
        if want_inv is None:
            with pytest.raises(ValueError):
                left_inverse(square)
        else:
            assert left_inverse(square) == want_inv

        b = data.draw(matrix(ncols, data.draw(st.integers(1, 6))))
        prod = linalg.mat_mul(a, b)
        assert prod == dense_mat_mul(a, b) and all_fractions(prod)
        v = data.draw(matrix(1, ncols))[0]
        den, img = linalg.sparse_vec(linalg.sparse_rows(a), pair_of(v))
        assert [Fraction(x, den) for x in img] == ref_mat_vec(a, v)
        assert (den, img) == pair_of(ref_mat_vec(a, v))

    check()


def test_empty_inputs_match_fraction_reference():
    assert linalg.rref([]) == ref_rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], ncols=3) == ref_nullspace([], 3)
    assert all_fractions(linalg.nullspace([], ncols=3))
    assert linalg.nullspace([]) == []
    assert linalg.solve_columns([], [[], []]) == [[], []]
    assert linalg.solve_columns([], [[1]]) is None
    assert left_inverse([]) == ref_mat_inv([]) == []
    assert linalg.mat_mul([], [[1, 2]]) == []
    assert linalg.mat_mul([[]], []) == [[]]
    assert linalg.sparse_vec((), (1, [1, 2])) == (1, [])
    assert linalg.sparse_vec(linalg.sparse_rows([[1, 2]]), (1, [0, 0])) == (1, [0])
    assert linalg.Echelon().rows == []
    assert not linalg.Echelon().add([0, 0])


def test_sparse_rows_are_canonical():
    m = [[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 0, 0], [2, 4, 6]]
    rows = linalg.sparse_rows(m)
    assert rows == ((4, ((0, 2), (2, -3))), (1, ()), (1, ((0, 2), (1, 4), (2, 6))))
    assert linalg.dense_rows(rows, 3) == tuple(tuple(frac_rows(m)[i]) for i in range(3))
    # a combination that cancels to the same matrix compares equal
    twice = sparse_combination([(3, rows), (Fraction(-2), rows)], 3)
    assert twice == rows
    assert sparse_combination([], 2) == ((1, ()), (1, ()))
    assert linalg.sparse_mul(rows, rows) == linalg.sparse_rows(dense_mat_mul(m, m))


def test_echelon_matches_rank_and_solve_columns():
    # seeded rational rows, each put to the rows kept before it: add keeps
    # it exactly when the rank grows, reduce leaves a zero remainder
    # exactly when solve_columns finds it in their span, and the tails of
    # unit-extended rows are the nullspace of the matrix with these columns
    rng = random.Random(11)

    def entry(den):
        return Fraction(rng.randint(-5, 5), rng.randint(1, den))

    def rows_of(nrows, ncols, rank, den):
        base = [[entry(den) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            cs = [entry(3) for _ in base]
            rows.append([
                sum((c * b[j] for c, b in zip(cs, base)), Fraction(0))
                for j in range(ncols)
            ])
        rows.insert(rng.randrange(nrows + 1), [Fraction(0)] * ncols)
        return rows

    # (nonzero rows, columns, rank they are drawn with, largest
    # denominator drawn); one zero row joins them at a random place
    shapes = [(3, 3, 3, 1), (4, 5, 4, 1), (5, 4, 4, 9), (5, 5, 2, 1),
              (6, 4, 3, 12), (4, 6, 1, 7), (3, 2, 0, 1)]
    ranks = set()
    for _ in range(6):
        for nrows, ncols, r, den in shapes:
            rows = rows_of(nrows, ncols, r, den)
            span, kept = linalg.Echelon(), []
            for row in rows:
                w = pair_of(row)[1]
                inside = linalg.solve_columns(list(zip(*kept)), [row]) is not None
                assert (not any(span.reduce(w))) == inside
                grows = linalg.rank(kept + [row]) > linalg.rank(kept)
                assert span.add(w) == grows == (not inside)
                if grows:
                    kept.append(row)
            assert len(span.rows) == linalg.rank(rows)
            ranks.add((nrows, ncols, len(span.rows)))
            assert linalg.Echelon(pair_of(row)[1] for row in rows).rows == span.rows

            ints = [pair_of(row)[1] for row in rows]
            n = len(ints)
            kernel, found = linalg.Echelon(), []
            for k, w in enumerate(ints):
                t = kernel.reduce(w + [int(i == k) for i in range(n)])
                if any(t[:ncols]):
                    assert kernel.add(t)
                else:
                    found.append([Fraction(x, t[ncols + k]) for x in t[ncols:]])
            assert found == linalg.nullspace(list(zip(*ints)), ncols=n)
    # full-rank (in rows or columns), rank-deficient and zero matrices came up
    assert {(3, 3, 3), (4, 5, 4), (5, 4, 4), (5, 5, 2), (3, 2, 0)} <= ranks
