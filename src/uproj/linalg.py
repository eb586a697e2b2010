"""Exact linear algebra over rationals.

Small dense routines (rref, rank, nullspace, solve, solve_columns) on
lists of lists of Fraction.  Deterministic pivoting: first nonzero entry in
column order, so every result is canonical for a given input.
"""

from __future__ import annotations

from fractions import Fraction


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def read_rational(value):
    """A rational from outside: an int, or its text as an integer, p/q or
    a decimal.  Exponent notation raises ValueError, since
    Fraction("1e999999999") builds 10^999999999."""
    text = str(value)
    try:
        if "e" not in text.lower():
            return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        pass
    raise ValueError(f"not an integer, p/q or decimal: {text!r}")


def rref(rows):
    """Reduced row echelon form.  Returns (matrix, pivot_columns)."""
    m = frac_matrix(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
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


def rank(rows):
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, ncols=None):
    """Basis of the right nullspace, one vector per free column.

    Canonical basis: free variable set to 1, other free variables 0.
    """
    if not rows:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    ncols = len(rows[0])
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    sols = solve_columns(rows, [rhs])
    return None if sols is None else sols[0]


def solve_columns(rows, columns):
    """One solution x_k of A x_k = b_k for each right-hand side b_k, from a
    single rref of [A | b_1 ... b_m]; None if any b_k is inconsistent."""
    if not rows:
        if all(x == 0 for b in columns for x in b):
            return [[] for _ in columns]
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b[i] for b in columns] for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for k in range(ncols, ncols + len(columns)):
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][k]
        sols.append(x)
    return sols


def mat_mul(a, b):
    """Matrix product; zero entries of a and of b are skipped."""
    ncols = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_vec(a, v):
    """Matrix-vector product; zero entries of a are skipped."""
    return [sum((x * y for x, y in zip(row, v) if x), Fraction(0)) for row in a]


def identity(n):
    return [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def zero_matrix(n):
    return [[Fraction(0)] * n for _ in range(n)]


def mat_inv(rows):
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(map(Fraction, row)) + identity(n)[i] for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]
