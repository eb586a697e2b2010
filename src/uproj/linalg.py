"""Exact linear algebra over the rationals.

A matrix is a list or tuple of rows whose entries are ints or Fractions.
Every elimination is Echelon's fraction-free step on integer rows: each
row is scaled by the lcm of its denominators, and each updated row is
divided by its content, so no elimination does Fraction arithmetic.
rank counts the rows an Echelon keeps; rref, nullspace, solve_columns and
left_solve reduce those rows once more, from the last pivot up, to the
reduced row echelon form.  That form is unique, so every result is
canonical for a given input; rref, nullspace and solve_columns build
Fractions only for the entries a caller reads.

A vector worked on many times is a pair (d, row): the integer row over
its positive denominator d, in lowest terms, so d is the lcm of the
entries' denominators.  An operator applied many times is kept as sparse
rows, each the pair (d, ((j, n_j), ...)) of its nonzero entries in column
order.  Both forms are canonical; sparse_vec maps pairs to pairs, and
Echelon tests membership in a growing span one integer row at a time.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def read_rational(value):
    """A rational from outside: an int, or its text as an integer, p/q or
    a decimal.  Exponent notation raises ValueError, since
    Fraction("1e999999999") builds 10^999999999; so does digit grouping
    such as "1_000", which Python reads and the documented forms leave out.
    Text of digits alone skips Fraction's parser: int accepts exactly the
    digit strings that the parser does, with the same value."""
    text = str(value)
    try:
        if text.isdigit():
            return Fraction(int(text))
        if "e" not in text.lower() and "_" not in text:
            return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        pass
    raise ValueError(f"not an integer, p/q or decimal: {text!r}")


def _int_row(row):
    """(d, integer row) with d the lcm of the row's denominators, so that
    the row is the integer row over d."""
    den = lcm(*[x.denominator for x in row])
    return den, [x.numerator * (den // x.denominator) for x in row]


class Echelon:
    """Integer rows in echelon form, grown one row at a time.

    reduce clears a row at the pivots of the rows kept so far with one
    fraction-free step per pivot: the remainder is zero exactly when the
    row lies in their span."""

    def __init__(self, rows=()):
        self.rows = []  # (pivot, row), by pivot
        for row in rows:
            self.add(row)

    def reduce(self, row):
        for p, r in self.rows:
            if b := row[p]:
                g = gcd(r[p], b)
                a, b = r[p] // g, b // g
                row = [a * x - b * y for x, y in zip(row, r)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        return row

    def add(self, row):
        """Keep the remainder of row unless it is zero; return whether it
        was kept."""
        row = self.reduce(row)
        for p, x in enumerate(row):
            if x:
                insort(self.rows, (p, row))
                return True
        return False


def _reduced(rows):
    """The (pivot, integer row) of the reduced row echelon form of rows,
    by pivot: row / row[pivot] is the form's row."""
    done = Echelon()
    for p, row in reversed(Echelon(_int_row(r)[1] for r in rows).rows):
        # the rows below have their pivots past p, where row starts
        done.rows.insert(0, (p, done.reduce(row)))
    return done.rows


def rref(rows):
    """Reduced row echelon form.  Returns (matrix, pivot_columns)."""
    red = _reduced(rows)
    out = [[Fraction(x, row[p]) if x else _ZERO for x in row] for p, row in red]
    out += [[_ZERO] * len(row) for row in rows[len(red):]]
    return out, [p for p, _ in red]


def rank(rows):
    return len(Echelon(_int_row(row)[1] for row in rows).rows)


def nullspace(rows, ncols=None):
    """Basis of the right nullspace, one vector per free column.

    Canonical basis: free variable set to 1, other free variables 0.
    """
    if not rows:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    red = _reduced(rows)
    pivot_set = {p for p, _ in red}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[j] = Fraction(1)
        for pc, row in red:
            v[pc] = Fraction(-row[j], row[pc]) if row[j] else _ZERO
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    sols = solve_columns(rows, [rhs])
    return None if sols is None else sols[0]


def solve_columns(rows, columns):
    """One solution x_k of A x_k = b_k for each right-hand side b_k, from a
    single elimination of [A | b_1 ... b_m]; None if any b_k is
    inconsistent."""
    if not rows:
        if all(x == 0 for b in columns for x in b):
            return [[] for _ in columns]
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b[i] for b in columns] for i, row in enumerate(rows)]
    red = _reduced(aug)
    if red and red[-1][0] >= ncols:
        return None
    sols = []
    for k in range(ncols, ncols + len(columns)):
        x = [_ZERO] * ncols
        for pc, row in red:
            x[pc] = Fraction(row[k], row[pc]) if row[k] else _ZERO
        sols.append(x)
    return sols


def left_solve(rows, n):
    """For rows [A | B] with A square of size n: the rows of A^-1 B, each
    as the pair (a, r) of the integer row r over a, possibly negative and
    not in lowest terms.  Raises ValueError if A is singular."""
    red = _reduced(rows)
    if [p for p, _ in red] != list(range(n)):
        raise ValueError("matrix is singular")
    return [(row[p], row[n:]) for p, row in red]


# -- sparse rows ---------------------------------------------------------------


def sparse_rows(rows):
    """The sparse rows of a matrix, as a tuple."""
    out = []
    for row in rows:
        den, ints = _int_row(row)
        out.append((den, tuple((j, x) for j, x in enumerate(ints) if x)))
    return tuple(out)


def dense_rows(srows, ncols):
    """The matrix with these sparse rows, as a tuple of Fraction tuples."""
    out = []
    for den, entries in srows:
        row = [_ZERO] * ncols
        for j, x in entries:
            row[j] = Fraction(x, den)
        out.append(tuple(row))
    return tuple(out)


def _combine(terms):
    """The sparse row sum of n / d * row over the (n, d, row) in terms."""
    den = lcm(*[d * row[0] for _, d, row in terms])
    acc = {}
    for n, d, (rd, entries) in terms:
        f = n * (den // (d * rd))
        for j, x in entries:
            acc[j] = acc.get(j, 0) + f * x
    g = gcd(den, *acc.values())
    return den // g, tuple(sorted((j, x // g) for j, x in acc.items() if x))


def pair(den, row):
    """The pair of the vector row / den, for an int den != 0."""
    g = gcd(den, *row) * (-1 if den < 0 else 1)
    return den // g, [x // g for x in row]


def sparse_vec(srows, v):
    """The pair of a v, for the sparse rows of a and the pair v; zero
    entries of a are skipped."""
    dv, w = v
    den = lcm(*[d for d, _ in srows])
    out = [sum(x * w[j] for j, x in e) * (den // d) for d, e in srows]
    return pair(den * dv, out)


def _times(c, row, b):
    """The _combine terms of c row b, for an int or Fraction c, a sparse
    row and the sparse rows of b."""
    n, d = c.numerator, c.denominator * row[0]
    return [(n * x, d, b[j]) for j, x in row[1]]


def sparse_mul(a, b):
    """The sparse rows of a b, from the sparse rows of a and of b."""
    return tuple(_combine(_times(1, row, b)) for row in a)


def sparse_commutator(a, b, c, terms=()):
    """The sparse rows of c (a b - b a) plus the sum of k m over the (k, m)
    in terms, for sparse a, b and m, an int or Fraction c and ints k; each
    row is one _combine."""
    return tuple(
        _combine(
            _times(c, ra, b) + _times(-c, rb, a) + [(k, 1, m[i]) for k, m in terms]
        )
        for i, (ra, rb) in enumerate(zip(a, b))
    )


def mat_mul(a, b):
    """Matrix product; zero entries of a and of b are skipped."""
    ncols = len(b[0]) if b else 0
    srows = sparse_mul(sparse_rows(a), sparse_rows(b))
    return [list(row) for row in dense_rows(srows, ncols)]
