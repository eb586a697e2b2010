"""U-projector for conjugation on SL_n (type A).

Coordinates are the matrix entries s_i_j.  Conjugation by a unipotent
upper-triangular group element differentiates to D_x(s) = s x - x s.
The invariant denominators are the lower-left corner minors d_k
(rows n-k+1..n, columns 1..k).  For a positive root beta = e_a - e_b
the slice numerator d_beta is minus the minor on rows {a, b+1, ..., n}
and columns 1..nu, with nu = n - b + 1.  It satisfies D_beta(d_beta) =
d_nu exactly, and d_nu is invariant, so Q_beta = d_beta / d_nu has
D_beta(Q_beta) = 1: it is the slice of the stage.
The elements sent through the projector are the minors c_beta on the
last a rows and columns {1, ..., a-1, b}.
"""

from __future__ import annotations

from itertools import combinations, permutations, starmap
from math import isqrt
from operator import gt

from .genset import Construction
from .projector import Derivation, Projector, Stage
from .symfield import DenominatorSet, LocElem, Poly


def entry_name(i, j):
    """Variable name of the (i, j) matrix entry, 1-based."""
    return f"s_{i}_{j}"


def matrix_variables(n):
    return tuple(entry_name(i, j) for i in range(1, n + 1) for j in range(1, n + 1))


def minor(variables, rows, cols):
    """Exact determinant of the submatrix s[rows, cols] as a Poly.

    Each of the k! signed products is handed to Poly.from_factors as the
    positions of its k entries in variables, so no exponent tuple is
    built."""
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ValueError(
            f"a minor needs as many rows as columns: {len(rows)} vs {len(cols)}"
        )
    at = [[variables.index(entry_name(r, c)) for c in cols] for r in rows]
    # with a repeated row or column two permutations give one monomial,
    # with opposite signs, and from_factors sums them
    return Poly.from_factors(variables, [
        ([row[j] for row, j in zip(at, perm)],
         (-1) ** sum(starmap(gt, combinations(perm, 2))))
        for perm in permutations(range(len(rows)))
    ])


def conj_derivation(dset, a, b):
    """Derivation D_s_a_b: D(s) = s x - x s for the matrix unit x = E_ab,
    so D(s_i_b) gains s_i_a, and D(s_a_j) loses s_b_j.

    Only column b and row a move: the 2n - 1 nonzero images are built,
    in row-major order, and no zero image is."""
    variables = dset.vars
    n = isqrt(len(variables))
    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1) if i == a else (b,):
            coeffs = {}
            if j == b:
                coeffs[entry_name(i, a)] = 1
            if i == a:
                coeffs[entry_name(b, j)] = -1
            images[entry_name(i, j)] = Poly.linear(variables, coeffs)
    return Derivation(dset, images, label=f"D_s_{a}_{b}")


def matrix_elements(n):
    """Fundamental minors and per-root slice/orbit minors.

    Returns a dict with keys "d" (list of d_1..d_{n-1}), "d_beta" and
    "c_beta" (maps (a, b) -> Poly)."""
    if n < 2:
        raise ValueError("need n >= 2")
    variables = matrix_variables(n)
    d = [
        minor(variables, range(n - k + 1, n + 1), range(1, k + 1))
        for k in range(1, n)
    ]
    d_beta = {}
    c_beta = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = n - b + 1
            rows = [a] + list(range(b + 1, n + 1))
            d_beta[(a, b)] = -minor(variables, rows, range(1, k + 1))
            cols = list(range(1, a)) + [b]
            c_beta[(a, b)] = minor(variables, range(n - a + 1, n + 1), cols)
    return {"d": d, "d_beta": d_beta, "c_beta": c_beta}


class ConjugationConstruction(Construction):
    """Builds the stage chain and the projector for conjugation on SL_n.

    The domain is SL_n: det, a U-invariant, is left out of the emitted
    set, and det = 1 is the one relation among the coordinates.
    """

    def __init__(self, n):
        self.n = n
        self.variables = matrix_variables(n)
        self.dset = DenominatorSet(self.variables)
        self.elements = matrix_elements(n)
        self.d = [LocElem(self.dset, p) for p in self.elements["d"]]
        # the positive roots e_a - e_b by height b - a, then lexicographically
        # in their simple-root coefficients
        self.pairs = [(a, a + h) for h in range(1, n) for a in range(n - h, 0, -1)]
        # one derivation per positive root, shared by its stage and, for a
        # simple root, by simple_derivations
        self.derivations = {p: conj_derivation(self.dset, *p) for p in self.pairs}
        # application order: the largest root first.  The slice of e_a - e_b
        # is d_beta / d_nu, nu = n - b + 1
        self.projector = Projector(self.dset, [
            Stage(
                self.derivations[(a, b)],
                LocElem(self.dset, self.elements["d_beta"][(a, b)]),
                self.d[n - b],
            )
            for a, b in reversed(self.pairs)
        ])

    def _generators(self):
        entries = []
        for i, x in enumerate(self.d):
            entries.append((f"d{i + 1}", x))
        for a, b in self.pairs:
            c = LocElem(self.dset, self.elements["c_beta"][(a, b)])
            entries.append((f"P(c_{a}_{b})", self.projector.apply(c)))
        metadata = {
            "n": self.n,
            "count": len(entries),
            "expected_count": (self.n - 1) + self.n * (self.n - 1) // 2,
        }
        return entries, metadata

    def simple_derivations(self):
        return [self.derivations[(i, i + 1)] for i in range(1, self.n)]
