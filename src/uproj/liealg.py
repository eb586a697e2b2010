"""Chevalley basis of a split semisimple Lie algebra.

Structure constants are fixed by the deterministic extraspecial-pair
convention: for every non-simple positive root the minimal decomposition
pair gets N = +(p+1), and all remaining constants follow from the exact
rational identities relating constants of root triples and quadruples
(Carter, Simple Groups of Lie Type, 4.1; Cohen, Murray and Taylor,
Computing in groups of Lie type).  Every nonzero bracket of two basis
symbols is tabulated once at construction, and the Jacobi identity is
verified there on every triple whose weights sum to a root or to 0.

A Lie algebra element is a {symbol: coefficient} dict, the form of a
table row.  The table is the one read path for brackets: the adjoint
derivations (adjoint.ad_derivation), the adjoint representation, the
cascade slices and the bracket closure and check of a representation
(genrep.RepInput) all read it; only this module computes a structure
constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def root_suffix(coeffs):
    return "".join(str(c) for c in coeffs)


class ChevalleyBasis:
    """Chevalley basis with exact structure constants.

    Symbols: E_<coeffs> for positive roots, H<i> for simple coroots,
    F_<coeffs> for negative roots (F_c spans the -alpha root space).
    """

    def __init__(self, rs):
        self.rs = rs
        self.positive_roots = rs.positive_roots
        self._root_set = rs._root_set

        self.pos_symbol = {
            r: f"E_{root_suffix(rs.coefficients(r))}" for r in self.positive_roots
        }
        self.neg_symbol = {
            r: f"F_{root_suffix(rs.coefficients(r))}" for r in self.positive_roots
        }
        self.cartan_symbols = tuple(f"H{i + 1}" for i in range(rs.rank))
        self.symbols = (
            tuple(self.pos_symbol[r] for r in self.positive_roots)
            + self.cartan_symbols
            + tuple(self.neg_symbol[r] for r in self.positive_roots)
        )
        self._root_of_symbol = {}
        for r in self.positive_roots:
            self._root_of_symbol[self.pos_symbol[r]] = r
            self._root_of_symbol[self.neg_symbol[r]] = tuple(-x for x in r)
        self._symbol_of_root = {r: s for s, r in self._root_of_symbol.items()}

        self._extraspecial = {}
        for gamma in self.positive_roots:
            if rs.height(gamma) == 1:
                continue
            for alpha in self.positive_roots:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in self._root_set and self.rs.is_positive(beta):
                    self._extraspecial[gamma] = (alpha, beta)
                    break
        self._nmemo = {}
        # table[u][v] is [u, v] as (symbol, int) pairs sorted by symbol,
        # for every nonzero bracket; Chevalley constants are integral
        self.table = {u: {} for u in self.symbols}
        for u, v in itertools.product(self.symbols, repeat=2):
            if uv := self._bracket_symbols(u, v):
                if any(c.denominator != 1 for _, c in uv):
                    raise RuntimeError(f"non-integral constant in [{u}, {v}]")
                self.table[u][v] = tuple((s, int(c)) for s, c in uv)
        self.check_jacobi()

    # -- root bookkeeping -------------------------------------------------

    def root_of(self, symbol):
        return self._root_of_symbol[symbol]

    def _chain_down(self, alpha, beta):
        """p = max k with beta - k*alpha a root."""
        p = 0
        cur = beta
        while True:
            cur = tuple(b - a for b, a in zip(cur, alpha))
            if cur in self._root_set:
                p += 1
            else:
                return p

    def _norm(self, root):
        return self.rs.inner(root, root)

    # -- structure constants ------------------------------------------------

    def structure_constant(self, alpha, beta):
        """N_{alpha,beta} for roots alpha, beta; 0 when alpha+beta is not a
        root, error when alpha+beta = 0 (that bracket is a coroot)."""
        alpha, beta = tuple(alpha), tuple(beta)
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        if all(x == 0 for x in gamma):
            raise ValueError("opposite roots: bracket is a coroot, not N*E")
        if gamma not in self._root_set:
            return Fraction(0)
        key = (alpha, beta)
        if key in self._nmemo:
            return self._nmemo[key]
        val = self._compute_n(alpha, beta, gamma)
        self._nmemo[key] = val
        return val

    def _compute_n(self, alpha, beta, gamma):
        pos_a = self.rs.is_positive(alpha)
        pos_b = self.rs.is_positive(beta)
        if pos_a and pos_b:
            a1, b1 = self._extraspecial[gamma]
            if (alpha, beta) == (a1, b1):
                return Fraction(self._chain_down(a1, b1) + 1)
            if (beta, alpha) == (a1, b1):
                return -self.structure_constant(beta, alpha)
            # special pair: four-root identity on (a1, b1, -alpha, -beta)
            neg_a = tuple(-x for x in alpha)
            neg_b = tuple(-x for x in beta)
            total = Fraction(0)
            s1 = tuple(x + y for x, y in zip(b1, neg_a))
            if s1 in self._root_set:
                total += (
                    self.structure_constant(b1, neg_a)
                    * self.structure_constant(a1, neg_b)
                    / self._norm(s1)
                )
            s2 = tuple(x + y for x, y in zip(neg_a, a1))
            if s2 in self._root_set:
                total += (
                    self.structure_constant(neg_a, a1)
                    * self.structure_constant(b1, neg_b)
                    / self._norm(s2)
                )
            n_extra = self.structure_constant(a1, b1)
            n_neg = -self._norm(gamma) * total / n_extra
            return -n_neg  # N(-a,-b) = -N(a,b)
        if not pos_a and not pos_b:
            return -self.structure_constant(
                tuple(-x for x in alpha), tuple(-x for x in beta)
            )
        if not pos_a:
            return -self.structure_constant(beta, alpha)
        # alpha positive, beta negative
        delta = tuple(-x for x in beta)
        if self.rs.is_positive(gamma):
            # alpha = gamma + delta
            return (
                -Fraction(self._norm(gamma), self._norm(alpha))
                * self.structure_constant(delta, gamma)
            )
        eps = tuple(-x for x in gamma)
        # delta = eps + alpha
        return (
            Fraction(self._norm(eps), self._norm(delta))
            * self.structure_constant(eps, alpha)
        )

    # -- coroots and Cartan action -------------------------------------------

    def coroot_coefficients(self, root):
        """Coordinates of the coroot of `root` over the simple coroots.

        With root = sum c_i a_i, the coroot 2 root / (root, root) is
        sum c_i (a_i, a_i) / (root, root) times the coroot of a_i."""
        norm = self._norm(root)
        return tuple(
            Fraction(c) * self._norm(a) / norm
            for c, a in zip(self.rs.coefficients(root), self.rs.simple_roots)
        )

    # -- brackets -----------------------------------------------------------

    def _bracket_symbols(self, u, v):
        """[u, v] for two basis symbols, as (symbol, Fraction) pairs sorted
        by symbol, zero coefficients left out."""
        if u in self.cartan_symbols:
            if v in self.cartan_symbols:
                return ()
            simple = self.rs.simple_roots[self.cartan_symbols.index(u)]
            uv = {v: self.rs.cartan_pairing(self.root_of(v), simple)}
        elif v in self.cartan_symbols:
            return tuple((s, -c) for s, c in self._bracket_symbols(v, u))
        else:
            a, b = self.root_of(u), self.root_of(v)
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s):
                uv = dict(zip(self.cartan_symbols, self.coroot_coefficients(a)))
            elif s in self._root_set:
                uv = {self._symbol_of_root[s]: self.structure_constant(a, b)}
            else:
                return ()
        return tuple(sorted((s, Fraction(c)) for s, c in uv.items() if c))

    def bracket(self, x, y):
        """Bilinear bracket of two {symbol: coefficient} dicts, read from
        the table; zero coefficients are left out of the result."""
        acc = {}
        for u, cu in x.items():
            row = self.table[u]
            for v, cv in y.items():
                for s, c in row.get(v, ()):
                    acc[s] = acc.get(s, 0) + cu * cv * c
        return {s: c for s, c in acc.items() if c}

    # -- consistency ----------------------------------------------------------

    def check_jacobi(self):
        """Jacobi identity on every triple of basis symbols whose weights
        sum to a root or to 0; any other Jacobi sum lies in a zero weight
        space.  A weight w is packed into the int sum_k w_k B^k, with B
        above every coordinate of a difference of two three-weight sums."""
        table = self.table
        base = 6 * max(abs(x) for r in self._root_set for x in r) + 1

        def pack(w):
            return sum(x * base**k for k, x in enumerate(w))

        admissible = {0} | {pack(r) for r in self._root_set}
        weighted = [
            (u, pack(self._root_of_symbol.get(u, ()))) for u in self.symbols
        ]
        for (u, a), (v, b), (w, c) in itertools.combinations(weighted, 3):
            if a + b + c not in admissible:
                continue
            total = {}
            for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                row = table[x]
                for t, m in table[y].get(z, ()):
                    for r, p in row.get(t, ()):
                        total[r] = total.get(r, 0) + m * p
            if nonzero := {s: c for s, c in sorted(total.items()) if c}:
                raise RuntimeError(
                    f"Jacobi identity fails on ({u}, {v}, {w}): {nonzero}"
                )


def chevalley_constants(rs):
    """Build the Chevalley basis for a root system."""
    return ChevalleyBasis(rs)

