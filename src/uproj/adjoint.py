"""U-projector for the adjoint representation.

Walks the Kostant cascade level by level.  Each level contributes one
slice for the cascade root (built from the lifted coroot over the lifted
root vector) and one slice per paired root of the Heisenberg layer.
Elements of deeper levels are corrected by quadratic-over-center terms so
that they Poisson-commute with all layers already processed; the corrected
center elements form the invariant denominator chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .liealg import LieElement
from .projector import Derivation, Projector, SlicePair
from .rootsystem import kostant_cascade
from .symfield import DenominatorSet, LocElem, Poly
from .genset import Construction


@dataclass
class LevelData:
    """What a cascade level contributes to the projector; the level's
    roots are in the matching CascadeLevel."""

    denominator: object  # lifted center element, a LocElem
    stages: list  # [(Derivation, SlicePair)] for this level, xi first


class AdjointConstruction(Construction):
    """Builds levels, lifts, stages and the composed projector."""

    def __init__(self, basis):
        self.basis = basis
        rs = basis.rs
        self.cascade = kostant_cascade(rs)
        self.dset = DenominatorSet(basis.symbols)
        self.levels = []
        self.xi_elements = []  # the invariant denominator chain

        lifted = {}
        for r in rs.positive_roots:
            s = basis.pos_symbol[r]
            lifted[s] = LocElem.variable(self.dset, s)
        cartan_basis = []
        for i, h in enumerate(basis.cartan_symbols):
            vec = tuple(
                Fraction(1 if j == i else 0) for j in range(rs.rank)
            )
            cartan_basis.append((vec, LocElem.variable(self.dset, h)))

        for lv in self.cascade.levels:
            level = self._build_level(lv, lifted, cartan_basis)
            self.levels.append(level)
            self.xi_elements.append(level.denominator)
            lifted, cartan_basis = self._lift_through(lv, lifted, cartan_basis)

        stages = [st for level in self.levels for st in level.stages]
        self.projector = Projector(stages, dset=self.dset)

    # -- level construction -------------------------------------------------

    def _plain_derivation(self, root):
        basis = self.basis
        sym = basis.symbol_of(root)
        x = basis.element(sym)
        return Derivation.from_lie_element(basis, self.dset, x, label=f"D_{sym}")

    def _build_level(self, lv, lifted, cartan_basis):
        basis = self.basis
        e_xi = lifted[basis.pos_symbol[lv.xi]]
        e_xi_inv = e_xi.inverse()

        # lifted coroot of xi, expressed in the still-liftable Cartan span
        h_xi = self._lift_cartan_vector(
            basis.coroot_coefficients(lv.xi), cartan_basis
        )

        stages = []
        d_xi = self._plain_derivation(lv.xi)
        q_xi = h_xi * Fraction(-1, 2) * e_xi_inv
        stages.append((d_xi, SlicePair(d_xi, q_xi, witness=(h_xi * Fraction(-1, 2), e_xi))))

        for alpha in lv.gamma:
            if alpha == lv.xi:
                continue
            partner = lv.pairing[alpha]
            n = basis.structure_constant(alpha, partner)
            d_alpha = self._plain_derivation(alpha)
            e_partner = lifted[basis.pos_symbol[partner]]
            q_alpha = e_partner * (Fraction(-1) / n) * e_xi_inv
            stages.append(
                (
                    d_alpha,
                    SlicePair(
                        d_alpha,
                        q_alpha,
                        witness=(e_partner * (Fraction(-1) / n), e_xi),
                    ),
                )
            )

        return LevelData(denominator=e_xi, stages=stages)

    # -- Cartan bookkeeping ---------------------------------------------------

    def _lift_cartan_vector(self, vec, cartan_basis):
        """Lift of the Cartan element with the given simple-coroot
        coefficients, solved inside the current liftable span."""
        rank = self.basis.rs.rank
        rows = [[b[0][i] for b in cartan_basis] for i in range(rank)]
        sol = linalg.solve(rows, [Fraction(v) for v in vec])
        if sol is None:
            raise KeyError("Cartan element left the liftable subspace")
        acc = LocElem.const(self.dset, 0)
        for c, (_, lift) in zip(sol, cartan_basis):
            if c:
                acc = acc + lift * c
        return acc

    # -- Heisenberg lift -----------------------------------------------------

    def _lift_through(self, lv, lifted, cartan_basis):
        """Correct all still-unconsumed generators so they commute with the
        Heisenberg layer of this level.

        Only Cartan elements annihilated by the cascade root survive: the
        quadratic-over-center terms act on a pair (alpha, alpha') with
        opposite eigenvalues, so the eigenvalue sum xi(h) must vanish.  The
        liftable Cartan span is cut down to that kernel."""
        basis = self.basis
        rs = basis.rs
        gamma0 = [a for a in lv.gamma if a != lv.xi]
        consumed = set(lv.gamma)

        remaining_roots = [
            r
            for r in rs.positive_roots
            if basis.pos_symbol[r] in lifted and r not in consumed
        ]
        new_lifted = {}
        for r in remaining_roots:
            sym = basis.pos_symbol[r]
            new_lifted[sym] = lifted[sym] - self._correction(
                lv, gamma0, lifted, lambda g: self._bracket_in_gamma0(r, g, gamma0)
            )

        # functional h -> xi(h) on simple-coroot coordinates
        xi_row = [rs.cartan_pairing(lv.xi, a) for a in rs.simple_roots]
        values = [
            sum(c * v for c, v in zip(xi_row, vec)) for vec, _ in cartan_basis
        ]
        new_cartan_basis = []
        for combo in linalg.nullspace([values], ncols=len(cartan_basis)):
            vec = tuple(
                sum(c * b[0][i] for c, b in zip(combo, cartan_basis))
                for i in range(rs.rank)
            )
            pre = LocElem.const(self.dset, 0)
            for c, (_, lift) in zip(combo, cartan_basis):
                if c:
                    pre = pre + lift * c

            def h_action(g, vec=vec):
                # [h, E_g] = g(h) E_g with h over the simple coroots
                c = sum(
                    v * rs.cartan_pairing(g, a)
                    for v, a in zip(vec, rs.simple_roots)
                )
                return {g: Fraction(c)}

            new_cartan_basis.append(
                (vec, pre - self._correction(lv, gamma0, lifted, h_action))
            )
        return new_lifted, new_cartan_basis

    def _bracket_in_gamma0(self, r, g, gamma0):
        """[E_r, E_g] expanded over the Gamma^0 root vectors."""
        basis = self.basis
        s = tuple(x + y for x, y in zip(r, g))
        if s not in basis._root_set:
            return {}
        n = basis.structure_constant(r, g)
        if s not in gamma0:
            raise RuntimeError(f"bracket leaves the Heisenberg layer: {s}")
        return {s: n}

    def _correction(self, lv, gamma0, lifted, action):
        """Solve for the quadratic-over-center correction b with
        {b, E_g} = action(g) for every g in Gamma^0 (exact linear solve)."""
        basis = self.basis
        if not gamma0:
            return LocElem.const(self.dset, 0)
        pairs = []
        for i, a in enumerate(gamma0):
            for b in gamma0[i:]:
                pairs.append((a, b))
        # scalar equations indexed by (g, delta): coefficient of E_delta in
        # {pair-term, E_g} must match the action
        rows = []
        rhs = []
        for g in gamma0:
            target = action(g)
            for delta in gamma0:
                row = []
                for (a, b) in pairs:
                    coef = Fraction(0)
                    # {E_a E_b / E_xi, E_g} = [g=b'] N(b,g) E_a + [g=a'] N(a,g) E_b
                    if tuple(x + y for x, y in zip(b, g)) == lv.xi and a == delta:
                        coef += basis.structure_constant(b, g)
                    if tuple(x + y for x, y in zip(a, g)) == lv.xi and b == delta:
                        coef += basis.structure_constant(a, g)
                    row.append(coef)
                rows.append(row)
                rhs.append(Fraction(target.get(delta, 0)))
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise RuntimeError("lift system inconsistent; upstream bug")
        e_xi_inv = lifted[basis.pos_symbol[lv.xi]].inverse()
        result = LocElem.const(self.dset, 0)
        for c, (a, b) in zip(sol, pairs):
            if c:
                term = (
                    lifted[basis.pos_symbol[a]]
                    * lifted[basis.pos_symbol[b]]
                    * e_xi_inv
                )
                result = result + term * c
        return result

    # -- generators ------------------------------------------------------------

    def cartan_complement(self):
        """Basis of the orthogonal complement of the cascade coroots in h,
        as LieElements (exact kernel, deterministic pivoting)."""
        basis = self.basis
        rs = basis.rs
        rows = []
        for xi in self.cascade.entries:
            # pairing of sum c_i H_i with H_xi via the transported form:
            # (xi-check, alpha_i-check) up to the global scale
            row = []
            xi_check = [Fraction(2 * x) / basis._norm(xi) for x in xi]
            for a in rs.simple_roots:
                a_check = [Fraction(2 * x) / basis._norm(a) for x in a]
                row.append(
                    rs.form_scale
                    * sum(u * v for u, v in zip(xi_check, a_check))
                )
            rows.append(row)
        out = []
        for vec in linalg.nullspace(rows, ncols=rs.rank):
            out.append(
                LieElement.make(
                    basis,
                    {h: c for h, c in zip(basis.cartan_symbols, vec)},
                )
            )
        return out

    def _generators(self):
        basis = self.basis
        entries = []
        p = self.projector
        for r in basis.rs.positive_roots:
            sym = basis.neg_symbol[r]
            entries.append(
                (f"P({sym})", p.apply(LocElem.variable(self.dset, sym)))
            )
        for i, h in enumerate(self.cartan_complement()):
            entries.append(
                (f"P(Hc{i + 1})", p.apply(LocElem(self.dset, h.to_poly())))
            )
        for i, e in enumerate(self.xi_elements):
            entries.append((f"Xi{i + 1}", e))

        metadata = {
            "series": basis.rs.series,
            "rank": basis.rs.rank,
            "cascade": [list(x) for x in self.cascade.entries],
            "count": len(entries),
            "expected_count": len(basis.rs.positive_roots) + basis.rs.rank,
        }
        return entries, metadata

    def simple_derivations(self):
        return [self._plain_derivation(a) for a in self.basis.rs.simple_roots]


def killing_form(basis):
    """Exact Killing form matrix over the Chevalley basis symbols."""
    symbols = basis.symbols
    n = len(symbols)
    ad = []
    for s in symbols:
        x = basis.element(s)
        mat = []
        for t in symbols:
            img = basis.bracket(x, basis.element(t))
            d = img.as_dict()
            mat.append([d.get(u, Fraction(0)) for u in symbols])
        # mat[j][i] = coefficient of symbol_i in [x, symbol_j]
        ad.append([[mat[j][i] for j in range(n)] for i in range(n)])
    kappa = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = linalg.mat_mul(ad[i], ad[j])
            tr = sum((prod[k][k] for k in range(n)), Fraction(0))
            kappa[i][j] = kappa[j][i] = tr
    return kappa


def casimir_element(basis, dset):
    """Degree-2 invariant built from the inverse Killing form."""
    kappa = killing_form(basis)
    inv = linalg.mat_inv(kappa)
    symbols = basis.symbols
    poly = Poly(symbols)
    for i, u in enumerate(symbols):
        for j, v in enumerate(symbols):
            if inv[i][j]:
                poly = poly + (
                    Poly.variable(symbols, u) * Poly.variable(symbols, v) * inv[i][j]
                )
    return LocElem(dset, poly)
