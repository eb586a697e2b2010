"""U-projector for the adjoint representation.

Walks the Kostant cascade level by level.  Each level contributes one
slice for the cascade root (built from the lifted coroot over the lifted
root vector) and one slice per paired root of the Heisenberg layer.  The
generators that deeper levels still use are then lifted through the level
by its own s-maps, so each is killed by every derivation of the level
(the Dixmier map of a locally nilpotent derivation with a slice); the
lifted cascade root vectors form the invariant denominator chain.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .projector import Derivation, Projector, SlicePair, apply_stages
from .rootsystem import kostant_cascade
from .symfield import DenominatorSet, LocElem, Poly
from .genset import Construction


def ad_derivation(basis, dset, sym):
    """Poisson-bracket derivation a -> {sym, a} of a basis symbol; the
    image of each variable v is the row table[sym][v] of the bracket
    table."""
    images = {
        v: Poly.linear(basis.symbols, dict(uv))
        for v, uv in basis.table[sym].items()
    }
    return Derivation(dset, images, label=f"D_{sym}")


class LevelData:
    """What a cascade level contributes to the projector; the level's
    roots are in the matching CascadeLevel."""

    def __init__(self, denominator, stages):
        self.denominator = denominator  # lifted center element, a LocElem
        self.stages = stages  # [(Derivation, SlicePair)] of the level, xi first


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
            lifted, cartan_basis = self._lift_through(
                lv, level.stages, lifted, cartan_basis
            )

        stages = [st for level in self.levels for st in level.stages]
        self.projector = Projector(stages, dset=self.dset)

    # -- level construction -------------------------------------------------

    def _build_level(self, lv, lifted, cartan_basis):
        basis = self.basis
        e_xi = lifted[basis.pos_symbol[lv.xi]]
        e_xi_inv = e_xi.inverse()

        # lifted coroot of xi, expressed in the still-liftable Cartan span
        h_xi = self._lift_cartan_vector(
            basis.coroot_coefficients(lv.xi), cartan_basis
        )

        stages = []
        d_xi = ad_derivation(basis, self.dset, basis.pos_symbol[lv.xi])
        q_xi = h_xi * Fraction(-1, 2) * e_xi_inv
        stages.append((d_xi, SlicePair(d_xi, q_xi, witness=(h_xi * Fraction(-1, 2), e_xi))))

        partners = dict(lv.pairing)
        for alpha in lv.gamma:
            if alpha == lv.xi:
                continue
            sym, partner = basis.pos_symbol[alpha], basis.pos_symbol[partners[alpha]]
            # [E_alpha, E_partner] = N E_xi
            ((_, n),) = basis.table[sym][partner]
            d_alpha = ad_derivation(basis, self.dset, sym)
            e_partner = lifted[partner]
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
        return self._combine_lifts(sol, cartan_basis)

    def _combine_lifts(self, coeffs, cartan_basis):
        """sum c * lift over the liftable Cartan basis, added in its order."""
        acc = LocElem.const(self.dset, 0)
        for c, (_, lift) in zip(coeffs, cartan_basis):
            if c:
                acc = acc + lift * c
        return acc

    # -- Heisenberg lift -----------------------------------------------------

    def _lift_through(self, lv, stages, lifted, cartan_basis):
        """Carry every still-unconsumed generator through the stages of
        this level by their s-maps, in list order.

        Only Cartan elements annihilated by the cascade root survive: the
        coroot of xi went into the slice of D_xi, as the roots of the layer
        went into the other slices.  The liftable Cartan span is cut down
        to that kernel."""
        basis = self.basis
        rs = basis.rs
        consumed = set(lv.gamma)
        new_lifted = {}
        for r in rs.positive_roots:
            sym = basis.pos_symbol[r]
            if sym in lifted and r not in consumed:
                new_lifted[sym] = apply_stages(stages, lifted[sym])

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
            pre = self._combine_lifts(combo, cartan_basis)
            new_cartan_basis.append((vec, apply_stages(stages, pre)))
        return new_lifted, new_cartan_basis

    # -- generators ------------------------------------------------------------

    def cartan_complement(self):
        """Basis of the orthogonal complement of the cascade coroots in h,
        as linear forms in the Cartan symbols (exact kernel, deterministic
        pivoting)."""
        basis = self.basis
        rs = basis.rs
        # sum c_i H_i pairs with the coroot of xi as a positive multiple
        # of sum c_i xi(H_i), so each row is the functional h -> xi(h)
        rows = [
            [rs.cartan_pairing(xi, a) for a in rs.simple_roots]
            for xi in self.cascade.entries
        ]
        return [
            Poly.linear(basis.symbols, dict(zip(basis.cartan_symbols, vec)))
            for vec in linalg.nullspace(rows, ncols=rs.rank)
        ]

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
                (f"P(Hc{i + 1})", p.apply(LocElem(self.dset, h)))
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
        basis = self.basis
        return [
            ad_derivation(basis, self.dset, basis.pos_symbol[a])
            for a in basis.rs.simple_roots
        ]
