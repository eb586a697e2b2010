"""U-projector for the adjoint representation.

Walks the Kostant cascade level by level.  Each level contributes one
stage for the cascade root (its slice is -1/2 its coroot over its root
vector) and one stage per paired root of the Heisenberg layer.  Every
element a level reads (the root vector E_xi, the coroot of xi and each
pair partner) is first carried through the s-maps of the levels before
it, so it is killed by every derivation of those levels (the Dixmier map
of a locally nilpotent derivation with a slice); the carried cascade root
vectors form the invariant denominator chain.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .projector import Derivation, Projector, Stage, apply_stages
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


class AdjointConstruction(Construction):
    """Builds the stages of each cascade level and the composed projector."""

    def __init__(self, basis):
        self.basis = basis
        self.cascade = kostant_cascade(basis.rs)
        self.dset = DenominatorSet(basis.symbols)
        # one derivation per positive root symbol, shared by its stage and,
        # for a simple root, by simple_derivations
        self.derivations = {
            sym: ad_derivation(basis, self.dset, sym)
            for sym in basis.pos_symbol.values()
        }
        self.xi_elements = []  # the invariant denominator chain
        stages = []  # of the levels built so far, in application order
        for lv in self.cascade.levels:
            stages += self._build_level(lv, stages)
        self.projector = Projector(self.dset, stages)

    # -- level construction -------------------------------------------------

    def _carry(self, stages, coeffs):
        """The linear form {symbol: coefficient} carried through the
        stages by their s-maps."""
        form = Poly.linear(self.basis.symbols, coeffs)
        return apply_stages(stages, LocElem(self.dset, form))

    def _build_level(self, lv, before):
        """The level's stages, xi first, each over the carried E_xi; what
        they read is carried through before, the stages of the levels
        built so far."""
        basis = self.basis
        e_xi = self._carry(before, {basis.pos_symbol[lv.xi]: 1})
        self.xi_elements.append(e_xi)
        h_xi = self._carry(
            before,
            dict(zip(basis.cartan_symbols, basis.coroot_coefficients(lv.xi))),
        )
        d_xi = self.derivations[basis.pos_symbol[lv.xi]]
        stages = [Stage(d_xi, h_xi * Fraction(-1, 2), e_xi)]

        partners = dict(lv.pairing)
        for alpha in lv.gamma:
            if alpha == lv.xi:
                continue
            sym, partner = basis.pos_symbol[alpha], basis.pos_symbol[partners[alpha]]
            # [E_alpha, E_partner] = N E_xi
            ((_, n),) = basis.table[sym][partner]
            d_alpha = self.derivations[sym]
            e_partner = self._carry(before, {partner: 1})
            stages.append(Stage(d_alpha, e_partner * (Fraction(-1) / n), e_xi))
        return stages

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
        pos_symbol = self.basis.pos_symbol
        return [self.derivations[pos_symbol[a]] for a in self.basis.rs.simple_roots]
