"""Test-side oracles: exact checks that only the tests call.

The Killing form and the Casimir element give an independent degree-2
invariant of the adjoint pipeline; the cross-section check samples
necessary conditions for free generation at points pi(x) of the
projector's image.  `smap_forward` is the slice exponential summed term
by term, the reference for the Horner-order `projector.smap`, and
`derivation_apply` the quotient rule one generator at a time, the
reference for `Derivation.apply`; `is_root`
is root-set membership, and `witnesses` lists the witness numerators of
a projector's stages.  `orbit_rank` is the dimension of the U-orbit
through a point, for the count certificate |G| = dim V - dim(orbit).
`mat_vec` and `mat_inv` are dense Fraction matrix arithmetic,
`poly_from_json` and `locelem_from_json` read back what `to_json`
writes, and `leading` and `coefficient_of` read one term of a Poly; the
library no longer carries them.  `sparse_combination` sums sparse rows
through Fraction rows, the reference for `linalg.sparse_commutator`, and
`root_coefficients` solves for the simple-root coefficients of every
root, the reference for the ones the reflection closure carries.
"""

import random
from fractions import Fraction

from uproj import linalg
from uproj.projector import (
    NotLocallyNilpotent,
    jacobian_rank,
    sample_regular_point,
)
from uproj.symfield import LocElem, Poly, SingularPointError


def mat_vec(a, v):
    """The product of a rational matrix and a vector, by dense Fraction
    sums."""
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_inv(rows):
    """The inverse of an invertible rational matrix, by dense Gauss-Jordan
    elimination over Fraction."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def sparse_combination(terms, nrows):
    """The sparse rows of the sum of c * m over the (c, m) in terms, each m
    sparse rows of nrows rows and each c an int or a Fraction, summed one
    Fraction entry at a time."""
    out = []
    for i in range(nrows):
        acc = {}
        for c, m in terms:
            den, entries = m[i]
            for j, x in entries:
                acc[j] = acc.get(j, 0) + Fraction(c) * x / den
        row = [acc.get(j, 0) for j in range(max(acc, default=-1) + 1)]
        out += linalg.sparse_rows([row])
    return tuple(out)


def witnesses(projector):
    """The numerators a1 of the stage witnesses (a1, a0), in stage order."""
    return [s.witness[0] for s in projector.stages]


def poly_from_json(data):
    """The Poly that a Poly.to_json object describes."""
    terms = {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
        for t in data["terms"]
    }
    return Poly(tuple(data["vars"]), terms)


def leading(p):
    """The leading (exp, coeff) of a Poly in grevlex order, the first term
    of its JSON; None for zero."""
    terms = p.to_json()["terms"]
    if not terms:
        return None
    t = terms[0]
    return tuple(t["exp"]), Fraction(int(t["num"]), int(t["den"]))


def poly_text(p):
    """str(p) written term by term from the Fraction view, in grevlex
    order: the reference for Poly.formatted's text."""
    terms = sorted(p.terms.items(), key=lambda t: (-sum(t[0]), t[0][::-1]))
    parts = []
    for exp, c in terms:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exp) if e
        )
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def coefficient_of(p, name):
    """The coefficient of the degree-one monomial `name` in a Poly."""
    return p.terms.get(tuple(int(v == name) for v in p.vars), Fraction(0))


def locelem_from_json(dset, data):
    """The LocElem over dset that a LocElem.to_json object describes."""
    den = [0] * len(dset)
    for d in data.get("denom", ()):
        den[d["gen_index"]] = d["power"]
    return LocElem(dset, poly_from_json(data), den)


def orbit_rank(derivations, dset, point):
    """Dimension of the orbit through a point of the group whose Lie
    algebra the derivations span: the rank of the vectors
    (D(x_1), ..., D(x_n)) at the point."""
    return linalg.rank(
        [
            [d.apply(LocElem.variable(dset, v)).evaluate(point) for v in dset.vars]
            for d in derivations
        ]
    )


def root_coefficients(rs):
    """{root: coefficients over the simple roots} for every root of rs, by
    one rational linear solve against the simple roots' columns."""
    rows = [list(map(Fraction, r)) for r in zip(*rs.simple_roots)]
    sols = linalg.solve_columns(rows, [list(root) for root in rs.roots])
    if sols is None:
        raise ValueError("a root is outside the span of the simple roots")
    return {root: tuple(sol) for root, sol in zip(rs.roots, sols)}


def is_root(rs, v):
    """Whether v is a root of rs, by a scan of its root tuple."""
    return tuple(v) in rs.roots


def smap_forward(stage, a):
    """Slice exponential sum_k (-1)^k D^k(a) q^k / k! of a stage, added
    term by term in increasing k, with the iteration cap of
    projector.smap."""
    derivation = stage.derivation
    if isinstance(a, Poly):
        a = LocElem(derivation.dset, a)
    q = stage.q
    iter_cap = 10 * a.total_degree() + 16
    result = a
    cur = a
    qpow = LocElem.const(a.dset, 1)
    sign = 1
    fact = 1
    k = 0
    while True:
        cur = derivation.apply(cur)
        if cur.is_zero():
            return result
        k += 1
        if k > iter_cap:
            raise NotLocallyNilpotent(
                f"derivation {derivation.label} not locally nilpotent on input "
                f"(cap {iter_cap} exceeded)"
            )
        sign = -sign
        fact *= k
        qpow = qpow * q
        result = result + cur * qpow * Fraction(sign, fact)


def derivation_apply(derivation, a):
    """D(n / prod g_i^e_i) = D(n) / prod g^e - a sum_i e_i D(g_i) / g_i,
    in LocElem arithmetic, with D(p) = sum_v D(v) dp/dv on polynomials."""
    dset = derivation.dset
    if isinstance(a, Poly):
        a = LocElem(dset, a)

    def on_poly(p):
        out = Poly.const(dset.vars, 0)
        for v, img in derivation.images.items():
            out = out + p.deriv(v) * img
        return out

    result = LocElem(dset, on_poly(a.num), a.den)
    for i, e in enumerate(a.den):
        if e:
            inv_g = [0] * (i + 1)
            inv_g[i] = 1
            result = result - a * LocElem(dset, on_poly(dset.gens[i]) * e, inv_g)
    return result


def killing_form(basis):
    """Exact Killing form matrix over the Chevalley basis symbols."""
    symbols = basis.symbols
    n = len(symbols)
    ad = []
    for s in symbols:
        mat = []
        for t in symbols:
            d = basis.bracket({s: 1}, {t: 1})
            mat.append([d.get(u, Fraction(0)) for u in symbols])
        # mat[j][i] = coefficient of symbol_i in [s, symbol_j]
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
    inv = mat_inv(kappa)
    symbols = basis.symbols
    poly = Poly(symbols)
    for i, u in enumerate(symbols):
        for j, v in enumerate(symbols):
            if inv[i][j]:
                poly = poly + (
                    Poly.variable(symbols, u) * Poly.variable(symbols, v) * inv[i][j]
                )
    return LocElem(dset, poly)


def cross_section_check(projector, candidates, trials=10, seed=0):
    """Sampled necessary conditions for free generation.

    (i) P acts as the identity at the cross-section points pi(x), for
    random regular points x (a trial whose pi(x) meets a vanishing
    denominator is skipped); (ii) the Jacobian of the projected candidates
    together with the denominator generators has full rank at a random
    regular point.  The ideal-generation hypothesis is not decidable here;
    checks are reported as necessary conditions only.
    """
    rng = random.Random(seed)
    dset = projector.dset
    checks = []

    projected = [projector.apply(b) for b in candidates]

    for t in range(trials):
        try:
            point = projector.image_point(sample_regular_point(dset, rng))
        except SingularPointError:
            continue
        for b, pb in zip(candidates, projected):
            try:
                lhs = pb.evaluate(point)
                rhs = b.evaluate(point)
            except SingularPointError:
                continue
            ok = lhs == rhs
            checks.append(
                {
                    "name": f"res_identity:trial{t}",
                    "status": "pass" if ok else "fail",
                    **({} if ok else {"residue": str(lhs - rhs)}),
                }
            )
            if not ok:
                break

    if not candidates:
        checks.append(
            {"name": "jacobian_rank", "status": "pass", "rank": 0, "expected": 0}
        )
    else:
        elems = list(projected)
        for g in dset.gens:
            cand = LocElem(dset, g)
            if not any(cand == e for e in elems):
                elems.append(cand)
        point = sample_regular_point(dset, rng)
        r = jacobian_rank(dset, elems, point)
        checks.append(
            {
                "name": "jacobian_rank",
                "status": "pass" if r == len(elems) else "fail",
                "rank": r,
                "expected": len(elems),
            }
        )
    checks.append(
        {
            "name": "ideal_generation_hypothesis",
            "status": "inconclusive",
            "detail": "necessary conditions only; not decided symbolically",
        }
    )
    return {"checks": checks}
