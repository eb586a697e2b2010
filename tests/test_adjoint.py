import hashlib
import json
import random
from fractions import Fraction

import pytest

from uproj import linalg, projector
from uproj.adjoint import AdjointConstruction, ad_derivation
from uproj.exprparse import parse_expression
from uproj.projector import apply_stages, jacobian_rank, sample_regular_point
from uproj.symfield import LocElem, Poly

from oracles import casimir_element, killing_form, orbit_rank

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


def test_sl2_exact_generator_set(adjoint_of):
    c = adjoint_of("A", 1)
    gs = c.generator_set()
    by_name = dict(gs.entries)
    assert set(by_name) == {"P(F_1)", "Xi1"}
    assert by_name["Xi1"] == parse_expression("E_1", c.dset)
    assert by_name["P(F_1)"] == parse_expression("F_1 + 1/4*H1^2*E_1^-1", c.dset)
    assert gs.all_verified()


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_counting_law(adjoint_of, series, rank):
    c = adjoint_of(series, rank)
    gs = c.generator_set(verify=False)
    expected = len(c.basis.rs.positive_roots) + c.basis.rs.rank
    assert len(gs) == expected
    assert gs.metadata["expected_count"] == expected


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_generator_count_matches_generic_orbit_codimension(adjoint_of, series, rank):
    # transcendence degree of the invariant field = dim g - generic orbit
    # dimension; the orbit tangent space at p is spanned by the vector
    # fields of the positive-root derivations
    c = adjoint_of(series, rank)
    rs = c.basis.rs
    rng = random.Random(21)
    best = 0
    for _ in range(3):
        pt = {v: Fraction(rng.randint(-9, 9)) for v in c.dset.vars}
        rows = []
        for r in rs.positive_roots:
            d = ad_derivation(c.basis, c.dset, c.basis.pos_symbol[r])
            rows.append(
                [d.apply(LocElem.variable(c.dset, v)).evaluate(pt)
                 for v in c.dset.vars]
            )
        best = max(best, linalg.rank(rows))
    dim = len(c.basis.symbols)
    assert len(c.generator_set(verify=False)) == dim - best


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_generators_invariant_under_simple_derivations(adjoint_of, series, rank):
    c = adjoint_of(series, rank)
    gs = c.generator_set(verify=False)
    family = c.simple_derivations()
    for name, elem in gs.entries:
        for d in family:
            assert d.apply(elem).is_zero(), (name, d.label)


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_jacobian_rank_at_seeded_points(adjoint_of, series, rank):
    c = adjoint_of(series, rank)
    gs = c.generator_set(verify=False)
    rng = random.Random(2024)
    for _ in range(3):
        pt = sample_regular_point(c.dset, rng)
        assert jacobian_rank(c.dset, gs.elements, pt) == len(gs)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2)])
def test_casimir_is_fixed(adjoint_of, series, rank):
    c = adjoint_of(series, rank)
    cas = casimir_element(c.basis, c.dset)
    assert c.projector.apply(cas) == cas


def test_sl2_casimir_explicit(adjoint_of):
    c = adjoint_of("A", 1)
    cas = parse_expression("H1^2 + 4*E_1*F_1", c.dset)
    assert c.projector.apply(cas) == cas


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_killing_form_symmetric_invariant_nondegenerate(basis_of, series, rank):
    b = basis_of(series, rank)
    kappa = killing_form(b)
    n = len(b.symbols)
    assert len(kappa) == n
    for i in range(n):
        for j in range(n):
            assert kappa[i][j] == kappa[j][i]
    assert linalg.rank(kappa) == n

    # ad-invariance kappa([x,y],z) + kappa(y,[x,z]) = 0 on sampled triples
    rng = random.Random(8)

    def rand_elem():
        return {s: Fraction(rng.randint(-2, 2)) for s in b.symbols}

    def pair(u, v):
        idx = {s: i for i, s in enumerate(b.symbols)}
        return sum(
            c1 * c2 * kappa[idx[s1]][idx[s2]]
            for s1, c1 in u.items()
            for s2, c2 in v.items()
        )

    for _ in range(5):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert pair(b.bracket(x, y), z) + pair(y, b.bracket(x, z)) == 0


def test_sl2_killing_values(basis_of):
    b = basis_of("A", 1)
    kappa = killing_form(b)
    idx = {s: i for i, s in enumerate(b.symbols)}
    assert kappa[idx["H1"]][idx["H1"]] == 8
    assert kappa[idx["E_1"]][idx["F_1"]] == 4
    assert kappa[idx["E_1"]][idx["E_1"]] == 0


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_stage_witnesses_and_slices(adjoint_of, series, rank):
    c = adjoint_of(series, rank)
    for st in c.projector.stages:
        d = st.derivation
        assert d.apply(st.q).constant_value() == 1
        a1, a0 = st.witness
        assert d.apply(a1) == a0


def test_q_accessors(adjoint_of):
    c = adjoint_of("A", 2)
    lv = c.cascade.levels[0]
    # the first level's stages, xi first, over the carried E_xi up to sign
    level = c.projector.stages[: len(lv.gamma)]
    d_xi = level[0].derivation
    assert d_xi.label == f"D_{c.basis.pos_symbol[lv.xi]}"
    assert d_xi.apply(level[0].q).constant_value() == 1
    e_xi = c.xi_elements[0]
    assert all(st.witness[1] in (e_xi, -e_xi) for st in level)
    other = [a for a in lv.gamma if a != lv.xi][0]
    labels = [st.derivation.label for st in level[1:]]
    assert f"D_{c.basis.pos_symbol[other]}" in labels


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)],
)
def test_count_is_dim_minus_orbit_dimension(adjoint_of, series, rank):
    # the transcendence degree of the invariant field is dim V minus the
    # generic U-orbit dimension (Rosenlicht), and ranks at one point are
    # at most the generic ones: Jacobian rank = |G| = dim V - O(pt)
    # certifies the count at the verify point
    c = adjoint_of(series, rank)
    b = c.basis
    gs = c.generator_set(verify=False)
    point = sample_regular_point(c.dset, random.Random(0))
    family = [ad_derivation(b, c.dset, b.pos_symbol[r]) for r in b.rs.positive_roots]
    assert jacobian_rank(c.dset, gs.elements, point) == len(gs)
    assert len(gs) == len(c.dset.vars) - orbit_rank(family, c.dset, point)


def test_cascade_denominators_are_invariant(adjoint_of):
    c = adjoint_of("A", 3)
    family = c.simple_derivations()
    for xi_elem in c.xi_elements:
        for d in family:
            assert d.apply(xi_elem).is_zero()


def test_cartan_complement_is_orthogonal_kernel(adjoint_of):
    c = adjoint_of("A", 3)
    comp = c.cartan_complement()
    rs = c.basis.rs
    assert len(comp) == rs.rank - len(c.cascade.entries)


def test_generator_set_json_contract(adjoint_of):
    gs = adjoint_of("A", 1).generator_set()
    data = gs.to_json()
    assert set(data) == {"generators", "denominator_set", "metadata", "verification"}
    assert all({"name", "element", "text"} <= set(g) for g in data["generators"])


def _quadratic_correction(c, lv, lifted, action):
    """Reference lift: the b, quadratic in the lifted Gamma^0 root vectors
    over the lifted E_xi, with {b, E_g} = action(g) for every g in Gamma^0,
    from one dense linear solve."""
    basis = c.basis
    gamma0 = [a for a in lv.gamma if a != lv.xi]
    if not gamma0:
        return LocElem.const(c.dset, 0)
    pairs = [(a, b) for i, a in enumerate(gamma0) for b in gamma0[i:]]

    def plus(x, y):
        return tuple(u + v for u, v in zip(x, y))

    rows, rhs = [], []
    for g in gamma0:
        target = action(g)
        for delta in gamma0:
            # {E_a E_b / E_xi, E_g} = [g=b'] N(b,g) E_a + [g=a'] N(a,g) E_b
            row = []
            for a, b in pairs:
                coef = Fraction(0)
                if plus(b, g) == lv.xi and a == delta:
                    coef += basis.structure_constant(b, g)
                if plus(a, g) == lv.xi and b == delta:
                    coef += basis.structure_constant(a, g)
                row.append(coef)
            rows.append(row)
            rhs.append(Fraction(target.get(delta, 0)))
    sol = linalg.solve(rows, rhs)
    assert sol is not None
    e_xi_inv = lifted[basis.pos_symbol[lv.xi]].inverse()
    result = LocElem.const(c.dset, 0)
    for coef, (a, b) in zip(sol, pairs):
        if coef:
            term = lifted[basis.pos_symbol[a]] * lifted[basis.pos_symbol[b]]
            result = result + term * e_xi_inv * coef
    return result


def _reference_lift(c, lv, lifted, cartan_basis):
    """Lift through one level by quadratic-over-center corrections."""
    basis = c.basis
    rs = basis.rs
    gamma0 = [a for a in lv.gamma if a != lv.xi]
    new_lifted = {}
    for r in rs.positive_roots:
        sym = basis.pos_symbol[r]
        if sym not in lifted or r in lv.gamma:
            continue

        def bracket_action(g, r=r):
            s = tuple(x + y for x, y in zip(r, g))
            if s not in basis._root_set:
                return {}
            assert s in gamma0
            return {s: basis.structure_constant(r, g)}

        new_lifted[sym] = lifted[sym] - _quadratic_correction(
            c, lv, lifted, bracket_action
        )
    xi_row = [rs.cartan_pairing(lv.xi, a) for a in rs.simple_roots]
    values = [sum(x * v for x, v in zip(xi_row, vec)) for vec, _ in cartan_basis]
    new_cartan_basis = []
    for combo in linalg.nullspace([values], ncols=len(cartan_basis)):
        vec = tuple(
            sum(x * b[0][i] for x, b in zip(combo, cartan_basis))
            for i in range(rs.rank)
        )
        pre = LocElem.const(c.dset, 0)
        for x, (_, lift) in zip(combo, cartan_basis):
            pre = pre + lift * x

        def h_action(g, vec=vec):
            # [h, E_g] = g(h) E_g with h over the simple coroots
            return {
                g: sum(
                    v * rs.cartan_pairing(g, a)
                    for v, a in zip(vec, rs.simple_roots)
                )
            }

        new_cartan_basis.append(
            (vec, pre - _quadratic_correction(c, lv, lifted, h_action))
        )
    return new_lifted, new_cartan_basis


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G", 2)],
)
def test_lift_through_a_level_is_its_s_maps(basis_of, series, rank):
    # the reference's inputs at a level are every root coordinate not yet
    # consumed and a basis of the Cartan kernel of the earlier cascade
    # roots, each carried through the earlier levels; the level's own
    # s-maps carry them to the quadratic-over-center solution, and carry
    # every coordinate into the kernel of each derivation of the level
    c = AdjointConstruction(basis_of(series, rank))
    basis = c.basis
    rs = basis.rs

    def carry(stages, coeffs):
        form = Poly.linear(basis.symbols, coeffs)
        return apply_stages(stages, LocElem(c.dset, form))

    before, consumed = [], set()
    for k, lv in enumerate(c.cascade.levels):
        # one stage for xi and one per paired root
        level = c.projector.stages[len(before): len(before) + len(lv.gamma)]
        through = before + level
        roots = [r for r in rs.positive_roots if r not in consumed]
        lifted = {
            basis.pos_symbol[r]: carry(before, {basis.pos_symbol[r]: 1})
            for r in roots
        }
        rows = [
            [rs.cartan_pairing(xi, a) for a in rs.simple_roots]
            for xi in c.cascade.entries[:k]
        ]
        cartan_basis = [
            (tuple(vec), carry(before, dict(zip(basis.cartan_symbols, vec))))
            for vec in linalg.nullspace(rows, ncols=rs.rank)
        ]
        new_lifted, new_cartan_basis = _reference_lift(c, lv, lifted, cartan_basis)
        assert new_lifted == {
            basis.pos_symbol[r]: apply_stages(level, lifted[basis.pos_symbol[r]])
            for r in roots
            if r not in lv.gamma
        }
        for vec, lift in new_cartan_basis:
            assert lift == carry(through, dict(zip(basis.cartan_symbols, vec)))

        lifts = [*new_lifted.values(), *(h for _, h in new_cartan_basis)]
        lifts += [carry(level, {v: 1}) for v in c.dset.vars]
        for st in level:
            for lift in lifts:
                assert st.derivation.apply(lift).is_zero(), (lv.xi, st.derivation.label)
        before, consumed = through, consumed | set(lv.gamma)
    assert before == c.projector.stages


@pytest.mark.parametrize("series,rank,calls", [("A", 3, 10), ("D", 5, 148)])
def test_adjoint_construction_work_is_pinned(basis_of, monkeypatch, series, rank, calls):
    # each level carries through the earlier levels only what it reads:
    # E_xi, the coroot of xi and the pair partners
    count = [0]
    smap = projector.smap

    def counting(*args):
        count[0] += 1
        return smap(*args)

    monkeypatch.setattr(projector, "smap", counting)
    AdjointConstruction(basis_of(series, rank))
    assert count[0] == calls


def _construction_digest(c):
    h = hashlib.sha256()
    for st in c.projector.stages:
        h.update(st.derivation.label.encode())
        h.update(json.dumps(st.q.to_json(), sort_keys=True).encode())
        witness = [w.to_json() for w in st.witness]
        h.update(json.dumps(witness, sort_keys=True).encode())
    h.update(json.dumps(c.dset.to_json(), sort_keys=True).encode())
    h.update(
        json.dumps([x.to_json() for x in c.xi_elements], sort_keys=True).encode()
    )
    return h.hexdigest()


@pytest.mark.parametrize(
    "series,rank,digest",
    [
        ("F", 4, "5f4c0428f7d3d6f34220a4c3fe1aee7ce2069d18bcc1d103580089b5383e964a"),
        ("E", 6, "02cefebc11f5a0cdf527ff989a5a9cd996fef860f238f5c75faeec4aa2280683"),
    ],
)
def test_exceptional_construction_is_pinned(basis_of, series, rank, digest):
    # stages (label, slice, witness), denominator set and Xi chain
    assert _construction_digest(AdjointConstruction(basis_of(series, rank))) == digest


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
    ("G", 2), ("F", 4), ("E", 6),
])
def test_simple_derivations_are_the_stage_derivations(basis_of, series, rank):
    # every positive root has exactly one stage, so each simple root's
    # derivation is a stage's; verify reads those, and each equals a
    # freshly built one
    basis = basis_of(series, rank)
    c = AdjointConstruction(basis)
    stage_derivations = [st.derivation for st in c.projector.stages]
    assert sorted(d.label for d in stage_derivations) == sorted(
        f"D_{s}" for s in basis.pos_symbol.values()
    )
    family = c.simple_derivations()
    assert len(family) == rank
    for a, d in zip(basis.rs.simple_roots, family):
        assert any(d is s for s in stage_derivations)
        fresh = ad_derivation(basis, c.dset, basis.pos_symbol[a])
        assert (d.label, d.images) == (fresh.label, fresh.images)
