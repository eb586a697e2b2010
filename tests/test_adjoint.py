import random
from fractions import Fraction

import pytest

from uproj.adjoint import casimir_element, killing_form
from uproj.exprparse import parse_expression
from uproj.liealg import LieElement
from uproj.projector import jacobian_rank, sample_regular_point
from uproj.symfield import LocElem

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
            d = c._plain_derivation(r)
            rows.append(
                [d.apply(LocElem.variable(c.dset, v)).evaluate(pt)
                 for v in c.dset.vars]
            )
        from uproj import linalg

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
    from uproj import linalg

    assert linalg.rank(kappa) == n

    # ad-invariance kappa([x,y],z) + kappa(y,[x,z]) = 0 on sampled triples
    rng = random.Random(8)

    def rand_elem():
        return LieElement.make(b, {s: Fraction(rng.randint(-2, 2)) for s in b.symbols})

    def pair(u, v):
        cu, cv = u.as_dict(), v.as_dict()
        idx = {s: i for i, s in enumerate(b.symbols)}
        return sum(
            c1 * c2 * kappa[idx[s1]][idx[s2]]
            for s1, c1 in cu.items()
            for s2, c2 in cv.items()
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
    for d, sp in c.projector.stages:
        assert d.apply(sp.q).constant_value() == 1
        if sp.witness is not None:
            a1, a0 = sp.witness
            assert d.apply(a1) == a0


def test_q_accessors(adjoint_of):
    c = adjoint_of("A", 2)
    lv = c.cascade.levels[0]
    d_xi, sp = c.levels[0].stages[0]
    assert d_xi.label == f"D_{c.basis.symbol_of(lv.xi)}"
    assert d_xi.apply(sp.q).constant_value() == 1
    other = [a for a in lv.gamma if a != lv.xi][0]
    labels = [d.label for d, _ in c.levels[0].stages[1:]]
    assert f"D_{c.basis.symbol_of(other)}" in labels


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


def test_bracket_outside_heisenberg_layer_raises(adjoint_of):
    c = adjoint_of("A", 2)
    a1, a2 = c.basis.rs.simple_roots
    with pytest.raises(RuntimeError, match="Heisenberg layer"):
        c._bracket_in_gamma0(a1, a2, [])
