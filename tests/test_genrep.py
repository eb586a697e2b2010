import random
from fractions import Fraction

import pytest

from uproj import linalg
from uproj.genrep import (
    RepConstruction,
    RepInput,
    RepValidationError,
    adjoint_rep,
    defining_rep,
    load_rep,
)
from uproj.projector import Projector
from uproj.symfield import LocElem, Poly


def generator_matrices(rep):
    """The Chevalley generator matrices (simple E, simple F, all H)."""
    b = rep.basis
    keys = list(b.cartan_symbols)
    keys += [b.pos_symbol[a] for a in b.rs.simple_roots]
    keys += [b.neg_symbol[a] for a in b.rs.simple_roots]
    return {s: [list(row) for row in rep.rho[s]] for s in keys}


def direct_sum(rep1, rep2):
    b = rep1.basis
    n1, n2 = rep1.dim, rep2.dim
    mats = {}
    for s, m1 in generator_matrices(rep1).items():
        m2 = rep2.rho[s]
        rows = [list(m1[i]) + [Fraction(0)] * n2 for i in range(n1)]
        rows += [[Fraction(0)] * n1 + list(m2[i]) for i in range(n2)]
        mats[s] = rows
    return RepInput(b, n1 + n2, mats, list(rep1.weights) + list(rep2.weights))


def test_sl2_defining_single_generator(basis_of):
    rep = defining_rep(basis_of("A", 1))
    c = RepConstruction(rep)
    gs = c.generator_set()
    assert [n for n, _ in gs.entries] == ["Lambda1"]
    assert str(gs.entries[0][1]) == "y2"
    assert gs.all_verified()


def test_sl3_defining_single_generator(basis_of):
    rep = defining_rep(basis_of("A", 2))
    c = RepConstruction(rep)
    gs = c.generator_set()
    assert [(n, str(e)) for n, e in gs.entries] == [("Lambda1", "y3")]
    assert gs.all_verified()


def test_sl3_defining_stage_projector_values(basis_of):
    rep = defining_rep(basis_of("A", 2))
    c = RepConstruction(rep)
    stage = c.stages[0]
    p0 = Projector(stage.stages)
    y1 = LocElem(c.dset, Poly.variable(rep.variables, "y1"))
    y2 = LocElem(c.dset, Poly.variable(rep.variables, "y2"))
    y3 = LocElem(c.dset, Poly.variable(rep.variables, "y3"))
    assert p0.apply(y1).is_zero()
    assert p0.apply(y2).is_zero()
    assert p0.apply(y3) == y3
    assert str(stage.lowest_form) == "y3"
    assert len(stage.m_roots) == 2


def test_first_stage_data(basis_of):
    rep = defining_rep(basis_of("A", 1))
    st = RepConstruction(rep).stages[0]
    assert st.index == 1
    assert str(st.denominator) == "y2"


def test_direct_sum_single_stage_sl2(basis_of):
    b = basis_of("A", 1)
    rep = direct_sum(defining_rep(b), defining_rep(b))
    c = RepConstruction(rep)
    assert len(c.stages) == 1
    gs = c.generator_set()
    got = [(n, str(e)) for n, e in gs.entries]
    assert got == [
        ("Lambda1", "y2"),
        ("P(f1)", "y4"),
        ("P(f2)", "(y2*y3 - y1*y4)*(y2)^-1"),
    ]
    assert gs.all_verified()


def test_direct_sum_two_stage_chain_sl3(basis_of):
    b = basis_of("A", 2)
    rep = direct_sum(defining_rep(b), defining_rep(b))
    c = RepConstruction(rep)
    assert len(c.stages) == 2
    gs = c.generator_set()
    got = [(n, str(e)) for n, e in gs.entries]
    assert got == [
        ("Lambda1", "y3"),
        ("Lambda2", "(y3*y5 - y2*y6)*(y3)^-1"),
        ("P(f1)", "y6"),
    ]
    assert gs.all_verified()


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2)])
def test_adjoint_as_rep_counting(basis_of, series, rank):
    b = basis_of(series, rank)
    c = RepConstruction(adjoint_rep(b))
    gs = c.generator_set()
    assert len(gs) == len(b.rs.positive_roots) + b.rs.rank
    assert gs.all_verified()


@pytest.mark.parametrize(
    "make",
    [defining_rep, adjoint_rep],
    ids=["defining", "adjoint"],
)
def test_count_matches_generic_orbit_codimension(basis_of, make):
    # transcendence degree = dim V - generic orbit dimension, orbit tangent
    # spanned by {rho(E_alpha) v : alpha > 0}
    b = basis_of("A", 2)
    rep = make(b)
    c = RepConstruction(rep)
    rng = random.Random(17)
    best = 0
    for _ in range(3):
        v = [Fraction(rng.randint(-9, 9)) for _ in range(rep.dim)]
        rows = []
        for r in b.rs.positive_roots:
            m = rep.rho[b.pos_symbol[r]]
            rows.append(linalg.mat_vec(m, v))
        best = max(best, linalg.rank(rows))
    assert len(c.generator_set(verify=False)) == rep.dim - best


def test_trivial_rep_everything_invariant(basis_of):
    b = basis_of("A", 1)
    zero = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    mats = {s: zero for s in ("E_1", "F_1", "H1")}
    rep = RepInput(b, 2, mats, [(0,), (0,)])
    c = RepConstruction(rep)
    gs = c.generator_set()
    assert len(gs) == 2
    assert sorted(str(e) for _, e in gs.entries) == ["y1", "y2"]


def test_corrupted_weight_rejected(basis_of):
    b = basis_of("A", 1)
    rep = defining_rep(b)
    mats = generator_matrices(rep)
    with pytest.raises(RepValidationError):
        RepInput(b, 2, mats, [(1,), (1,)])


def test_corrupted_matrix_rejected(basis_of):
    b = basis_of("A", 1)
    mats = generator_matrices(defining_rep(b))
    bad = [list(row) for row in mats["E_1"]]
    bad[0][1] = Fraction(2)
    bad[1][0] = Fraction(1)  # breaks [E, F] = H
    mats["E_1"] = bad
    with pytest.raises(RepValidationError):
        RepInput(b, 2, mats, [(1,), (-1,)])


def test_wrong_shape_matrix_rejected(basis_of):
    b = basis_of("A", 1)
    mats = generator_matrices(defining_rep(b))
    mats["E_1"] = [[Fraction(0)]]
    with pytest.raises(RepValidationError):
        RepInput(b, 2, mats, [(1,), (-1,)])


def test_load_rep_roundtrip(basis_of):
    b = basis_of("A", 1)
    rep = defining_rep(b)
    data = {
        "type": "A",
        "rank": 1,
        "dim": 2,
        "matrices": {
            s: [[str(c) for c in row] for row in m]
            for s, m in generator_matrices(rep).items()
        },
        "weights": [[1], [-1]],
    }
    loaded = load_rep(data)
    assert loaded.rho == rep.rho
    assert loaded.weights == rep.weights


def test_derived_root_matrices_respect_brackets(basis_of):
    b = basis_of("A", 2)
    rep = defining_rep(b)
    # rho extends to non-simple roots; E_11 should be [E_10, E_01] / N
    r_sum = b.rs.positive_roots[-1]
    m = rep.rho[b.pos_symbol[r_sum]]
    assert any(any(c for c in row) for row in m)
    rep.validate()


def test_generators_invariant_under_simple_derivations(basis_of):
    b = basis_of("A", 2)
    c = RepConstruction(adjoint_rep(b))
    gs = c.generator_set(verify=False)
    for d in c.simple_derivations():
        for name, elem in gs.entries:
            assert d.apply(elem).is_zero(), (name, d.label)
