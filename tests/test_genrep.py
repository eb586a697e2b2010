import hashlib
import json
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
from uproj.projector import Projector, jacobian_rank, sample_regular_point
from uproj.symfield import LocElem, Poly

from oracles import mat_vec, orbit_rank


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


class CorruptedRep(RepInput):
    """A copy of a validated rep whose operator `sym` has 1 added to its
    entry (i, j) after validation; the rep's own mappings are read-only."""

    def __init__(self, rep, sym, i, j):
        self._corruption = (sym, i, j)
        super().__init__(rep.basis, rep.dim, generator_matrices(rep), rep.weights)

    def validate(self):
        super().validate()
        sym, i, j = self._corruption
        m = [list(row) for row in self.rho[sym]]
        m[i][j] += 1
        self.rho = {**self.rho, sym: m}
        self.sparse = {**self.sparse, sym: linalg.sparse_rows(m)}


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
    p0 = Projector(c.dset, stage.stages)
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
    assert str(st.denominator) == "y2"
    assert [s.witness[1] for s in st.stages] == [st.denominator]


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
            rows.append(mat_vec(m, v))
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


def _rep_construction_digest(c):
    h = hashlib.sha256()

    def add(data):
        h.update(json.dumps(data, sort_keys=True).encode())

    add(c.generator_set(seed=0).to_json())
    for stage in c.stages:
        add(stage.lowest_form.to_json())
        add([list(a) for a in stage.m_roots])
        add(stage.denominator.to_json())
        for st in stage.stages:
            h.update(st.derivation.label.encode())
            add(st.q.to_json())
            add([w.to_json() for w in st.witness])
    add(c.dset.to_json())
    return h.hexdigest()


def _pinned_rep(basis_of, name, series, rank):
    b = basis_of(series, rank)
    return {
        "def": lambda: defining_rep(b),
        "adj": lambda: adjoint_rep(b),
        "def+def": lambda: direct_sum(defining_rep(b), defining_rep(b)),
        "def+adj": lambda: direct_sum(defining_rep(b), adjoint_rep(b)),
    }[name]()


@pytest.mark.parametrize(
    "name,series,rank,digest",
    [
        ("def", "A", 1,
         "cb03ca6f85f9e9ac96cb0c684d17c263b1cfa22299b8e2048a4481a4a47c7e3a"),
        ("def", "A", 2,
         "542029336efe8bde68befb00d65e1df4e9b3b26ccf1d1437195136e3adcad5ad"),
        ("def", "A", 3,
         "82126576194bae60e4ad51d5dd1f3c4a672adfa1adbaff4b21427121f67914c9"),
        ("adj", "A", 1,
         "22f94181d8a8941019eed50a7d3373fd34680e3564479272f6db2aa0447f712f"),
        ("adj", "A", 2,
         "26658167e30880dbaabddb07c83ade1449defe9a085f88ca74b1e833632465cb"),
        ("adj", "A", 3,
         "f7d8dba16388afa65b66e1fdada2c7cdfba86e0918c6e9bfe6dde18d3fe65f1a"),
        ("def+def", "A", 1,
         "e1039cd926ce6f5cdddbad5b5d449ac0dcffdda3d39b218c7ee737a1a3c0b5e6"),
        ("def+def", "A", 2,
         "81c36edb7dc91839c943928172ee2434243b4e13455a3d21e2cfc85efd0fd537"),
        ("def+def", "A", 3,
         "7cc2920c288862ef52d82450d2988a8329bbe04a9651d0f15f4e82caa7630b8d"),
        ("def+adj", "A", 1,
         "153f3be3ae3e1ea5275ece4567419e20dc661a908b8202107f24049c16065fcf"),
        ("def+adj", "A", 2,
         "3147fc3399a80b6ff4f61905d0417c212638f6972b2d9d59ed9bd9c59090915a"),
        ("def+adj", "A", 3,
         "48630b28c47f0e03a7841bbc5d14eb5e27ff24b15c5f1dfc779f980e09aeb427"),
        ("adj", "B", 2,
         "50ecee5cfaba6260919c5eacd859e4cebb5eb226e409da07790ce1704e075a67"),
        ("adj", "G", 2,
         "65a2342124d302601a1c25d49ba419139f21552fd3b4c94ae522ad72f002c295"),
    ],
)
def test_rep_construction_is_pinned(basis_of, name, series, rank, digest):
    # generator set, every stage's lowest form, nilradical roots,
    # denominator and (label, q, witness), and the denominator set
    rep = _pinned_rep(basis_of, name, series, rank)
    assert _rep_construction_digest(RepConstruction(rep)) == digest


@pytest.mark.parametrize(
    "name,series,rank,digest",
    [
        ("def", "A", 1,
         "0ab658f7cdac2c7f9f30897f443a1486f8a43878fbb2160e89891ac069787c1c"),
        ("def", "A", 2,
         "00cd2ae64fdbe148969403c14f39afc3ccb54a33e8f361eb1f4291c0b9daee16"),
        ("def", "A", 3,
         "4dee40c56da621891f9764ccdfbba945f5852cc3072722db84a4328e5947b2d3"),
        ("adj", "A", 1,
         "9ec1ba4caf94a9da3adf3d15e4408f53900b4946cf56c5cd882bd7927c72b6ee"),
        ("adj", "A", 2,
         "d274dc433c38f9feb2683fdc77bff4186d3102709d075a79cb588f1f193850a1"),
        ("adj", "A", 3,
         "5a46b491d8f82fdbf3d6a7de51d4f786be2e3e3f2b2c5bbed083dc838130becb"),
        ("def+def", "A", 1,
         "de5441b6c5548bf4da8ae128106ef5a45bbbdb1ac64f02003fe95c13a47c01d5"),
        ("def+def", "A", 2,
         "3a6b0ef4c2df8e84032142f00ba91ff074057622fd1f9cc23e1d86ec9f4f421d"),
        ("def+def", "A", 3,
         "98d4692e93fcadbce4668d4bd7cc53e81c7837f20a833f9866c88856898ce588"),
        ("def+adj", "A", 1,
         "77838fdd37701376fee9325a1d51acf34b9f96d4c3dc0903186c8033bb4241ca"),
        ("def+adj", "A", 2,
         "f5f20bfdce61e0b63c6c9fdd1ede3f1ae305422d5c2b7b9f2636c154521085fd"),
        ("def+adj", "A", 3,
         "9e93a8774d24263f2f8f6f06cb294b81781862e92b81c3134a7b5ea73b53de79"),
        ("adj", "B", 2,
         "78dafccd87470eebf531b0c3db64c1a2c55db78caae3bb1daf28c57c697f1780"),
        ("adj", "G", 2,
         "2e24039b9dcbd4ce71f094e3b87459f34c89b95fd00b83ef59e62e5d4ad4dc06"),
    ],
)
def test_closed_operators_are_pinned(basis_of, name, series, rank, digest):
    # the sparse rows of every symbol's operator, on every input
    # test_rep_construction_is_pinned pins, and the Fraction matrices of
    # rho, built on first read, are the same matrices
    rep = _pinned_rep(basis_of, name, series, rank)
    text = repr(sorted(rep.sparse.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert "rho" not in vars(rep)
    assert dict(rep.rho) == {
        s: linalg.dense_rows(m, rep.dim) for s, m in rep.sparse.items()
    }
    assert rep.rho is rep.rho


@pytest.mark.parametrize(
    "name,series,rank",
    [(name, "A", rank) for name in ("def", "adj", "def+def", "def+adj") for rank in (1, 2, 3)]
    + [("adj", "B", 2), ("adj", "G", 2)],
)
def test_count_is_dim_minus_orbit_dimension(basis_of, name, series, rank):
    # Jacobian rank = |G| = dim V - O(pt) at the verify point certifies the
    # count (see test_adjoint), on every input test_rep_construction_is_pinned
    # pins
    c = RepConstruction(_pinned_rep(basis_of, name, series, rank))
    gs = c.generator_set(verify=False)
    point = sample_regular_point(c.dset, random.Random(0))
    family = [c._ambient_derivation(r) for r in c.rep.basis.rs.positive_roots]
    assert jacobian_rank(c.dset, gs.elements, point) == len(gs)
    assert len(gs) == len(c.dset.vars) - orbit_rank(family, c.dset, point)


def test_rep_construction_work_is_pinned(basis_of, monkeypatch):
    # one construction on the input of the rep-adj-b2 benchmark workload,
    # the adjoint representation of B2: one elimination for the weight
    # order and one per stage for the forms, and their rows the only ones
    # converted from Fractions.  Span tests reduce one row at a time, so
    # an elimination per candidate would show here.
    rep = adjoint_rep(basis_of("B", 2))
    counts = dict.fromkeys(["_reduced", "_int_row"], 0)
    for name in counts:
        def counted(*args, _name=name, _f=getattr(linalg, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    RepConstruction(rep)
    assert counts == {"_reduced": 3, "_int_row": 19}


@pytest.mark.parametrize(
    "sym,i,j,message",
    [
        ("F_10", 5, 0, "operator does not preserve the span"),
        ("E_01", 5, 0, "does not fill the space"),
        ("E_10", 1, 2, "invariant complement has a wrong dimension"),
        ("E_11", 1, 2, "not a weight vector"),
        # the span check at the second stage: in the decomposition of the
        # stage span, and in the Levi decomposition of one of its summands
        ("B2 adjoint:F_10", 5, 1, "operator does not preserve the span"),
        ("A3 twice:F_100", 7, 4, "operator does not preserve the span"),
    ],
)
def test_construction_checks_reject_a_corrupted_operator(
    basis_of, sym, i, j, message
):
    # one entry changed after validation reaches each runtime check of
    # the peeling; the input is two copies of A2's defining representation
    # unless the case names another before its symbol
    inputs = {
        "": lambda: direct_sum(*[defining_rep(basis_of("A", 2))] * 2),
        "B2 adjoint": lambda: adjoint_rep(basis_of("B", 2)),
        "A3 twice": lambda: direct_sum(*[defining_rep(basis_of("A", 3))] * 2),
    }
    name, _, sym = sym.rpartition(":")
    rep = CorruptedRep(inputs[name](), sym, i, j)
    with pytest.raises(RepValidationError, match=message):
        RepConstruction(rep)


def test_validated_operators_are_read_only(basis_of):
    rep = adjoint_rep(basis_of("A", 2))
    with pytest.raises(TypeError):
        rep.rho["E_01"][1][6] += 1
    with pytest.raises(TypeError):
        rep.rho["E_01"] = rep.rho["F_01"]
    with pytest.raises(TypeError):
        rep.sparse["E_01"] = rep.sparse["F_01"]


def dense_mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def dense_commutator(a, b):
    return [
        [x - y for x, y in zip(r1, r2)]
        for r1, r2 in zip(dense_mul(a, b), dense_mul(b, a))
    ]


def dense_check_failure(basis, dim, given, weights):
    """The message of the first failing defining relation, from dense
    Fraction matrices closed under brackets, or None when all hold."""
    rs = basis.rs
    rho = {s: [[Fraction(x) for x in row] for row in m] for s, m in given.items()}
    for root in sorted(rs.positive_roots, key=lambda r: (rs.height(r), r)):
        if root in rs.simple_roots:
            continue
        simple = next(
            a for a in rs.simple_roots
            if tuple(x - y for x, y in zip(root, a)) in rs.positive_roots
        )
        rest = tuple(x - y for x, y in zip(root, simple))
        for sym_of, sign in ((basis.pos_symbol, 1), (basis.neg_symbol, -1)):
            n = basis.structure_constant(
                tuple(sign * c for c in simple), tuple(sign * c for c in rest)
            )
            c = dense_commutator(rho[sym_of[simple]], rho[sym_of[rest]])
            rho[sym_of[root]] = [[x / n for x in row] for row in c]
    for i, h in enumerate(basis.cartan_symbols):
        for j in range(dim):
            for a in range(dim):
                if rho[h][a][j] != (weights[j][i] if a == j else 0):
                    return (
                        f"basis vector {j + 1} is not an eigenvector of "
                        f"{h} with its declared weight"
                    )
    symbols = basis.symbols
    for i, u in enumerate(symbols):
        for v in symbols[i + 1:]:
            lhs = [[Fraction(0)] * dim for _ in range(dim)]
            for sym, c in basis.bracket({u: 1}, {v: 1}).items():
                lhs = [
                    [x + c * y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(lhs, rho[sym])
                ]
            if lhs != dense_commutator(rho[u], rho[v]):
                return (
                    f"bracket compatibility fails on the pair ({u}, {v}): "
                    "rho([x,y]) != [rho(x), rho(y)]"
                )
    return None


@pytest.mark.parametrize(
    "name,series,rank", [("adj", "B", 2), ("def+adj", "A", 2)]
)
def test_bracket_check_matches_dense_reference(basis_of, name, series, rank):
    # seeded single-entry corruptions of the given matrices: load_rep names
    # the same first failure as the dense check
    rep = _pinned_rep(basis_of, name, series, rank)
    given = generator_matrices(rep)
    rng = random.Random(f"{name}-{series}{rank}")
    messages = set()
    for _ in range(16):
        sym = rng.choice(sorted(given))
        i, j = rng.randrange(rep.dim), rng.randrange(rep.dim)
        m = [list(row) for row in given[sym]]
        m[i][j] += rng.choice([1, -1, 2, Fraction(1, 2)])
        mats = {**given, sym: m}
        want = dense_check_failure(rep.basis, rep.dim, mats, rep.weights)
        data = {
            "type": series,
            "rank": rank,
            "dim": rep.dim,
            "matrices": {
                s: [[str(c) for c in row] for row in mm] for s, mm in mats.items()
            },
            "weights": [[str(w) for w in wt] for wt in rep.weights],
        }
        if want is None:
            load_rep(data)
            continue
        with pytest.raises(RepValidationError) as err:
            load_rep(data)
        assert str(err.value) == want
        messages.add(want.split(":")[0])
    # both the eigenvector check and the bracket check were reached
    assert any("eigenvector" in m for m in messages)
    assert any("pair" in m for m in messages)
