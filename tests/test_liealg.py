import itertools
import random
from fractions import Fraction

import pytest

from uproj.adjoint import ad_derivation
from uproj.genrep import adjoint_rep
from uproj.liealg import ChevalleyBasis, LieElement, root_suffix
from uproj.rootsystem import build_root_system
from uproj.symfield import DenominatorSet, LocElem

from oracles import is_root

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_structure_constants_antisymmetric_and_pq_bound(basis_of, series, rank):
    b = basis_of(series, rank)
    rs = b.rs
    pos = list(rs.positive_roots)
    roots = pos + [tuple(-x for x in r) for r in pos]
    for a in roots:
        for c in roots:
            s = vec_add(a, c)
            if not is_root(rs, s):
                continue
            n_ac = b.structure_constant(a, c)
            assert n_ac == -b.structure_constant(c, a)
            # |N(a,c)| = p + 1 where p is the length of the a-chain below c
            p = 0
            back = c
            while True:
                back = tuple(x - y for x, y in zip(back, a))
                if not is_root(rs, back):
                    break
                p += 1
            assert abs(n_ac) == p + 1


def test_a2_structure_constant_frozen(basis_of):
    b = basis_of("A", 2)
    a1, a2 = b.rs.simple_roots
    assert b.structure_constant(a1, a2) == -1
    assert b.structure_constant(a2, a1) == 1


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_sl2_triples(basis_of, series, rank):
    b = basis_of(series, rank)
    for r in b.rs.positive_roots:
        e = b.element(b.pos_symbol[r])
        f = b.element(b.neg_symbol[r])
        h = b.bracket(e, f)
        assert h.as_dict() == b.coroot(r).as_dict()
        he = b.bracket(h, e)
        assert he.as_dict() == e.scale(Fraction(2)).as_dict()
        hf = b.bracket(h, f)
        assert hf.as_dict() == f.scale(Fraction(-2)).as_dict()


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_jacobi_exhaustive(basis_of, series, rank):
    b = basis_of(series, rank)
    # raises on any violated identity
    b.check_jacobi()


def test_jacobi_check_catches_one_flipped_e6_sign(monkeypatch):
    # N(E_000011, E_010100) and its transpose flipped together keep
    # antisymmetry; a check of 300 random triples, which is what rank 6
    # once got, builds this basis without error
    rs = build_root_system("E", 6)
    flipped = {("000011", "010100"), ("010100", "000011")}
    true_constant = ChevalleyBasis.structure_constant

    def structure_constant(self, alpha, beta):
        n = true_constant(self, alpha, beta)
        pair = tuple(root_suffix(rs.coefficients(r)) for r in (alpha, beta))
        return -n if pair in flipped else n

    monkeypatch.setattr(ChevalleyBasis, "structure_constant", structure_constant)
    with pytest.raises(RuntimeError, match="Jacobi identity fails"):
        ChevalleyBasis(rs)


def test_bracket_table_is_integral(basis_of, monkeypatch):
    b = basis_of("G", 2)
    assert all(
        type(c) is int
        for row in b.table.values()
        for pairs in row.values()
        for _, c in pairs
    )
    true_constant = ChevalleyBasis.structure_constant

    def structure_constant(self, alpha, beta):
        return true_constant(self, alpha, beta) / 2

    monkeypatch.setattr(ChevalleyBasis, "structure_constant", structure_constant)
    with pytest.raises(RuntimeError, match="non-integral constant"):
        ChevalleyBasis(b.rs)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_jacobi_sum_vanishes_on_every_triple_the_weight_filter_skips(
    basis_of, series, rank
):
    b = basis_of(series, rank)
    zero = (0,) * len(b.positive_roots[0])

    def weight(u):
        return zero if u in b.cartan_symbols else b.root_of(u)

    skipped = 0
    for u, v, w in itertools.combinations(b.symbols, 3):
        total = tuple(map(sum, zip(weight(u), weight(v), weight(w))))
        if total == zero or is_root(b.rs, total):
            continue
        skipped += 1
        x, y, z = b.element(u), b.element(v), b.element(w)
        s = (
            b.bracket(x, b.bracket(y, z))
            + b.bracket(y, b.bracket(z, x))
            + b.bracket(z, b.bracket(x, y))
        )
        assert s.is_zero(), (u, v, w)
    assert skipped


@pytest.mark.parametrize(
    "series,rank",
    [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)],
)
def test_brackets_are_read_from_the_table(monkeypatch, series, rank):
    # the derivations, the adjoint representation and its bracket check
    # are built after the per-pair rule is disabled
    b = ChevalleyBasis(build_root_system(series, rank))
    expected = {
        (u, v): b._bracket_symbols(u, v) for u in b.symbols for v in b.symbols
    }

    def per_pair_rule(u, v):
        raise RuntimeError("per-pair bracket rule called after construction")

    monkeypatch.setattr(b, "_bracket_symbols", per_pair_rule)
    dset = DenominatorSet(b.symbols)
    for u in b.symbols:
        d_u = ad_derivation(b, dset, u)
        for v in b.symbols:
            uv = expected[(u, v)]
            assert b.bracket(b.element(u), b.element(v)) == uv
            assert d_u.apply(LocElem.variable(dset, v)) == LocElem(dset, uv.to_poly())
    for x, m in adjoint_rep(b).rho.items():
        for j, v in enumerate(b.symbols):
            column = expected[(x, v)].as_dict()
            assert [row[j] for row in m] == [column.get(u, 0) for u in b.symbols]


def test_jacobi_on_random_elements(basis_of):
    b = basis_of("A", 2)
    rng = random.Random(5)

    def rand_elem():
        return LieElement.make(
            b, {s: Fraction(rng.randint(-3, 3)) for s in b.symbols}
        )

    for _ in range(10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        s = (
            b.bracket(x, b.bracket(y, z))
            + b.bracket(y, b.bracket(z, x))
            + b.bracket(z, b.bracket(x, y))
        )
        assert s.is_zero()


def test_lie_elements_are_frozen_values(basis_of):
    b = basis_of("A", 2)
    x = LieElement.make(b, {"E_10": 2, "H1": Fraction(1, 3), "F_01": 0})
    y = LieElement.make(b, {"H1": Fraction(2, 6), "E_10": Fraction(2)})
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert x != y.scale(2)
    assert x != LieElement.make(basis_of("B", 2), x.as_dict())
    assert x.__eq__(x.coefficients) is NotImplemented
    with pytest.raises(AttributeError):
        x.coefficients = ()


def test_cartan_acts_by_root_values(basis_of):
    b = basis_of("G", 2)
    rs = b.rs
    for a_simple in rs.simple_roots:
        h = b.coroot(a_simple)
        for r in rs.positive_roots:
            e = b.element(b.pos_symbol[r])
            out = b.bracket(h, e)
            expected = e.scale(rs.cartan_pairing(r, a_simple))
            assert out.as_dict() == expected.as_dict()


def test_poisson_bracket_matches_lie_bracket_on_variables(basis_of):
    b = basis_of("A", 2)
    dset = DenominatorSet(b.symbols)
    for u in b.symbols:
        # the derivation a -> {u, a} of the basis element u
        d_u = ad_derivation(b, dset, u)
        for v in b.symbols:
            lhs = d_u.apply(LocElem.variable(dset, v))
            rhs = LocElem(dset, b._bracket_symbols(u, v).to_poly())
            assert lhs == rhs
