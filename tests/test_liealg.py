import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from uproj.adjoint import ad_derivation
from uproj.genrep import adjoint_rep
from uproj.liealg import ChevalleyBasis, root_suffix
from uproj.rootsystem import build_root_system
from uproj.symfield import DenominatorSet, LocElem, Poly

from oracles import is_root

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def coroot(b, root):
    """The coroot of `root` as a {symbol: coefficient} dict."""
    return {
        h: c for h, c in zip(b.cartan_symbols, b.coroot_coefficients(root)) if c
    }


def jacobi_sum(b, x, y, z):
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]], zero coefficients left out."""
    total = {}
    for term in (
        b.bracket(x, b.bracket(y, z)),
        b.bracket(y, b.bracket(z, x)),
        b.bracket(z, b.bracket(x, y)),
    ):
        for s, c in term.items():
            total[s] = total.get(s, 0) + c
    return {s: c for s, c in total.items() if c}


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
        e, f = b.pos_symbol[r], b.neg_symbol[r]
        h = b.bracket({e: 1}, {f: 1})
        assert h == coroot(b, r)
        assert b.bracket(h, {e: 1}) == {e: 2}
        assert b.bracket(h, {f: 1}) == {f: -2}


# sha256 of json.dumps(table, sort_keys=True), recorded while the table
# was still built from Lie element records; no constant may move
@pytest.mark.parametrize(
    "series,rank,digest",
    [
        ("A", 1, "01d0a958b6012ed1977c4917f70d1936ede122a98c88e4ccb8d787340528b355"),
        ("A", 2, "42847c4e933f13ece5ee2b9f79b09238a49454693742ad0eead7350315de65e8"),
        ("A", 5, "739bfcd730fef7e91421f9edd40e1bcce7c3f729e093de568c35b03ba15a2f5f"),
        ("B", 3, "e358ad7cacb5f059237a2fe3b802b42743629af4bc76d9b61512ec93e1ed3f6e"),
        ("C", 4, "99aa28ec963323f29ae6a2e4d165233f9fd358b5cdbd7af1f3e978c7cf6d88a5"),
        ("D", 4, "414809a2ddfb77718d10ebcefc3943d09c9e8236c99c682be2b9f467570ff7c8"),
        ("D", 5, "1afa1a897cc17c3fb02ba72e16d88aa2e96f2889c6d2f2c7566b1e39cac35b82"),
        ("G", 2, "e3cec59fe8106bbd456946c790129790ba7d5c6b5fdb66afb7735b85628a440a"),
        ("F", 4, "30ecf7b0e66bd829cfe900d2d5dcf8b9ec4c794133e9c6c5254e70c28cb2b7f8"),
        ("E", 6, "db9f9c794c3261a58c3d149db0affd1c1ded3a14b37a90579bea535bc613c7ec"),
        ("E", 7, "39256af8e72ed74e5a5b1e1619e5f199b4c892774e9f5a5e5154767e7c1c3912"),
        ("E", 8, "085ae864cee06db1ef8d907223c87124256677d2fd99208f1d5bd9151685ba7d"),
    ],
)
def test_bracket_table_is_pinned(basis_of, series, rank, digest):
    table = basis_of(series, rank).table
    dump = json.dumps(table, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == digest


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
        assert not jacobi_sum(b, {u: 1}, {v: 1}, {w: 1}), (u, v, w)
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
            uv = dict(expected[(u, v)])
            assert b.bracket({u: 1}, {v: 1}) == uv
            image = LocElem(dset, Poly.linear(b.symbols, uv))
            assert d_u.apply(LocElem.variable(dset, v)) == image
    for x, m in adjoint_rep(b).rho.items():
        for j, v in enumerate(b.symbols):
            column = dict(expected[(x, v)])
            assert [row[j] for row in m] == [column.get(u, 0) for u in b.symbols]


def test_jacobi_on_random_elements(basis_of):
    b = basis_of("A", 2)
    rng = random.Random(5)

    def rand_elem():
        return {s: Fraction(rng.randint(-3, 3)) for s in b.symbols}

    for _ in range(10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert not jacobi_sum(b, x, y, z)


def test_cartan_acts_by_root_values(basis_of):
    b = basis_of("G", 2)
    rs = b.rs
    for a_simple in rs.simple_roots:
        h = coroot(b, a_simple)
        for r in rs.positive_roots:
            e = b.pos_symbol[r]
            c = rs.cartan_pairing(r, a_simple)
            assert b.bracket(h, {e: 1}) == ({e: c} if c else {})


def test_poisson_bracket_matches_lie_bracket_on_variables(basis_of):
    b = basis_of("A", 2)
    dset = DenominatorSet(b.symbols)
    for u in b.symbols:
        # the derivation a -> {u, a} of the basis element u
        d_u = ad_derivation(b, dset, u)
        for v in b.symbols:
            lhs = d_u.apply(LocElem.variable(dset, v))
            uv = dict(b._bracket_symbols(u, v))
            rhs = LocElem(dset, Poly.linear(b.symbols, uv))
            assert lhs == rhs
