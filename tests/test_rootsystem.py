import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest

from uproj import cli
from uproj.rootsystem import (
    InvalidDynkinDatum,
    build_root_system,
    kostant_cascade,
)

from oracles import is_root, root_coefficients

# (series, rank) -> number of positive roots, from the classical counts
POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

# cascade roots as simple-root coefficient vectors, from the standard tables
CASCADES = {
    ("A", 1): [(1,)],
    ("A", 2): [(1, 1)],
    ("A", 3): [(1, 1, 1), (0, 1, 0)],
    ("B", 2): [(1, 2), (1, 0)],
    ("C", 3): [(2, 2, 1), (0, 2, 1), (0, 0, 1)],
    ("D", 4): [(1, 2, 1, 1), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    ("G", 2): [(3, 2), (1, 0)],
}

# exceptional systems: cascade length, and the first cascade root, which is
# the highest root in Bourbaki numbering
EXCEPTIONAL = {
    ("F", 4): (4, (2, 3, 4, 2)),
    ("E", 6): (4, (1, 2, 2, 3, 2, 1)),
    ("E", 7): (7, (2, 2, 3, 4, 3, 2, 1)),
    ("E", 8): (8, (2, 3, 4, 6, 5, 4, 3, 2)),
}

CASCADE_SYSTEMS = sorted(CASCADES) + sorted(EXCEPTIONAL)


@lru_cache(maxsize=None)
def system_and_cascade(series, rank):
    rs = build_root_system(series, rank)
    return rs, kostant_cascade(rs)


@pytest.mark.parametrize("series,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(series, rank):
    rs = build_root_system(series, rank)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[(series, rank)]


@pytest.mark.parametrize("series,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_integrality_and_reflection_closure(series, rank):
    rs = build_root_system(series, rank)
    roots = [r for r in rs.positive_roots]
    all_roots = roots + [tuple(-x for x in r) for r in roots]
    root_set = set(all_roots)
    for b in all_roots:
        for a in all_roots:
            p = Fraction(2) * rs.inner(b, a) / rs.inner(a, a)
            assert p.denominator == 1
            reflected = tuple(x - int(p) * y for x, y in zip(b, a))
            assert reflected in root_set


@pytest.mark.parametrize("series,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_roots_sorted_by_height(series, rank):
    rs = build_root_system(series, rank)
    heights = [rs.height(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert heights[: rank] == [1] * rank


@pytest.mark.parametrize("series,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_coefficients_expand_each_root_with_one_sign(series, rank):
    rs = build_root_system(series, rank)
    for root in rs.roots:
        c = rs.coefficients(root)
        expansion = [
            sum(ci * a[k] for ci, a in zip(c, rs.simple_roots))
            for k in range(len(root))
        ]
        assert expansion == list(root)
        assert all(ci >= 0 for ci in c) or all(ci <= 0 for ci in c)


@pytest.mark.parametrize("series,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_closure_coefficients_match_linear_solve(series, rank):
    # the reflection closure's integer coefficients against a rational
    # solve over the simple roots, root by root
    rs = build_root_system(series, rank)
    reference = root_coefficients(rs)
    assert len(reference) == 2 * POSITIVE_ROOT_COUNTS[(series, rank)]
    for root, expected in reference.items():
        got = rs.coefficients(root)
        assert got == expected
        assert all(type(c) is int for c in got)


def test_cartan_pairing_simple_roots_match_cartan_matrix():
    rs = build_root_system("G", 2)
    a1, a2 = rs.simple_roots
    assert rs.cartan_pairing(a1, a1) == 2
    assert rs.cartan_pairing(a2, a2) == 2
    # G2 Cartan matrix off-diagonal entries {-1, -3}
    off = sorted([rs.cartan_pairing(a1, a2), rs.cartan_pairing(a2, a1)])
    assert off == [-3, -1]


def test_cartan_pairing_rejects_non_integral():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        rs.cartan_pairing((1, 0, 0), (1, 1, 1))
    # the message gives the pairing in lowest terms, sign on the numerator
    cases = [
        ((1, 0, 0), (1, 1, 1), "2/3"),
        ((-1, 0, 0), (1, 1, 1), "-2/3"),
        ((1, 0, 0), (2, 2, 2), "1/3"),
    ]
    for beta, alpha, value in cases:
        with pytest.raises(ValueError) as info:
            rs.cartan_pairing(beta, alpha)
        assert str(info.value) == f"non-integral Cartan pairing <{beta}, {alpha}>: {value}"


@pytest.mark.parametrize("series,rank", [("Z", 2), ("A", 0), ("G", 3), ("B", 1), ("D", 2), ("F", 3)])
def test_invalid_dynkin_data_rejected(series, rank):
    with pytest.raises(InvalidDynkinDatum):
        build_root_system(series, rank)


@pytest.mark.parametrize("series,rank", sorted(CASCADES))
def test_cascade_matches_tables(series, rank):
    rs = build_root_system(series, rank)
    cas = kostant_cascade(rs)
    got = [tuple(rs.coefficients(x)) for x in cas.entries]
    assert got == CASCADES[(series, rank)]


@pytest.mark.parametrize("series,rank", sorted(EXCEPTIONAL))
def test_exceptional_cascade_length_and_highest_root(series, rank):
    rs, cas = system_and_cascade(series, rank)
    length, highest = EXCEPTIONAL[(series, rank)]
    assert len(cas.entries) == length
    assert rs.coefficients(cas.entries[0]) == highest
    assert max(rs.positive_roots, key=rs.height) == cas.entries[0]


@pytest.mark.parametrize("series,rank", CASCADE_SYSTEMS)
def test_cascade_roots_pairwise_orthogonal(series, rank):
    rs, cas = system_and_cascade(series, rank)
    for i, x in enumerate(cas.entries):
        for y in cas.entries[i + 1:]:
            assert rs.inner(x, y) == 0
            # and strongly: neither x + y nor x - y is a root
            assert not is_root(rs, tuple(a + b for a, b in zip(x, y)))
            assert not is_root(rs, tuple(a - b for a, b in zip(x, y)))


@pytest.mark.parametrize("series,rank", CASCADE_SYSTEMS)
def test_heisenberg_layers_partition_positive_roots(series, rank):
    rs, cas = system_and_cascade(series, rank)
    seen = []
    for lv in cas.levels:
        gamma, pairing = lv.gamma, dict(lv.pairing)
        assert lv.xi in gamma
        # every non-central member pairs to xi
        for a in gamma:
            if a == lv.xi:
                continue
            b = pairing[a]
            assert tuple(x + y for x, y in zip(a, b)) == lv.xi
            assert pairing[b] == a
        # gamma = roots of the component pairing strictly with xi
        for r in lv.delta_pos:
            strictly = rs.inner(r, lv.xi) > 0
            assert (r in gamma) == strictly
        seen.extend(gamma)
    assert sorted(seen) == sorted(rs.positive_roots)


def test_cascade_json_shape():
    rs = build_root_system("A", 3)
    data = kostant_cascade(rs).to_json()
    assert set(data) == {"entries", "levels"}
    assert len(data["entries"]) == 2
    assert data["levels"][0]["index"] == 1


def test_root_system_and_cascade_are_frozen_values():
    rs, again = build_root_system("B", 2), build_root_system("B", 2)
    assert rs is not again
    assert rs == again and hash(rs) == hash(again)
    assert rs != build_root_system("C", 2)
    assert rs.__eq__(rs.roots) is NotImplemented
    with pytest.raises(AttributeError):
        rs.rank = 3
    with pytest.raises(AttributeError):
        del rs.series
    assert rs.rank == 2
    # the derived data are set once, when the record is built
    assert "positive_roots" in vars(rs)
    assert rs.positive_roots is rs.positive_roots
    assert kostant_cascade(rs) == kostant_cascade(rs)
    assert kostant_cascade(rs) == kostant_cascade(again)
    assert kostant_cascade(rs) != kostant_cascade(build_root_system("A", 2))
    lv = kostant_cascade(rs).levels[0]
    with pytest.raises(AttributeError):
        lv.xi = ()


@pytest.mark.parametrize("series,rank", [("B", 2), ("F", 4)])
def test_cascades_are_hashable(series, rank):
    cas = kostant_cascade(build_root_system(series, rank))
    again = kostant_cascade(build_root_system(series, rank))
    assert hash(cas) == hash(again)
    assert len({cas, again, *cas.levels, *again.levels}) == 1 + len(cas.levels)
    for lv in cas.levels:
        assert list(lv.pairing) == sorted(lv.pairing)


# sha256 of `uproj cascade --type T --rank R` stdout, recorded before the
# classical simple roots were built from one shared chain
CASCADE_STDOUT_SHA256 = {
    ("F", 4): "109ad11d0bebd6b12858e69a66c5aad7c27957528a55d1fb1e1db3e06f88033b",
    ("E", 6): "07327e3471b486f54acc1f355688cb804cc1f9f09eaed3082b85db2e1e397bb9",
    ("E", 7): "bf1f8a600000e465448740b6c801610c2843e5551601bf0d712ce32a769aafb9",
    ("E", 8): "3f2bf621ac4d9407d810558bd8c7624ccf432f2a92a8626e618271c5434d8e6b",
}


@pytest.mark.parametrize("series,rank", sorted(CASCADE_STDOUT_SHA256))
def test_exceptional_cascade_stdout_is_pinned(capsys, series, rank):
    assert cli.main(["cascade", "--type", series, "--rank", str(rank)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CASCADE_STDOUT_SHA256[(series, rank)]
