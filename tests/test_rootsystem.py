from fractions import Fraction

import pytest

from uproj.rootsystem import (
    InvalidDynkinDatum,
    build_root_system,
    heisenberg_partition,
    kostant_cascade,
)

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


@pytest.mark.parametrize("series,rank", sorted(CASCADES))
def test_cascade_roots_pairwise_orthogonal(series, rank):
    rs = build_root_system(series, rank)
    cas = kostant_cascade(rs)
    for i, x in enumerate(cas.entries):
        for y in cas.entries[i + 1:]:
            assert rs.inner(x, y) == 0


@pytest.mark.parametrize("series,rank", sorted(CASCADES))
def test_heisenberg_layers_partition_positive_roots(series, rank):
    rs = build_root_system(series, rank)
    cas = kostant_cascade(rs)
    seen = []
    for lv in cas.levels:
        gamma, pairing = heisenberg_partition(rs, cas, lv.index)
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


def test_heisenberg_partition_bad_level():
    rs = build_root_system("A", 2)
    cas = kostant_cascade(rs)
    with pytest.raises(IndexError):
        heisenberg_partition(rs, cas, 2)


def test_cascade_json_shape():
    rs = build_root_system("A", 3)
    data = kostant_cascade(rs).to_json()
    assert set(data) == {"entries", "levels"}
    assert len(data["entries"]) == 2
    assert data["levels"][0]["index"] == 1
