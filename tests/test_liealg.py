import random
from fractions import Fraction

import pytest

from uproj.liealg import LieElement
from uproj.projector import Derivation
from uproj.symfield import DenominatorSet, LocElem

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
            if not rs.is_root(s):
                continue
            n_ac = b.structure_constant(a, c)
            assert n_ac == -b.structure_constant(c, a)
            # |N(a,c)| = p + 1 where p is the length of the a-chain below c
            p = 0
            back = c
            while True:
                back = tuple(x - y for x, y in zip(back, a))
                if not rs.is_root(back):
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
    b.check_jacobi(exhaustive=True)


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
        # the derivation a -> {u, a} of the Lie element u
        d_u = Derivation.from_lie_element(b, dset, b.element(u))
        for v in b.symbols:
            lhs = d_u.apply(LocElem.variable(dset, v))
            rhs = LocElem(dset, b._bracket_symbols(u, v).to_poly())
            assert lhs == rhs
