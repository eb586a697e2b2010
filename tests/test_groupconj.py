import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from uproj import linalg
from uproj.groupconj import (
    ConjugationConstruction,
    conj_derivation,
    entry_name,
    matrix_elements,
    matrix_variables,
    minor,
)
from uproj.projector import jacobian_rank, sample_regular_point
from uproj.symfield import LocElem, Poly

from oracles import mat_inv, orbit_rank

_conj_cache = {}


def conj_of(n):
    if n not in _conj_cache:
        _conj_cache[n] = ConjugationConstruction(n)
    return _conj_cache[n]


def point_of_matrix(n, m):
    return {
        entry_name(i + 1, j + 1): Fraction(m[i][j])
        for i in range(n)
        for j in range(n)
    }


def random_unitriangular(rng, n):
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(-4, 4))
    return m


def random_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(m) == n:
            return m


def conjugate(u, s):
    return linalg.mat_mul(linalg.mat_mul(mat_inv(u), s), u)


def test_minor_is_a_determinant():
    vars3 = matrix_variables(3)
    m = minor(vars3, (2, 3), (1, 2))
    expected = (
        Poly.variable(vars3, "s_2_1") * Poly.variable(vars3, "s_3_2")
        - Poly.variable(vars3, "s_2_2") * Poly.variable(vars3, "s_3_1")
    )
    assert m == expected


def signed_products_minor(variables, rows, cols):
    """The minor as the sum of its k! signed products of variable Polys."""
    out = Poly(variables)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Poly.const(variables, (-1) ** inversions)
        for r, j in zip(rows, perm):
            term = term * Poly.variable(variables, entry_name(r, cols[j]))
        out = out + term
    return out


def test_minor_matches_signed_products():
    # seeded selections, repeated rows and columns among them, whose
    # minors are zero: the signs of one monomial are summed
    rng = random.Random(0)
    repeated = 0
    for n in range(2, 6):
        variables = matrix_variables(n)
        for _ in range(25):
            k = rng.randint(1, n)
            rows = [rng.randint(1, n) for _ in range(k)]
            cols = [rng.randint(1, n) for _ in range(k)]
            m = minor(variables, rows, cols)
            assert m == signed_products_minor(variables, rows, cols)
            if len(set(rows)) < k or len(set(cols)) < k:
                repeated += 1
                assert m.is_zero()
    assert repeated >= 20
    assert minor(matrix_variables(3), (2, 2), (1, 3)).is_zero()
    assert minor(matrix_variables(3), (1, 2), (3, 3)).is_zero()


def test_minor_rejects_non_square_selection():
    with pytest.raises(ValueError):
        minor(matrix_variables(3), (1, 2), (1,))


def test_corner_minors_n3_frozen():
    els = matrix_elements(3)
    vars3 = matrix_variables(3)
    assert els["d"][0] == Poly.variable(vars3, "s_3_1")
    assert els["d"][1] == minor(vars3, (2, 3), (1, 2))


def test_corner_minors_are_bi_invariant():
    # left and right translation by upper unitriangular matrices both fix
    # every lower-corner minor: D(d_k) = 0 for the conjugation derivations
    # restricted to one-sided actions is equivalent to checking at points
    n = 3
    c = conj_of(n)
    rng = random.Random(9)
    for _ in range(10):
        s = random_invertible(rng, n)
        u = random_unitriangular(rng, n)
        pt_s = point_of_matrix(n, s)
        for prod in (linalg.mat_mul(u, s), linalg.mat_mul(s, u)):
            pt_p = point_of_matrix(n, prod)
            for dk in c.elements["d"]:
                assert dk.evaluate(pt_s) == dk.evaluate(pt_p)


def test_slice_pairing_n2():
    c = conj_of(2)
    (st,) = c.projector.stages
    assert st.derivation.label == "D_s_1_2"
    num, den = st.witness
    assert den == c.d[0]
    assert st.derivation.apply(num) == den
    # D_E(d_1) = 0 for n = 2: d_1 = s_2_1 is invariant
    d1 = LocElem(c.dset, c.elements["d"][0])
    assert st.derivation.apply(d1).is_zero()


def test_stage_triangularity_exhaustive_n3():
    c = conj_of(3)
    flat = c.projector.stages
    for i, st in enumerate(flat):
        di = st.derivation
        assert di.apply(st.q).constant_value() == 1
        for j in range(i + 1, len(flat)):
            assert di.apply(flat[j].q).is_zero()


def test_n2_exact_generator_set():
    gs = conj_of(2).generator_set()
    got = {n: str(e) for n, e in gs.entries}
    assert got == {"d1": "s_2_1", "P(c_1_2)": "s_1_1 + s_2_2"}
    assert gs.all_verified()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_count(n):
    gs = conj_of(n).generator_set(verify=False)
    assert len(gs) == (n - 1) + n * (n - 1) // 2


def test_n3_verification():
    gs = conj_of(3).generator_set()
    assert len(gs) == 5
    assert gs.all_verified()


@pytest.mark.parametrize("n", [2, 3])
def test_generators_constant_on_conjugation_orbits(n):
    c = conj_of(n)
    gs = c.generator_set(verify=False)
    rng = random.Random(31)
    done = 0
    while done < 8:
        s = random_invertible(rng, n)
        u = random_unitriangular(rng, n)
        t = conjugate(u, s)
        pt_s = point_of_matrix(n, s)
        pt_t = point_of_matrix(n, t)
        try:
            vals_s = [e.evaluate(pt_s) for _, e in gs.entries]
            vals_t = [e.evaluate(pt_t) for _, e in gs.entries]
        except Exception:
            continue  # singular point for a denominator, resample
        assert vals_s == vals_t
        done += 1


def test_projector_is_identity_on_big_cell_points():
    # s = w0 * b with b upper triangular lands where every stage numerator
    # vanishes while all corner minors stay invertible
    n = 3
    c = conj_of(n)
    rng = random.Random(13)
    w0 = [[Fraction(1 if i + j == n - 1 else 0) for j in range(n)] for i in range(n)]
    gs = c.generator_set(verify=False)
    for _ in range(5):
        b = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = Fraction(rng.choice([x for x in range(-5, 6) if x]))
            for j in range(i + 1, n):
                b[i][j] = Fraction(rng.randint(-5, 5))
        s = linalg.mat_mul(w0, b)
        pt = point_of_matrix(n, s)
        for st in c.projector.stages:
            num, _ = st.witness
            assert num.evaluate(pt) == 0
        for a, bb in c.pairs:
            raw = LocElem(c.dset, c.elements["c_beta"][(a, bb)])
            projected = dict(gs.entries)[f"P(c_{a}_{bb})"]
            assert projected.evaluate(pt) == raw.evaluate(pt)


def test_char_poly_coefficients_are_fixed_and_trace_in_span():
    # trace, second elementary symmetric function and determinant of s are
    # conjugation invariants, so the projector fixes them exactly; the
    # trace additionally lies in the span of the emitted generators
    n = 3
    c = conj_of(n)
    vars3 = c.variables
    tr = Poly.linear(vars3, {entry_name(i, i): Fraction(1) for i in range(1, 4)})
    det = minor(vars3, (1, 2, 3), (1, 2, 3))
    e2 = (
        minor(vars3, (1, 2), (1, 2))
        + minor(vars3, (1, 3), (1, 3))
        + minor(vars3, (2, 3), (2, 3))
    )
    for p in (tr, e2, det):
        a = LocElem(c.dset, p)
        assert c.projector.apply(a) == a

    gs = c.generator_set(verify=False)
    rng = random.Random(41)
    pt = sample_regular_point(c.dset, rng)

    def rows_of(elems):
        out = []
        for a in elems:
            if isinstance(a, Poly):
                a = LocElem(c.dset, a)
            out.append([a.deriv(v).evaluate(pt) for v in c.dset.vars])
        return out

    gen_rows = rows_of(gs.elements)
    assert linalg.rank(gen_rows) == len(gs)
    assert linalg.rank(gen_rows + rows_of([tr])) == len(gs)


def test_stage_of_by_root_coefficients():
    # for n = 2 the one stage is the pair (1, 2)
    c = conj_of(2)
    (st,) = c.projector.stages
    assert st.derivation.label == "D_s_1_2"
    num, den = st.witness
    assert str(den) == "s_2_1"


def test_stage_denominators_are_the_corner_minors():
    # the stages run from the largest root down, and the slice of e_a - e_b
    # is d_beta / d_nu with nu = n - b + 1
    n = 4
    c = conj_of(n)
    stages = c.projector.stages
    assert [st.derivation.label for st in stages] == [
        f"D_s_{a}_{b}" for a, b in reversed(c.pairs)
    ]
    for (a, b), st in zip(reversed(c.pairs), stages):
        num, den = st.witness
        assert num == LocElem(c.dset, c.elements["d_beta"][(a, b)])
        assert den == c.d[n - b]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_is_dim_minus_one_minus_orbit_dimension(n):
    # on SL_n, det = 1 is the one relation: Jacobian rank = |G| =
    # dim V - 1 - O(pt) certifies the count (see test_adjoint).  det is a
    # U-invariant outside the set, so adding it raises the rank by one
    c = conj_of(n)
    gs = c.generator_set(verify=False)
    point = sample_regular_point(c.dset, random.Random(0))
    family = [conj_derivation(c.dset, a, b) for a, b in c.pairs]
    assert jacobian_rank(c.dset, gs.elements, point) == len(gs)
    assert len(gs) == len(c.dset.vars) - 1 - orbit_rank(family, c.dset, point)
    det = LocElem(c.dset, minor(c.variables, range(1, n + 1), range(1, n + 1)))
    assert jacobian_rank(c.dset, gs.elements + [det], point) == len(gs) + 1


def test_conj_derivation_matches_commutator():
    # D(s_ij) should evaluate to (sx - xs)_ij for each matrix unit x = E_ab
    n = 3
    dset = conj_of(n).dset
    rng = random.Random(3)
    s = random_invertible(rng, n)
    pt = point_of_matrix(n, s)
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        x = [[Fraction(int((i, j) == (a, b))) for j in range(1, n + 1)]
             for i in range(1, n + 1)]
        d = conj_derivation(dset, a, b)
        sx = linalg.mat_mul(s, x)
        xs = linalg.mat_mul(x, s)
        for i in range(n):
            for j in range(n):
                v = LocElem.variable(dset, entry_name(i + 1, j + 1))
                assert d.apply(v).evaluate(pt) == sx[i][j] - xs[i][j]


def test_simple_derivations_are_the_stage_derivations():
    # verify reads the derivations the stages already hold; each equals a
    # freshly built one
    for n in (2, 3, 4):
        c = conj_of(n)
        stage_derivations = [st.derivation for st in c.projector.stages]
        family = c.simple_derivations()
        assert len(family) == n - 1
        for i, d in enumerate(family, 1):
            assert any(d is s for s in stage_derivations)
            fresh = conj_derivation(c.dset, i, i + 1)
            assert (d.label, d.images) == (fresh.label, fresh.images)
