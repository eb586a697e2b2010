import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from uproj import linalg
from uproj.adjoint import AdjointConstruction
from uproj.genrep import RepConstruction, load_rep
from uproj.genset import GeneratorSet
from uproj.groupconj import ConjugationConstruction
from uproj.liealg import chevalley_constants
from uproj.projector import (
    Derivation,
    NotLocallyNilpotent,
    Projector,
    Stage,
    TriangularityError,
    jacobian_rank,
    sample_regular_point,
    smap,
    verify_invariance,
)
from uproj.rootsystem import build_root_system
from uproj.symfield import (
    MAX_DEGREE,
    DegreeBoundError,
    DenominatorSet,
    LocElem,
    Poly,
    SingularPointError,
    UniverseMismatch,
    _over_common_den,
)

from conftest import get_adjoint, get_basis
from oracles import (
    coefficient_of,
    cross_section_check,
    derivation_apply,
    smap_forward,
    witnesses,
)
from test_acceptance import rand_poly as criterion_poly

VARS = ("x", "y", "z")
REP_ADJ_B2 = Path(__file__).resolve().parents[1] / "perfbench/data/rep-adj-b2.json"


def make_dset():
    return DenominatorSet(VARS)


def ddx(dset):
    return Derivation(dset, {"x": Poly.const(VARS, 1)}, label="d/dx")


def ddy(dset):
    return Derivation(dset, {"y": Poly.const(VARS, 1)}, label="d/dy")


def test_smap_projects_onto_kernel():
    dset = make_dset()
    d = ddx(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    st = Stage(d, x, 1)
    assert smap(st, x).is_zero()
    assert smap(st, y) == y
    assert smap(st, x * x + y) == y
    assert smap(st, (x + y) ** 3) == y ** 3


def test_smap_is_a_ring_homomorphism():
    dset = make_dset()
    d = ddx(dset)
    x = LocElem.variable(dset, "x")
    st = Stage(d, x, 1)
    rng = random.Random(4)

    def rand_elem():
        terms = {}
        for _ in range(4):
            exp = [rng.randint(0, 2) for _ in VARS]
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
        return LocElem(dset, Poly(VARS, terms))

    for _ in range(15):
        a, b = rand_elem(), rand_elem()
        assert smap(st, a * b) == smap(st, a) * smap(st, b)
        assert smap(st, a + b) == smap(st, a) + smap(st, b)


def test_projector_composes_stages():
    dset = make_dset()
    dx, dy = ddx(dset), ddy(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    z = LocElem.variable(dset, "z")
    # dx kills the later slice y, so (dx then dy) is triangular
    p = Projector(dset, [Stage(dx, x, 1), Stage(dy, y, 1)])
    assert p.apply(x).is_zero()
    assert p.apply(y).is_zero()
    assert p.apply(z + x * y) == z
    # images are invariant: both derivations kill them
    out = p.apply(z * z + x + y ** 2)
    assert dx.apply(out).is_zero() and dy.apply(out).is_zero()


def test_not_locally_nilpotent_raises_at_the_cap():
    # D = d/dx + y d/dy has the slice x, but D(y) = y, so no power of D
    # kills y and the series for y never ends
    dset = make_dset()
    d = Derivation(
        dset,
        {"x": Poly.const(VARS, 1), "y": Poly.variable(VARS, "y")},
        label="d/dx + y d/dy",
    )
    y = LocElem.variable(dset, "y")
    st = Stage(d, LocElem.variable(dset, "x"), 1)
    p = Projector(dset, [st])
    for project in (lambda a: smap(st, a), p.apply):
        with pytest.raises(NotLocallyNilpotent, match=r"d/dx \+ y d/dy"):
            project(y)
    # deg(y) = 1 gives the cap 26: D^26(y) is still accepted and the
    # 27th application, the first past the cap, raises
    apply = d.apply
    calls = []
    d.apply = lambda a: calls.append(a) or apply(a)
    message = "derivation d/dx + y d/dy not locally nilpotent on input (cap 26 exceeded)"
    for series in (smap, smap_forward):
        calls.clear()
        with pytest.raises(NotLocallyNilpotent) as err:
            series(st, y)
        assert str(err.value) == message
        assert len(calls) == 10 * y.total_degree() + 16 + 1 == 27


# -- Horner order against the forward series -------------------------------


def json_bytes(e):
    return json.dumps(e.to_json(), sort_keys=True)


def assert_same_as_forward(projector, a):
    """Each stage's smap, and Projector.apply, against the stages summed
    by smap_forward; the reduced normal forms must serialise to the same
    bytes."""
    expected = a
    for st in projector.stages:
        got = smap(st, expected)
        expected = smap_forward(st, expected)
        assert json_bytes(got) == json_bytes(expected), st.derivation.label
    assert json_bytes(projector.apply(a)) == json_bytes(expected)


@pytest.mark.parametrize("series,rank,pairs", [("A", 2, 12), ("B", 2, 10), ("G", 2, 4)])
def test_smap_matches_forward_series_on_criterion_05_pairs(series, rank, pairs):
    c = get_adjoint(series, rank)
    rng = random.Random(0)
    for _ in range(pairs):
        a = LocElem(c.dset, criterion_poly(rng, c.dset.vars))
        b = LocElem(c.dset, criterion_poly(rng, c.dset.vars))
        for e in (a, b, a * b):
            assert_same_as_forward(c.projector, e)


def test_smap_matches_forward_series_on_conj_minors():
    c = ConjugationConstruction(4)
    els = c.elements
    for m in [*els["d"], *els["d_beta"].values(), *els["c_beta"].values()]:
        assert_same_as_forward(c.projector, LocElem(c.dset, m))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_smap_matches_forward_series_with_denominators(series, rank):
    c = get_adjoint(series, rank)
    dset = c.dset
    assert len(dset) > 0
    rng = random.Random(7)
    for _ in range(8):
        den = [rng.randint(0, 2) for _ in dset.gens]
        den[rng.randrange(len(den))] += 1
        a = LocElem(dset, criterion_poly(rng, dset.vars), den)
        assert a.den
        assert_same_as_forward(c.projector, a)


def test_f4_projection_of_f_0100_is_pinned():
    # the forward series peaks at 35,872 terms here before cancelling to
    # the 2,373 of the answer; the digest was taken from that order
    c = AdjointConstruction(chevalley_constants(build_root_system("F", 4)))
    r = c.projector.apply(LocElem.variable(c.dset, "F_0100"))
    assert len(r.num.terms) == 2373
    assert hashlib.sha256(json_bytes(r).encode()).hexdigest() == (
        "4622f8c38b5f7d3ae741bc434f2384bd50e4daecf8243627b9dba55e1cb65903"
    )


def test_triangularity_violation_detected():
    dset = make_dset()
    dx, dy = ddx(dset), ddy(dset)
    x = LocElem.variable(dset, "x")
    bad_q = LocElem.variable(dset, "y") + x  # dx does not kill it
    with pytest.raises(TriangularityError):
        Projector(dset, [Stage(dx, x, 1), Stage(dy, bad_q, 1)])


def test_slice_pair_requires_unit_image():
    # D(q) must be 1 or -1; the error names the derivation
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    for a1, a0 in ((y, 1), (x * 2, 1), (x * y, y * 3)):
        with pytest.raises(ValueError, match="d/dx"):
            Stage(dx, a1, a0)


def test_slice_pair_sign_normalization():
    # D(q) = -1: q and a0 are negated, a1 is kept
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    st = Stage(dx, -x, 1)
    assert dx.apply(st.q).constant_value() == 1
    assert st.q == x and st.witness == (-x, -1)
    st = Stage(dx, -x * y, y)
    assert st.q == x
    a1, a0 = st.witness
    assert a1 == -x * y and a0 == -y
    assert dx.apply(a1) == a0


def test_stage_over_a_scalar_registers_no_generator():
    # a scalar a0 divides through LocElem.__truediv__; an element a0 is
    # inverted, which registers its numerator
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    st = Stage(dx, x * 3, 3)
    assert st.q == x and len(dset) == 0
    st = Stage(dx, x * y, y)
    assert st.q == x and len(dset) == 1


def test_verify_invariance_report():
    dset = make_dset()
    dx = ddx(dset)
    y = LocElem.variable(dset, "y")
    x = LocElem.variable(dset, "x")
    rep = verify_invariance(y, [dx])
    assert rep["checks"][0]["status"] == "pass"
    rep = verify_invariance(x * x, [dx])
    assert rep["checks"][0]["status"] == "fail"
    assert "residue" in rep["checks"][0]


def test_jacobian_rank_toy():
    dset = make_dset()
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    pt = {"x": Fraction(2), "y": Fraction(3), "z": Fraction(5)}
    assert jacobian_rank(dset, [x, y, x * y], pt) == 2
    assert jacobian_rank(dset, [x, y, LocElem.variable(dset, "z")], pt) == 3


def test_sample_regular_point_avoids_denominators():
    dset = make_dset()
    x = LocElem.variable(dset, "x")
    x.inverse()  # registers x as a denominator generator
    rng = random.Random(0)
    for _ in range(5):
        pt = sample_regular_point(dset, rng)
        assert pt["x"] != 0


def test_cross_section_check_toy():
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    z = LocElem.variable(dset, "z")
    p = Projector(dset, [Stage(dx, x, 1)])
    report = cross_section_check(p, [y, z], trials=5, seed=1)
    assert all(c["status"] != "fail" for c in report["checks"])
    identity = [c for c in report["checks"] if c["name"].startswith("res_identity")]
    assert len(identity) == 10


def test_cross_section_check_fails_on_a_wrong_projection(monkeypatch):
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    p = Projector(dset, [Stage(dx, x, 1)])
    apply = Projector.apply
    monkeypatch.setattr(Projector, "apply", lambda self, a: apply(self, a) + 1)
    report = cross_section_check(p, [LocElem.variable(dset, "y")], trials=3)
    assert report["checks"][0]["status"] == "fail"


# -- one-pass Derivation.apply and pointwise jacobian_rank ----------------


def reference_apply(d, a):
    """D(a) = sum_v da/dv * D(v), by the symbolic chain rule."""
    result = LocElem.const(d.dset, 0)
    for v, img in d.images.items():
        result = result + a.deriv(v) * LocElem(d.dset, img)
    return result


def rand_poly(rng, nterms=4, deg=2):
    terms = {}
    for _ in range(nterms):
        exp = [rng.randint(0, deg) for _ in VARS]
        terms[tuple(exp)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(VARS, terms)


def rand_locelem(rng, dset):
    den = [rng.randint(0, 2) for _ in dset.gens]
    return LocElem(dset, rand_poly(rng), den)


def kernel_dset():
    # z is killed by d/dx; x + y and x^2 + z are not
    x, y, z = (Poly.variable(VARS, v) for v in VARS)
    return DenominatorSet(VARS, [z, x + y, x * x + z])


def kernel_derivations(dset):
    y, z = Poly.variable(VARS, "y"), Poly.variable(VARS, "z")
    return [
        ddx(dset),
        Derivation(dset, {"x": y, "y": z}, label="linear"),
        Derivation(
            dset,
            {"x": y * z, "y": z * z * Fraction(1, 2) - 1,
             "z": Poly.const(VARS, Fraction(2, 3))},
            label="nonlinear",
        ),
    ]


@pytest.mark.parametrize("index", range(3), ids=["ddx", "linear", "nonlinear"])
def test_apply_matches_chain_rule(index):
    dset = kernel_dset()
    d = kernel_derivations(dset)[index]
    rng = random.Random(11 + index)
    for _ in range(25):
        a = rand_locelem(rng, dset)
        assert d.apply(a) == reference_apply(d, a)
        assert d.apply(a.num) == reference_apply(d, LocElem(dset, a.num))


def test_apply_raises_past_the_degree_bound():
    # the nonlinear derivation sends x to yz, so it raises degrees by one
    dset = kernel_dset()
    linear, nonlinear = kernel_derivations(dset)[1:]
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    below = x * y ** (MAX_DEGREE - 2)
    assert nonlinear.apply(below) == reference_apply(nonlinear, LocElem(dset, below))
    top = below * y
    assert linear.apply(top) == reference_apply(linear, LocElem(dset, top))
    with pytest.raises(DegreeBoundError, match=str(MAX_DEGREE)):
        nonlinear.apply(top)


def test_derivation_rejects_image_over_other_universe():
    with pytest.raises(UniverseMismatch):
        Derivation(make_dset(), {"x": Poly.const(("x", "y"), 1)})


def test_apply_quotient_rule_on_moved_generator():
    dset = kernel_dset()
    d = ddx(dset)
    x, y = LocElem.variable(dset, "x"), LocElem.variable(dset, "y")
    a = y / (x + y) ** 2
    assert d.apply(a) == -2 * y / (x + y) ** 3
    assert d.apply(a) == reference_apply(d, a)


def test_apply_after_denominator_set_grows():
    dset = kernel_dset()
    derivations = kernel_derivations(dset)
    rng = random.Random(5)
    first = rand_locelem(rng, dset)
    for d in derivations:
        assert d.apply(first) == reference_apply(d, first)
    grown = LocElem(dset, Poly.variable(VARS, "y") * 3 - 1).inverse()
    assert len(dset) == 4
    for _ in range(10):
        a = rand_locelem(rng, dset) * grown
        for d in derivations:
            assert d.apply(a) == reference_apply(d, a)


def moving_derivation(rng, dset):
    """Each variable to a random linear form plus a constant: unlike the
    stage and simple derivations, it moves the invariant generators."""
    images = {}
    for v in dset.vars:
        coeffs = {w: rng.randint(-3, 3) for w in rng.sample(dset.vars, 2)}
        images[v] = Poly.linear(dset.vars, coeffs) + rng.randint(-2, 2)
    return Derivation(dset, images, label="moving")


@pytest.mark.parametrize("name", ["conj-4", "adjoint-B2", "adjoint-G2"])
def test_apply_matches_the_quotient_rule_with_moved_generators(name):
    """Derivation.apply, field for field, against the quotient rule taken
    one generator at a time, on elements over two or more moved
    generators, and on their images under D again."""
    dset = generator_set_constructions()[name]().dset
    checked = 0
    for seed in range(5):
        rng = random.Random(seed)
        d = moving_derivation(rng, dset)
        moved = [not derivation_apply(d, g).is_zero() for g in dset.gens]
        for _ in range(3):
            den = [rng.randint(1, 2) for _ in dset.gens]
            a = LocElem(dset, criterion_poly(rng, dset.vars), den)
            if sum(m for m, e in zip(moved, a.den) if e) < 2:
                continue
            for _ in range(2):
                got, want = d.apply(a), derivation_apply(d, a)
                assert (got.num, got.den) == (want.num, want.den)
                checked += 1
                a = got
    assert checked >= 20


def symbolic_rows(dset, elements, point):
    return [[a.deriv(v).evaluate(point) for v in dset.vars] for a in elements]


def assert_nonzero_multiples(rows, expected):
    """Each row is a row of ints, a nonzero rational multiple of the row of
    expected at the same place."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        assert all(type(x) is int for x in row), row
        j = next((j for j, y in enumerate(want) if y), None)
        if j is None:
            assert not any(row), row
            continue
        c = Fraction(row[j]) / want[j]
        assert c != 0
        assert [c * y for y in want] == row, (row, want)


def test_jacobian_rank_matches_symbolic_rows(monkeypatch):
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
    dset = kernel_dset()
    rng = random.Random(3)
    for _ in range(10):
        elements = [rand_locelem(rng, dset) for _ in range(3)]
        point = sample_regular_point(dset, rng)
        r = jacobian_rank(dset, elements, point)
        expected = symbolic_rows(dset, elements, point)
        assert_nonzero_multiples(seen.pop(), expected)
        assert r == rank(expected)


def test_jacobian_rank_singular_point():
    dset = kernel_dset()
    x, y = LocElem.variable(dset, "x"), LocElem.variable(dset, "y")
    pt = {"x": Fraction(2), "y": Fraction(-2), "z": Fraction(1)}
    assert jacobian_rank(dset, [x * y], pt) == 1
    with pytest.raises(SingularPointError, match=r"^denominator generator x \+ y vanishes$"):
        jacobian_rank(dset, [x, y / (x + y)], pt)


def test_jacobian_rank_rejects_an_element_over_another_denominator_set():
    # 1/(y - 3) has exponent 1 on generator 0 of its own set; read against
    # another set whose generator 0 is x + 1 it would count as 1/(x + 1)
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    own, other = DenominatorSet(VARS, [y - 3]), DenominatorSet(VARS, [x + 1])
    a = LocElem(own, 1, [1])
    pt = {"x": Fraction(2), "y": Fraction(5), "z": Fraction(1)}
    assert jacobian_rank(own, [a, LocElem.variable(own, "x")], pt) == 2
    with pytest.raises(UniverseMismatch):
        jacobian_rank(other, [a, LocElem.variable(other, "x")], pt)


def test_value_and_gradient_matches_deriv_at_edge_points():
    x, y, z = (Poly.variable(VARS, v) for v in VARS)
    polys = [
        Poly.const(VARS, 0),
        Poly.const(VARS, Fraction(7, 3)),
        x,
        # x under exponents 1, 2 and 3; terms in one, two and three variables
        x * y * y * z * 3 - x * x * z + x * x * x + y * Fraction(5, 2) - 4,
        x * y * z + x * y + x * x * y * y * Fraction(-1, 6) + z,
    ]
    rng = random.Random(7)
    polys += [rand_poly(rng, nterms=6, deg=3) for _ in range(10)]
    coords = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-5, 7)]
    for p in polys:
        for cx in coords:
            for cy in coords:
                for cz in coords:
                    pt = {"x": cx, "y": cy, "z": cz}
                    b, ints = _over_common_den(VARS, pt)
                    val, grad = p.value_and_gradient(b, ints)
                    assert all(type(c) is int for c in [val, *grad])
                    s = p._den * b ** p.total_degree()
                    expected = [p.deriv(v).evaluate(pt) for v in VARS]
                    assert Fraction(val, s) == p.evaluate(pt), (str(p), pt)
                    assert [Fraction(g, s) for g in grad] == expected, (str(p), pt)


def test_jacobian_rank_takes_polys_and_empty_lists(monkeypatch):
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
    dset = kernel_dset()
    x, y, z = (Poly.variable(VARS, v) for v in VARS)
    pt = {"x": Fraction(0), "y": Fraction(3, 2), "z": Fraction(-1)}
    elements = [x * y, y * y * z, x * y * z + x * x]
    expected = symbolic_rows(dset, elements, pt)
    assert jacobian_rank(dset, elements, pt) == rank(expected)
    assert_nonzero_multiples(seen.pop(), expected)
    assert jacobian_rank(dset, [], pt) == 0
    assert seen.pop() == []


def generator_set_constructions():
    """Fresh constructions, so that a test may register denominators."""
    return {
        "adjoint-A2": lambda: AdjointConstruction(get_basis("A", 2)),
        "adjoint-B2": lambda: AdjointConstruction(get_basis("B", 2)),
        "adjoint-G2": lambda: AdjointConstruction(get_basis("G", 2)),
        "conj-3": lambda: ConjugationConstruction(3),
        "conj-4": lambda: ConjugationConstruction(4),
        "rep-adj-b2": lambda: RepConstruction(
            load_rep(json.loads(REP_ADJ_B2.read_text()))
        ),
    }


@pytest.mark.parametrize("name", list(generator_set_constructions()))
def test_jacobian_rank_rows_match_symbolic_rows_on_generator_sets(name, monkeypatch):
    """The rows jacobian_rank hands linalg.rank are nonzero multiples of the
    LocElem.deriv rows, at the regular points Construction.verify draws for
    seeds 0-4, and their rank is the symbolic rank."""
    c = generator_set_constructions()[name]()
    elements = c.generator_set(verify=False).elements
    derivs = [[a.deriv(v) for v in c.dset.vars] for a in elements]
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
    for seed in range(5):
        point = sample_regular_point(c.dset, random.Random(seed))
        r = jacobian_rank(c.dset, elements, point)
        expected = [[d.evaluate(point) for d in row] for row in derivs]
        assert_nonzero_multiples(seen.pop(), expected)
        assert r == rank(expected) == len(elements)


@pytest.mark.parametrize("name", list(generator_set_constructions()))
def test_jacobian_rank_sees_dependent_elements(name):
    """A product of two emitted generators and a rational function of three
    lie in the field they generate: they raise the rank by nothing, and
    either one in place of a generator makes verify fail the rank."""
    c = generator_set_constructions()[name]()
    gs = c.generator_set(verify=False)
    e0, e1, e2 = gs.elements[:3]
    product = e0 * e1
    ratio = (e0 + e1 * e2) / (e2 + 1)  # registers e2 + 1 as a denominator
    rng = random.Random(0)
    for _ in range(3):
        point = sample_regular_point(c.dset, rng)
        assert jacobian_rank(c.dset, gs.elements + [product, ratio], point) == len(gs)
    for dependent in (product, ratio):
        entries = gs.entries[:-1] + [("dependent", dependent)]
        report = c.verify(GeneratorSet(entries, c.dset))
        (check,) = [ch for ch in report["checks"] if ch["name"] == "jacobian_rank"]
        assert check == {
            "name": "jacobian_rank", "status": "fail",
            "rank": len(gs) - 1, "expected": len(gs),
        }


# -- the projector at a point ----------------------------------------------


def test_image_point_rejects_what_is_not_a_flow():
    dset = make_dset()
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    one = Poly.const(VARS, 1)
    pt = {"x": Fraction(2), "y": Fraction(3), "z": Fraction(5)}
    quadratic = Derivation(dset, {"x": one, "y": x * x}, label="quadratic")
    p = Projector(dset, [Stage(quadratic, LocElem(dset, x), 1)])
    with pytest.raises(ValueError, match="quadratic"):
        p.image_point(pt)
    # d/dx + y d/dy: the linear part y d/dy is not nilpotent
    scaling = Derivation(dset, {"x": one, "y": y}, label="d/dx + y d/dy")
    p = Projector(dset, [Stage(scaling, LocElem(dset, x), 1)])
    with pytest.raises(NotLocallyNilpotent, match=r"d/dx \+ y d/dy"):
        p.image_point(pt)


def value_constructions():
    """Every construction of the acceptance suite, conj n=4 and the
    adjoint representation of B2."""
    from test_acceptance import all_constructions

    rep_b2 = RepConstruction(load_rep(json.loads(REP_ADJ_B2.read_text())))
    return all_constructions() + [ConjugationConstruction(4), rep_b2]


def projected_sources(c):
    """Generator name -> the element the construction projects for it."""
    dset = c.dset
    if isinstance(c, AdjointConstruction):
        out = {
            f"P({s})": LocElem.variable(dset, s) for s in c.basis.neg_symbol.values()
        }
        for i, h in enumerate(c.cartan_complement()):
            out[f"P(Hc{i + 1})"] = LocElem(dset, h)
        return out
    if isinstance(c, ConjugationConstruction):
        return {
            f"P(c_{a}_{b})": LocElem(dset, m)
            for (a, b), m in c.elements["c_beta"].items()
        }
    # rep: the final forms independent of the lowest forms, in order
    rows = [[coefficient_of(s.lowest_form, v) for v in dset.vars] for s in c.stages]
    out = {}
    for f in c.final_forms:
        row = [coefficient_of(f, v) for v in dset.vars]
        if linalg.rank(rows + [row]) > linalg.rank(rows):
            rows.append(row)
            out[f"P(f{len(out) + 1})"] = LocElem(dset, f)
    return out


def test_generators_take_their_values_at_the_image_point():
    """P(f)(x) = f(pi(x)): every coordinate and every emitted generator
    against the point map, at seeded regular points."""
    for c in value_constructions():
        p = c.projector
        label = f"{type(c).__name__} {c.dset.vars}"
        coordinates = {v: p.apply(LocElem.variable(c.dset, v)) for v in c.dset.vars}
        entries = c.generator_set(verify=False).entries
        sources = projected_sources(c)
        rng = random.Random(0)
        for _ in range(3):
            x = sample_regular_point(c.dset, rng)
            px = p.image_point(x)
            for v, pv in coordinates.items():
                assert pv.evaluate(x) == px[v], (label, v)
            for name, g in entries:
                if name.startswith("P("):
                    assert g.evaluate(x) == sources[name].evaluate(px), (label, name)
                else:
                    assert g.evaluate(px) == g.evaluate(x), (label, name)
            for w in witnesses(p):
                assert w.evaluate(px) == 0, (label, str(w))
            assert p.image_point(px) == px, label
