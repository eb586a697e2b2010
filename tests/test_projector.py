import random
from fractions import Fraction

import pytest

from uproj.projector import (
    Derivation,
    Projector,
    SlicePair,
    TriangularityError,
    cross_section_check,
    jacobian_rank,
    sample_regular_point,
    smap,
    verify_invariance,
)
from uproj.symfield import DenominatorSet, LocElem, Poly

VARS = ("x", "y", "z")


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
    sp = SlicePair(d, x)
    assert smap(d, sp, x).is_zero()
    assert smap(d, sp, y) == y
    assert smap(d, sp, x * x + y) == y
    assert smap(d, sp, (x + y) ** 3) == y ** 3


def test_smap_is_a_ring_homomorphism():
    dset = make_dset()
    d = ddx(dset)
    x = LocElem.variable(dset, "x")
    sp = SlicePair(d, x)
    rng = random.Random(4)

    def rand_elem():
        terms = {}
        for _ in range(4):
            exp = [rng.randint(0, 2) for _ in VARS]
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
        return LocElem(dset, Poly(VARS, terms))

    for _ in range(15):
        a, b = rand_elem(), rand_elem()
        assert smap(d, sp, a * b) == smap(d, sp, a) * smap(d, sp, b)
        assert smap(d, sp, a + b) == smap(d, sp, a) + smap(d, sp, b)


def test_projector_composes_stages():
    dset = make_dset()
    dx, dy = ddx(dset), ddy(dset)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    z = LocElem.variable(dset, "z")
    # dx kills the later slice y, so (dx then dy) is triangular
    p = Projector([(dx, SlicePair(dx, x)), (dy, SlicePair(dy, y))], dset=dset)
    assert p.apply(x).is_zero()
    assert p.apply(y).is_zero()
    assert p.apply(z + x * y) == z
    # images are invariant: both derivations kill them
    out = p.apply(z * z + x + y ** 2)
    assert dx.apply(out).is_zero() and dy.apply(out).is_zero()


def test_triangularity_violation_detected():
    dset = make_dset()
    dx, dy = ddx(dset), ddy(dset)
    x = LocElem.variable(dset, "x")
    bad_q = LocElem.variable(dset, "y") + x  # dx does not kill it
    with pytest.raises(TriangularityError):
        Projector([(dx, SlicePair(dx, x)), (dy, SlicePair(dy, bad_q))], dset=dset)


def test_slice_pair_requires_unit_image():
    dset = make_dset()
    dx = ddx(dset)
    y = LocElem.variable(dset, "y")
    with pytest.raises(ValueError):
        SlicePair(dx, y)


def test_slice_pair_sign_normalization():
    dset = make_dset()
    dx = ddx(dset)
    x = LocElem.variable(dset, "x")
    sp = SlicePair(dx, -x)
    assert dx.apply(sp.q).constant_value() == 1


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
    p = Projector([(dx, SlicePair(dx, x, witness=(x, LocElem.const(dset, 1))))],
                  dset=dset)
    report = cross_section_check(p, [x], [y, z], trials=5, seed=1)
    assert all(c["status"] != "fail" for c in report["checks"])
