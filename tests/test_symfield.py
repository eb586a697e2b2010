import heapq
import random
from fractions import Fraction

import pytest

from uproj.symfield import (
    MAX_DEGREE,
    DegreeBoundError,
    DenominatorSet,
    LocElem,
    Packing,
    Poly,
    SingularPointError,
    UniverseMismatch,
)

from oracles import (
    coefficient_of,
    leading,
    locelem_from_json,
    poly_from_json,
    poly_text,
)

VARS = ("x", "y", "z")


def rand_poly(rng, nterms=4, deg=4):
    terms = {}
    for _ in range(nterms):
        exp = [0] * len(VARS)
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(len(VARS))] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Poly(VARS, terms)


def rand_point(rng):
    return {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in VARS}


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(11)
    for _ in range(25):
        p, q = rand_poly(rng), rand_poly(rng)
        pt = rand_point(rng)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p ** 3).evaluate(pt) == p.evaluate(pt) ** 3


def test_derivative_product_rule():
    rng = random.Random(12)
    for _ in range(15):
        p, q = rand_poly(rng), rand_poly(rng)
        for v in VARS:
            lhs = (p * q).deriv(v)
            rhs = p.deriv(v) * q + p * q.deriv(v)
            assert lhs == rhs


def test_exact_div_roundtrip_and_failure():
    rng = random.Random(13)
    for _ in range(20):
        p, q = rand_poly(rng), rand_poly(rng)
        if q.is_zero():
            continue
        prod = p * q
        got = prod.exact_div(q)
        assert got == p
    p = Poly(VARS, {(2, 0, 0): 1, (0, 1, 0): 1})
    d = Poly(VARS, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert p.exact_div(d) is None


def test_content_and_primitive():
    p = Poly(VARS, {(1, 0, 0): Fraction(4, 3), (0, 1, 0): Fraction(-2, 3)})
    c, prim = p.content_and_primitive()
    assert c * Fraction(1) != 0
    assert prim * c == p
    coeffs = list(prim.terms.values())
    assert all(x.denominator == 1 for x in coeffs)
    assert leading(prim)[1] > 0


def test_coefficient_of_and_linear():
    p = Poly.linear(VARS, {"x": Fraction(2), "z": Fraction(-1)})
    assert coefficient_of(p, "x") == 2
    assert coefficient_of(p, "y") == 0
    assert coefficient_of(p, "z") == -1
    # packed keys against the exponent-tuple constructor, on int, Fraction
    # and zero coefficients
    exps = {name: tuple(int(v == name) for v in VARS) for name in VARS}
    for coeffs in (
        {"x": 3, "y": -2},
        {"y": Fraction(-3, 4), "z": Fraction(5, 6)},
        {"x": Fraction(1, 2), "y": 0, "z": 4},
        {"x": 0, "z": Fraction(0)},
        {},
    ):
        ref = Poly(VARS, {exps[name]: c for name, c in coeffs.items()})
        got = Poly.linear(VARS, coeffs)
        assert got == ref and got.terms == ref.terms, coeffs
        assert list(got.terms) == list(ref.terms), coeffs


def test_universe_mismatch_raises():
    p = Poly(("x",), {(1,): 1})
    q = Poly(("y",), {(1,): 1})
    with pytest.raises(UniverseMismatch):
        p + q


def test_poly_json_roundtrip():
    rng = random.Random(15)
    for _ in range(10):
        p = rand_poly(rng)
        assert poly_from_json(p.to_json()) == p


def test_formatted_matches_the_fraction_reference():
    # one pass writes each term once, for the JSON and the text; the text
    # is checked against a term-by-term writer over Fractions, the JSON
    # against the Fraction view
    rng = random.Random(11)
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    polys = [Poly.const(VARS, 0), Poly.const(VARS, Fraction(-7, 3)), -x, x - y * 2]
    polys += [rand_poly(rng, nterms=rng.randint(1, 6)) for _ in range(200)]
    for p in polys:
        data, text = p.formatted()
        assert text == str(p) == poly_text(p)
        assert data == p.to_json()
        assert poly_from_json(data) == p
    dset = DenominatorSet(VARS, [x + 1, y - 2, x * y + 3])
    data, texts = dset.formatted()
    assert texts == [poly_text(g) for g in dset.gens]
    assert data == dset.to_json()
    for _ in range(50):
        den = [rng.randint(0, 2) for _ in dset.gens]
        a = LocElem(dset, rand_poly(rng), den)
        data, text = a.formatted(texts)
        assert data == a.to_json() and text == str(a)
        want = poly_text(a.num)
        if a.den:
            want = f"({want})*" + "*".join(
                f"({poly_text(dset.gens[i])})^-{e}" for i, e in enumerate(a.den) if e
            )
        assert text == want


def test_locelem_inverse_and_cancellation():
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    inv = x.inverse()
    assert (x * inv).constant_value() == 1
    # numerators divisible by a registered denominator cancel exactly
    a = (x * x * y) * inv
    assert a.is_polynomial()
    assert a == x * y


def test_locelem_field_arithmetic_via_evaluation():
    rng = random.Random(16)
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    a = y / x + x * x
    b = (x + y) / (x * x)
    for _ in range(10):
        pt = {v: Fraction(rng.randint(1, 9)) for v in VARS}
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)


def test_singular_point_error():
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    a = x.inverse()
    with pytest.raises(SingularPointError):
        a.evaluate({"x": Fraction(0), "y": Fraction(1), "z": Fraction(1)})


def test_locelem_deriv_quotient_rule():
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    a = y * x.inverse()
    d = a.deriv("x")
    # d(y/x)/dx = -y/x^2
    expected = -y * x.inverse() * x.inverse()
    assert d == expected


def test_locelem_json_roundtrip():
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    a = (y + x * x) * x.inverse()
    data = a.to_json()
    assert locelem_from_json(dset, data) == a


def test_locelem_power_matches_repeated_multiplication():
    # a ** n reduces num^n over n * den once; x^2 divides num^n for n >= 2
    # without dividing num = x * (...), and x*y and x overlap
    rng = random.Random(18)
    x2, xy, x = (Poly(VARS, {e: 1}) for e in [(2, 0, 0), (1, 1, 0), (1, 0, 0)])
    for extra in ([x2], [xy, x], [x2, xy]):
        for _ in range(20):
            gens = [rand_poly(rng, nterms=2, deg=2) for _ in range(2)] + extra
            dset = DenominatorSet(VARS, [g for g in gens if not g.is_constant()])
            num = x * rand_poly(rng, nterms=3, deg=3)
            a = LocElem(dset, num, [rng.randint(0, 2) for _ in dset.gens])
            want = LocElem.const(dset, 1)
            for n in range(6):
                got = a ** n
                assert (got.num, got.den) == (want.num, want.den)
                want = want * a


def test_locelem_constant_comparison_matches_subtraction():
    # a == c reads the normal form; the reference subtracts c.  Elements
    # equal to c are built as c times their own denominator, over the
    # overlapping generators x, x*y and x^2 + z
    rng = random.Random(19)
    x, y, z = (Poly.variable(VARS, v) for v in VARS)
    dset = DenominatorSet(VARS, [x, x * y, x * x + z])
    hidden = 0
    for _ in range(400):
        c = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
        den = [rng.randint(0, 2) for _ in dset.gens]
        num = LocElem(dset, Poly.const(VARS, 1), den).den_poly() * c
        kind = rng.randrange(3)
        if kind == 1:
            num = num + rand_poly(rng, nterms=2, deg=2)
        elif kind == 2:
            num = rand_poly(rng, nterms=3, deg=3)
        a = LocElem(dset, num, den)
        for other in (c, c + 1, -c, Fraction(c) / 2, 0):
            want = (a - other).is_zero()
            assert (a == other) is want and (other == a) is want
            assert (a != other) is not want
        hidden += kind == 0 and any(den)
    assert hidden > 50


def test_locelem_scalar_multiple_is_reduced():
    rng = random.Random(17)
    dset = DenominatorSet(VARS)
    x = LocElem.variable(dset, "x")
    y = LocElem.variable(dset, "y")
    elems = [(y + x * x) * x.inverse(), (x + y) / (x * y + 1), x * y]
    for a in elems:
        for c in (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 3, -1):
            if c == 0:
                continue
            got = a * c
            # the same element through _reduce
            want = LocElem(dset, a.num * c, a.den)
            assert (got.num, got.den) == (want.num, want.den)
            neg = -a
            assert (neg.num, neg.den) == (-a.num, a.den)
        zero = a * 0
        assert zero.is_zero() and zero.den == ()


# -- property tests of the integer-numerator kernel ---------------------
#
# Each operation is checked against a plain {exp: Fraction} dict reference
# (the formulas of a Fraction-coefficient kernel), and every result against
# the invariants of the stored form.


def _hypothesis():
    """hypothesis and its strategies; skips the test where it is missing."""
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies


def _polys(st, nvars=len(VARS), max_exp=3, max_terms=5):
    """Strategy for {exp: Fraction} dicts, zero entries included."""
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


def _settings(hyp):
    return hyp.settings(max_examples=150, deadline=None)


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_deriv(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = c * e[i]
    return ref_clean(out)


def ref_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for v, k in zip(point, e):
            term *= v**k
        total += term
    return total


def grevlex_key(exp):
    """Sort key for graded reverse-lexicographic order, largest first."""
    return (-sum(exp), tuple(exp[::-1]))


def ref_exact_div(a, d):
    """Heap-free long division over Q in grevlex order, or None."""
    dexp = min(d, key=grevlex_key)
    rem = dict(a)
    quot = {}
    while rem:
        rexp = min(rem, key=grevlex_key)
        q = tuple(x - y for x, y in zip(rexp, dexp))
        if any(k < 0 for k in q):
            return None
        c = rem[rexp] / d[dexp]
        quot[q] = c
        rem = ref_add(rem, {tuple(x + y for x, y in zip(q, e)): -c * k
                            for e, k in d.items()})
    return quot


def assert_normal(p):
    """Lowest terms, positive denominator, no zero numerators."""
    from math import gcd

    assert isinstance(p._den, int) and p._den > 0
    assert all(isinstance(n, int) and n for n in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1


def test_poly_matches_fraction_reference():
    hyp, st = _hypothesis()
    point = st.tuples(*[st.fractions(-6, 6, max_denominator=7)] * len(VARS))

    @_settings(hyp)
    @hyp.given(_polys(st), _polys(st), point)
    def check(ta, tb, pt):
        a, b = Poly(VARS, ta), Poly(VARS, tb)
        ra, rb = ref_clean(ta), ref_clean(tb)
        assert dict(a.terms) == ra
        cases = [
            (a + b, ref_add(ra, rb)),
            (a - b, ref_add(ra, {e: -c for e, c in rb.items()})),
            (-a, {e: -c for e, c in ra.items()}),
            (a * b, ref_mul(ra, rb)),
            (a * pt[0], ref_clean({e: c * pt[0] for e, c in ra.items()})),
            (a**2, ref_mul(ra, ra)),
        ]
        cases += [(a.deriv(v), ref_deriv(ra, i)) for i, v in enumerate(VARS)]
        for got, want in cases:
            assert_normal(got)
            assert dict(got.terms) == want
        assert a.evaluate(dict(zip(VARS, pt))) == ref_evaluate(ra, pt)

    check()


def test_poly_ring_laws():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(_polys(st), _polys(st), _polys(st))
    def check(ta, tb, tc):
        a, b, c = (Poly(VARS, t) for t in (ta, tb, tc))
        zero, one = Poly.const(VARS, 0), Poly.const(VARS, 1)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert (a - a).is_zero() and a - a == zero
        assert (a * zero).is_zero()

    check()


def test_exact_div_matches_reference_and_round_trips():
    hyp, st = _hypothesis()
    scale = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)

    @_settings(hyp)
    @hyp.given(_polys(st), _polys(st, max_exp=2, max_terms=3), scale)
    def check(tp, tg, s):
        p, g = Poly(VARS, tp), Poly(VARS, tg)
        hyp.assume(not g.is_zero())
        # divisors with rational and with non-primitive coefficients
        for d in (g, g * s, g * 6, g.content_and_primitive()[1] * 4):
            q = (p * d).exact_div(d)
            assert q == p
            assert_normal(q)
        got = p.exact_div(g)
        want = ref_exact_div(ref_clean(tp), ref_clean(tg))
        if want is None:
            assert got is None
        else:
            assert dict(got.terms) == want

    check()


def test_exact_div_rejects_a_non_integer_quotient_coefficient():
    # the leading monomial x of 2x + 1 divides that of each numerator, but
    # a quotient coefficient is not an integer: the first one for xy + 1,
    # the second one for 2x^2 + 2x + 1 = (2x + 1) x + (x + 1)
    g = Poly(VARS, {(1, 0, 0): 2, (0, 0, 0): 1})
    for terms in ({(1, 1, 0): 1, (0, 0, 0): 1},
                  {(2, 0, 0): 2, (1, 0, 0): 2, (0, 0, 0): 1}):
        p = Poly(VARS, terms)
        assert p.exact_div(g) is None
        assert ref_exact_div(ref_clean(terms), ref_clean(g.terms)) is None
    # scaled by a rational, the same numerators still do not divide, and
    # a multiple of the divisor does
    assert (p * Fraction(1, 2)).exact_div(g * 3) is None
    assert (g * Fraction(5, 4)).exact_div(g * 3) == Poly.const(VARS, Fraction(5, 12))


def test_terms_view_and_json_round_trip():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(_polys(st))
    def check(t):
        p = Poly(VARS, t)
        view = p.terms
        assert dict(view) == ref_clean(t)
        assert all(isinstance(c, Fraction) for c in view.values())
        with pytest.raises(TypeError):
            view[(0, 0, 0)] = Fraction(1)
        assert p.terms is view
        back = poly_from_json(p.to_json())
        assert back == p and hash(back) == hash(p)
        assert_normal(back)
        assert (back._num, back._den) == (p._num, p._den)

    check()


# -- packed monomial keys ----------------------------------------------------
#
# The same reference comparisons at total degrees next to MAX_DEGREE, where
# a field one bit too narrow or a wrong packing constant shows, and over a
# 49-variable universe (the size of the n = 7 conjugation universe).

WIDE = tuple(f"v{i}" for i in range(49))
# factors of at most this total degree multiply to at most MAX_DEGREE - 1
HALF = MAX_DEGREE // 2


def _exps_near(st, nvars, top):
    """Exponent tuples with one entry in [top - 3, top] at a drawn
    position and entries in [0, 1] elsewhere, capped at total degree top."""

    def build(args):
        pos, big, small = args
        exp = list(small)
        exp[pos] = big
        over = sum(exp) - top
        for j in range(nvars):
            if over > 0 and j != pos and exp[j]:
                exp[j] -= 1
                over -= 1
        return tuple(exp)

    return st.tuples(
        st.integers(0, nvars - 1),
        st.integers(top - 3, top),
        st.tuples(*[st.integers(0, 1)] * nvars),
    ).map(build)


def _polys_near(st, nvars, top, max_terms=3):
    coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.dictionaries(_exps_near(st, nvars, top), coeffs, max_size=max_terms)


def _sparse_polys(st, nvars, max_terms=4):
    """{exp: Fraction} dicts over nvars variables, each exponent tuple
    nonzero at no more than three positions."""
    exps = st.dictionaries(
        st.integers(0, nvars - 1), st.integers(1, 3), max_size=3
    ).map(lambda d: tuple(d.get(j, 0) for j in range(nvars)))
    coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


def _check_against_reference(variables, ta, tb, pt):
    """*, exact_div (of a product and of a plain dividend), deriv and
    evaluate of Polys built from ta and tb match the reference, and
    to_json and leading follow grevlex."""
    a, b = Poly(variables, ta), Poly(variables, tb)
    ra, rb = ref_clean(ta), ref_clean(tb)
    prod = a * b
    assert_normal(prod)
    assert dict(prod.terms) == ref_mul(ra, rb)
    if rb:
        assert prod.exact_div(b) == a
        got, want = a.exact_div(b), ref_exact_div(ra, rb)
        assert (got is None) == (want is None)
        if want is not None:
            assert dict(got.terms) == want
    for i in {0, len(variables) - 1, *(i for e in ra for i, k in enumerate(e) if k)}:
        got = a.deriv(variables[i])
        assert_normal(got)
        assert dict(got.terms) == ref_deriv(ra, i)
    point = dict(zip(variables, pt))
    assert a.evaluate(point) == ref_evaluate(ra, pt)
    order = sorted(ra, key=grevlex_key)
    assert [tuple(t["exp"]) for t in a.to_json()["terms"]] == order
    assert leading(a) == ((order[0], ra[order[0]]) if order else None)


def test_packed_keys_round_trip_and_order_as_grevlex():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(
        st.sampled_from([VARS, WIDE]).flatmap(
            lambda vs: st.tuples(
                st.just(vs),
                st.lists(_exps_near(st, len(vs), HALF), min_size=2, max_size=2),
            )
        )
    )
    def check(case):
        variables, (r, d) = case
        pk = Packing.of(variables)
        kr, kd = pk.pack(r), pk.pack(d)
        assert pk.unpack(kr) == r and pk.unpack(kd) == d
        assert (kr < kd) == (grevlex_key(r) > grevlex_key(d))
        # key(r + d) = key(r) + key(d) - key(0)
        assert pk.pack(tuple(x + y for x, y in zip(r, d))) == kr + kd - pk.base
        divides = all(x >= y for x, y in zip(r, d))
        assert divides == (not (kr - kd + pk.base) & pk.guard)
        # every field of a valid key is at most c: no guard bit is set
        assert not (kr | kd) & pk.guard

    check()


def test_poly_matches_reference_next_to_the_degree_bound():
    hyp, st = _hypothesis()
    value = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                             Fraction(-1, 2), Fraction(2, 3)])

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(
        _polys_near(st, len(VARS), HALF),
        _polys_near(st, len(VARS), MAX_DEGREE - HALF),
        st.tuples(*[value] * len(VARS)),
    )
    def check(ta, tb, pt):
        _check_against_reference(VARS, ta, tb, pt)

    check()


def test_poly_matches_reference_over_49_variables():
    hyp, st = _hypothesis()
    point = st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * len(WIDE))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(_sparse_polys(st, len(WIDE)), _sparse_polys(st, len(WIDE), 3), point)
    def check(ta, tb, pt):
        _check_against_reference(WIDE, ta, tb, pt)

    check()


def test_degree_bound_raises_and_never_wraps():
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    top = x ** (MAX_DEGREE - 1) * y
    assert top.total_degree() == MAX_DEGREE
    assert leading(top)[0] == (MAX_DEGREE - 1, 1, 0)
    assert ((x + y) ** 3).total_degree() == 3
    assert ((x * y) ** (MAX_DEGREE // 2)).total_degree() == MAX_DEGREE - 1
    for make in (
        lambda: top * x,
        lambda: top * (y + 1),
        lambda: x ** (MAX_DEGREE + 1),
        lambda: (x * y) ** (MAX_DEGREE // 2 + 1),
        lambda: Poly(VARS, {(MAX_DEGREE, 1, 0): 1}),
        lambda: Poly(VARS, {(MAX_DEGREE + 1, 0, 0): 1}),
    ):
        with pytest.raises(DegreeBoundError, match=str(MAX_DEGREE)):
            make()
    # the last square of a power is not taken, so x^n needs only n <= bound
    assert leading(x ** MAX_DEGREE) == ((MAX_DEGREE, 0, 0), 1)
    with pytest.raises(ValueError):
        Poly(VARS, {(1, -1, 0): 1})
    with pytest.raises(ValueError):
        Poly(VARS, {(1, 0): 1})


def test_exact_div_rejects_at_the_leading_term_before_building_a_heap(
    monkeypatch,
):
    def no_heap(heap):
        raise RuntimeError("heap built")

    monkeypatch.setattr(heapq, "heapify", no_heap)
    d = Poly(VARS, {(1, 0, 0): 2, (0, 0, 0): 1})
    # the leading monomial y^2 is not a multiple of x
    assert Poly(VARS, {(0, 2, 0): 1, (1, 0, 0): 3}).exact_div(d) is None
    # x^2 is, but its coefficient 3 is not a multiple of 2
    assert Poly(VARS, {(2, 0, 0): 3, (0, 0, 0): 1}).exact_div(d) is None
    # a divisor of higher degree than the dividend
    assert Poly(VARS, {(0, 0, 1): 1}).exact_div(d * d) is None
    with pytest.raises(RuntimeError, match="heap built"):
        (d * d).exact_div(d)


# -- one-term factors and divisors: key shifts, no accumulator or heap ----


def test_one_term_factor_and_divisor_match_the_reference():
    hyp, st = _hypothesis()
    # negative, rational and non-primitive (content != 1) coefficients
    coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool)

    @_settings(hyp)
    @hyp.given(st.integers(1, 3), st.data())
    def check(nvars, data):
        variables = VARS[:nvars]
        tp = data.draw(_polys(st, nvars=nvars))
        # constants and monomials in one to nvars variables
        exp = data.draw(st.tuples(*[st.integers(0, 3)] * nvars))
        c = data.draw(coeffs)
        p, d = Poly(variables, tp), Poly(variables, {exp: c})
        rp, rd = ref_clean(tp), {exp: c}
        one = Poly.const(variables, 1)
        for got, want in (
            (p * d, ref_mul(rp, rd)),
            (d * p, ref_mul(rd, rp)),
            (p * one, rp),
            (one * p, rp),
        ):
            assert_normal(got)
            assert dict(got.terms) == want
        for divisor in (d, d * 6, d * Fraction(-4, 9)):
            q = (p * divisor).exact_div(divisor)
            assert q == p
            assert_normal(q)
        got, want = p.exact_div(d), ref_exact_div(rp, rd)
        if want is None:
            assert got is None
        else:
            assert_normal(got)
            assert dict(got.terms) == want

    check()


def test_one_term_divisor_builds_no_heap(monkeypatch):
    def no_heap(heap):
        raise RuntimeError("heap built")

    monkeypatch.setattr(heapq, "heapify", no_heap)
    d = Poly(VARS, {(1, 0, 1): -6})  # -6xz, content 6
    # a hit: (3x^2yz + xz/2) / (-6xz) = -xy/2 - 1/12
    hit = Poly(VARS, {(2, 1, 1): 3, (1, 0, 1): Fraction(1, 2)})
    assert hit.exact_div(d) == Poly(
        VARS, {(1, 1, 0): Fraction(-1, 2), (0, 0, 0): Fraction(-1, 12)}
    )
    # a miss at the leading term: xz does not divide y^3
    assert Poly(VARS, {(0, 3, 0): 1, (1, 0, 1): 1}).exact_div(d) is None
    # a miss past it: xz divides x^2z^2 but not y
    assert Poly(VARS, {(2, 0, 2): 1, (0, 1, 0): 5}).exact_div(d) is None
    # a divisor of two terms still takes the heap
    with pytest.raises(RuntimeError, match="heap built"):
        (hit * (d + 1)).exact_div(d + 1)


def test_equality_declines_operands_that_are_not_numbers_or_elements():
    p = Poly.const(VARS, 3)
    assert p == 3 and p == Fraction(3) and 3 == p
    assert p != "3" and not p == "3"
    assert p != None  # noqa: E711
    dset = DenominatorSet(VARS, [Poly.variable(VARS, "x")])
    a = LocElem(dset, p)
    assert a == 3 and a == Fraction(3) and a == p and p == a
    assert a != "3" and a != None  # noqa: E711
    b = LocElem(dset, p, (1,))
    assert b != None and not b == None  # noqa: E711
    assert [a, b].count(None) == 0
    assert b != p and p != b


# -- property tests of LocElem ---------------------------------------------
#
# Every example builds its own DenominatorSet: division registers new
# generators, so a shared one would carry state from example to example.


def _loc_case(st, count):
    """Strategy for generator terms and `count` (numerator terms,
    denominator exponents) pairs."""
    gens = st.lists(_polys(st, max_exp=1, max_terms=3), min_size=1, max_size=2)
    elem = st.tuples(
        _polys(st, max_exp=2, max_terms=3), st.lists(st.integers(0, 2), max_size=2)
    )
    return st.tuples(gens, st.lists(elem, min_size=count, max_size=count))


def _build(hyp, case):
    """A fresh DenominatorSet of the drawn generators, and the elements."""
    gen_terms, elems = case
    gens = [Poly(VARS, t) for t in gen_terms]
    hyp.assume(not any(g.is_constant() for g in gens))
    dset = DenominatorSet(VARS, gens)
    return dset, [
        LocElem(dset, Poly(VARS, t), den[: len(dset)]) for t, den in elems
    ]


def assert_reduced(a):
    """_reduce's normal form: no trailing zero exponent, and no generator
    with a positive exponent divides the numerator."""
    assert not a.den or a.den[-1] > 0
    for i, e in enumerate(a.den):
        if e:
            assert a.num.exact_div(a.dset.gens[i]) is None


def test_locelem_normal_form_and_ring_laws():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(_loc_case(st, 3))
    def check(case):
        dset, (a, b, c) = _build(hyp, case)
        zero, one = LocElem.const(dset, 0), LocElem.const(dset, 1)
        for x in (a, b, c, a + b, a - b, a * b, -a, a * Fraction(-2, 3)):
            assert_reduced(x)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert (a - a).is_zero() and (a * zero).is_zero()

    check()


def test_locelem_division_round_trip():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(_loc_case(st, 2))
    def check(case):
        dset, (a, b) = _build(hyp, case)
        hyp.assume(not b.is_zero())
        q = (a * b) / b
        assert_reduced(q)
        assert q == a

    check()


def test_locelem_deriv_leibniz_and_quotient_rule():
    hyp, st = _hypothesis()

    @_settings(hyp)
    @hyp.given(_loc_case(st, 2))
    def check(case):
        dset, (a, b) = _build(hyp, case)
        for v in VARS:
            da, db = a.deriv(v), b.deriv(v)
            assert_reduced(da)
            assert (a * b).deriv(v) == da * b + a * db
            if not b.is_zero():
                assert (a / b).deriv(v) == (da * b - a * db) / (b * b)

    check()


def test_locelem_evaluate_is_a_ring_homomorphism():
    hyp, st = _hypothesis()
    point = st.tuples(*[st.fractions(-6, 6, max_denominator=7)] * len(VARS))

    @_settings(hyp)
    @hyp.given(_loc_case(st, 2), point)
    def check(case, pt):
        dset, (a, b) = _build(hyp, case)
        pt = dict(zip(VARS, pt))
        hyp.assume(all(g.evaluate(pt) != 0 for g in dset.gens))
        va, vb = a.evaluate(pt), b.evaluate(pt)
        assert (a + b).evaluate(pt) == va + vb
        assert (a - b).evaluate(pt) == va - vb
        assert (a * b).evaluate(pt) == va * vb
        assert LocElem.const(dset, 1).evaluate(pt) == 1
        if vb != 0:
            assert (a / b).evaluate(pt) == va / vb

    check()
