"""Locally nilpotent derivation engine.

A Stage is a derivation with its slice and the witness the slice was
built from; its s-map is the slice exponential.  A Projector composes
stages over one denominator set.  Also here: the projector at a point,
invariance verification and the Jacobian rank.  Everything is exact;
local nilpotency is a runtime contract enforced by an iteration cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .symfield import (
    FIELD_BITS,
    FIELD_MASK,
    MAX_DEGREE,
    LocElem,
    Packing,
    Poly,
    SingularPointError,
    UniverseMismatch,
    _over_common_den,
    check_degree,
)


class NotLocallyNilpotent(RuntimeError):
    """The S-map expansion did not terminate within the iteration cap."""


class TriangularityError(ValueError):
    """A stage derivation fails to kill a later stage's slice element."""


class Derivation:
    """Derivation of a polynomial universe given by variable images.

    Images are polynomials; the action extends to localized elements by
    Leibniz and the quotient rule.
    """

    def __init__(self, dset, images, label=""):
        self.dset = dset
        self.label = label
        self.images = {}
        for v, img in images.items():
            if not isinstance(img, Poly):
                raise TypeError("derivation images must be polynomials")
            if img.vars != dset.vars:
                raise UniverseMismatch("image over a different variable universe")
            if not img.is_zero():
                self.images[v] = img
        # D(x^e) = sum_i e_i x^(e - unit_i) img_i, so each image term
        # (e2, n2) of variable i moves the packed key of x^e by
        # key(e2) - key(unit_i), exact whenever e_i >= 1; the field at bit
        # FIELD_BITS * i holds MAX_DEGREE - e_i.  The numerators are
        # brought over the images' common denominator
        pk = Packing.of(dset.vars)
        self._image_den = lcm(*(img._den for img in self.images.values()))
        self._shifts = []
        for v, img in self.images.items():
            i = dset.vars.index(v)
            scale = self._image_den // img._den
            unit = pk.base + pk.units[i]
            self._shifts.append(
                (FIELD_BITS * i, [(k2 - unit, n2 * scale) for k2, n2 in img._num.items()])
            )
        # images of degree d > 1 can raise a total degree by d - 1
        self._degree_rise = max(
            (img.total_degree() for img in self.images.values()), default=1
        ) - 1
        # D(gens[i]) by generator index; gens only ever grows, so the
        # index is a stable key
        self._gen_images = {}

    def apply(self, a):
        """D(n / prod g_i^e_i), reduced once.

        Only generators with e_i > 0 and D(g_i) != 0 take the quotient
        rule; when there are none the result is D(n) over the same
        denominator.
        """
        if isinstance(a, Poly):
            a = LocElem(self.dset, a)
        if a.dset is not self.dset:
            raise UniverseMismatch("element over a different denominator set")
        num = self._apply_poly(a.num)
        den = list(a.den)
        # With M the moved generators (e_i > 0, D(g_i) != 0) and
        # P = prod_{i in M} g_i, the result is
        # (D(n) P - n sum_{i in M} e_i D(g_i) P / g_i) / (prod g^e * P);
        # the numerator is built one generator at a time, prod being the
        # product of those taken so far.  e and prod are folded into the
        # small D(g_i) first, so the large n is multiplied once per
        # generator
        prod = 1
        for i, e in enumerate(a.den):
            if not e:
                continue
            dg = self._gen_image(i)
            if dg.is_zero():
                continue
            g = self.dset.gens[i]
            num = num * g - a.num * (dg * prod * e)
            prod = g * prod
            den[i] += 1
        return LocElem(self.dset, num, den)

    def _apply_poly(self, p):
        """D(p) in one pass over the packed integer numerators of p."""
        if self._degree_rise > 0:
            check_degree(p.total_degree() + self._degree_rise)
        terms = {}
        get = terms.get
        for key, num in p._num.items():
            for at, shifted in self._shifts:
                k = MAX_DEGREE - ((key >> at) & FIELD_MASK)
                if not k:
                    continue
                nk = num * k
                for delta, c2 in shifted:
                    ne = key + delta
                    terms[ne] = get(ne, 0) + nk * c2
        return Poly.from_packed(
            p._pk, {k: c for k, c in terms.items() if c}, p._den * self._image_den
        )

    def _gen_image(self, i):
        dg = self._gen_images.get(i)
        if dg is None:
            dg = self._gen_images[i] = self._apply_poly(self.dset.gens[i])
        return dg

    def __repr__(self):
        return f"Derivation({self.label})"


class Stage:
    """One stage of a projector: a derivation D with its slice q = a1 / a0,
    where D(a1) = a0 and a0 is killed by D, and the witness (a1, a0).

    Raises ValueError, naming D, unless D(q) = 1 or -1; when D(q) = -1, q
    and a0 are negated.  A scalar a0 divides through LocElem.__truediv__
    and registers no denominator generator.
    """

    def __init__(self, derivation, a1, a0):
        q = a1 / a0
        r = derivation.apply(q)
        if r == -1:
            q, r, a0 = -q, -r, -a0  # D is linear
        if not r == 1:
            raise ValueError(f"D(q) != 1 for {derivation.label}: got {r}")
        self.derivation = derivation
        self.q = q
        self.witness = (a1, a0)


def smap(stage, a):
    """Slice exponential of a stage: sum_k (-1)^k D^k(a) q^k / k!.

    The series is summed in Horner order.  D^0(a), ..., D^K(a) are
    computed first and held all at once; then r = D^K(a), and
    r = D^k(a) - q r / (k + 1) for k = K - 1 down to 0.  Each r is a tail
    of the series, whose terms have already cancelled, where a forward
    partial sum carries terms that cancel only at the end.  Both orders
    give the same reduced element; tests/oracles.py keeps the forward sum
    as the reference.  The scalar -1 / (k + 1) goes onto the slice element
    q, which is small (one or two terms in most stages), not onto the
    tail r; a one-term numerator of q multiplies r by a key shift (see
    symfield).

    Raises NotLocallyNilpotent when D^k(a) is still nonzero past
    k = 10 deg(a) + 16: the cap is the forward sum's, and it fires after
    the same 10 deg(a) + 17 Derivation.apply calls.
    """
    derivation = stage.derivation
    if isinstance(a, Poly):
        a = LocElem(derivation.dset, a)
    q = stage.q
    iter_cap = 10 * a.total_degree() + 16
    powers = [a]
    while True:
        cur = derivation.apply(powers[-1])
        if cur.is_zero():
            break
        if len(powers) > iter_cap:
            raise NotLocallyNilpotent(
                f"derivation {derivation.label} not locally nilpotent on input "
                f"(cap {iter_cap} exceeded)"
            )
        powers.append(cur)
    result = powers.pop()
    for k in range(len(powers), 0, -1):
        result = powers[k - 1] + result * (q * Fraction(-1, k))
    return result


def apply_stages(stages, a):
    """Composed s-maps of stages, the first stage acting first."""
    for stage in stages:
        a = smap(stage, a)
    return a


class Projector:
    """Stages over a denominator set, applied as composed S-maps.

    Stages are listed in application order: the first stage acts first.
    Construction verifies the triangular ledger: the derivation of each
    stage kills the slice elements of all later stages exactly, and maps
    its own slice to 1.
    """

    def __init__(self, dset, stages):
        self.dset = dset
        self.stages = list(stages)
        self.check_triangularity()

    def check_triangularity(self):
        for i, s_i in enumerate(self.stages):
            d_i = s_i.derivation
            for j, s_j in enumerate(self.stages[i:], i):
                r = d_i.apply(s_j.q)
                expected = 1 if i == j else 0
                if not r == expected:
                    raise TriangularityError(
                        f"stage {i} ({d_i.label}) on slice of stage {j}: "
                        f"expected {expected}, got {r}"
                    )

    def apply(self, a):
        if isinstance(a, Poly):
            a = LocElem(self.dset, a)
        return apply_stages(self.stages, a)

    def image_point(self, point):
        """pi(x), the point with P(f)(x) = f(pi(x)) for every f.

        Each stage derivation D is an affine vector field whose linear part
        is nilpotent, so its s-map is a flow: smap(f)(y) = f(exp(-q(y) D) y).
        The stages act on the point last-first.  exp(-t D) y is the finite
        sum of (-t)^k / k! D^k(x)(y), where D(x)(y) is the image at y and
        each later term is the linear part applied to the one before.
        """
        point = dict(point)
        zero = dict.fromkeys(self.dset.vars, Fraction(0))
        for stage in reversed(self.stages):
            d = stage.derivation
            images = d.images.items()
            if any(img.total_degree() > 1 for _, img in images):
                raise ValueError(f"derivation {d.label} is not affine")
            t = -stage.q.evaluate(point)
            shift = {v: img.evaluate(zero) for v, img in images}
            term = {v: img.evaluate(point) for v, img in images}
            coef = Fraction(1)
            k = 0
            while any(term.values()):
                k += 1
                if k > len(zero):
                    raise NotLocallyNilpotent(
                        f"linear part of derivation {d.label} is not nilpotent"
                    )
                coef *= t / k
                for v, c in term.items():
                    point[v] += coef * c
                at = {**zero, **term}
                term = {v: img.evaluate(at) - shift[v] for v, img in images}
        return point


def verify_invariance(a, family):
    """Exact symbolic check D(a) = 0 for each derivation in the family."""
    checks = []
    for d in family:
        residue = d.apply(a)
        check = {"name": f"invariance:{d.label}", "status": "pass"}
        if not residue.is_zero():
            check["status"] = "fail"
            check["residue"] = str(residue)
        checks.append(check)
    return {"checks": checks}


def sample_regular_point(dset, rng):
    """Random integer point where all denominator generators are nonzero,
    from at most 200 draws."""
    for _ in range(200):
        point = {v: Fraction(rng.randint(-9, 9)) for v in dset.vars}
        if all(g.evaluate(point) != 0 for g in dset.gens):
            return point
    raise RuntimeError("could not sample a regular point")


def jacobian_rank(dset, elements, point):
    """Exact rank of the Jacobian of localized elements at a point.

    The point is brought over one common denominator once, and every row
    is built in ints.  Poly.value_and_gradient gives the value n and the
    gradient dn of a numerator over one scale, and the same for each
    denominator generator g.  The quotient rule
    d(n / g^e) = (g dn - e n dg) / g^(e + 1) is taken one generator at a
    time: with w the value carried beside the row, row <- g row - e w dg
    and w <- g w.  Each row is then the gradient of its element times a
    nonzero scalar (the scales, and the generators' values), which does
    not change the rank.  No derivative polynomial and no Fraction is
    built.  Elements must be over dset (UniverseMismatch otherwise), since
    their exponents index its generators.
    """
    b, ints = _over_common_den(dset.vars, point)
    gens = {}  # generator index -> (value, gradient) at the point
    rows = []
    for a in elements:
        if isinstance(a, Poly):
            a = LocElem(dset, a)
        elif a.dset is not dset:
            raise UniverseMismatch("element over a different denominator set")
        w, row = a.num.value_and_gradient(b, ints)
        for i, e in enumerate(a.den):
            if not e:
                continue
            if i not in gens:
                gens[i] = dset.gens[i].value_and_gradient(b, ints)
            g, dg = gens[i]
            if not g:
                raise SingularPointError(
                    f"denominator generator {dset.gens[i]} vanishes"
                )
            f = e * w
            row = [g * r - f * d for r, d in zip(row, dg)]
            w *= g
        rows.append(row)
    return linalg.rank(rows)
