"""Exact multivariate polynomials and localized elements over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator, kept in lowest terms so that equal polynomials have equal
fields.  Each monomial is one packed int, after Monagan and Pearce
(*Polynomial division using dynamic arrays, heaps, and packed exponent
vectors*, CASC 2007).  Over n variables the key of x^e has n + 1 fields of
16 bits, from the top down

    key(e) = [ |e| | c - e_n | c - e_(n-1) | ... | c - e_1 ],  c = 2^15 - 1,

so that

- comparing keys as ints is the graded reverse-lexicographic order;
- key(a + b) = key(a) + key(b) - key(0), so a product of monomials is an
  int sum;
- x^d divides x^r exactly when key(r) - key(d) + key(0) has the top
  (guard) bit of no field set.

So a one-term factor or divisor costs one int shift per term of the other
operand: `*` and `exact_div` take that path without an accumulator or a
heap.  The first denominator generator of each pipeline is a single
coordinate, so many of the s-map engine's divisions are of this kind.

Every exponent fits its field while the total degree is at most
MAX_DEGREE = c = 32767.  An operation whose result could pass that bound
raises DegreeBoundError; a field never wraps.  Exponent tuples appear only
at the edges: the {exp: rational} constructor, the read-only
{exp: Fraction} view `terms`, JSON and text.

Localized elements (LocElem) carry a polynomial numerator and a formal
monomial denominator over a declared multiplicative set of generator
polynomials; cancellation happens only by exact division against those
generators, so normal forms stay cheap and canonical.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


class UniverseMismatch(ValueError):
    """Operands live over different variable universes or denominator sets."""


class SingularPointError(ValueError):
    """A denominator generator vanishes at the evaluation point."""


class DegreeBoundError(ValueError):
    """A monomial would pass MAX_DEGREE, the total degree that the packed
    exponent fields hold."""


def check_degree(deg):
    if deg > MAX_DEGREE:
        raise DegreeBoundError(
            f"total degree {deg} passes the bound {MAX_DEGREE} of packed monomials"
        )


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _over_lcm(coeffs):
    """({key: int}, den) for {key: nonzero Fraction}: the numerators over
    den, the lcm of the reduced denominators.  They are coprime to it, so
    the pair is in lowest terms."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def _over_common_den(variables, point):
    """(b, {FIELD_BITS * j: a_j}) with point[x_j] = a_j / b over the lcm b
    of the coordinates' denominators; a_j is keyed by the bit offset of
    x_j's field."""
    vals = [_fr(point[v]) for v in variables]
    b = lcm(*(v.denominator for v in vals))
    return b, {
        FIELD_BITS * j: v.numerator * (b // v.denominator) for j, v in enumerate(vals)
    }


class Packing:
    """Packed monomial keys over one variable tuple.

    base is key(0), with c in every variable field; shift is the bit
    offset of the degree field; guard has the top bit of every field set;
    units[i] is key(x_i) - key(0).  Packing.of returns one shared instance
    per variable tuple, so two polynomials share a universe exactly when
    they share a Packing.
    """

    __slots__ = ("vars", "base", "shift", "guard", "units", "_fields")
    _shared = {}

    @classmethod
    def of(cls, variables):
        variables = tuple(variables)
        pk = cls._shared.get(variables)
        if pk is None:
            pk = cls._shared[variables] = cls(variables)
        return pk

    def __init__(self, variables):
        n = len(variables)
        ones = sum(1 << (FIELD_BITS * i) for i in range(n))
        self.vars = variables
        self.shift = FIELD_BITS * n
        self.base = MAX_DEGREE * ones
        self.guard = (MAX_DEGREE + 1) * (ones + (1 << self.shift))
        self.units = [(1 << self.shift) - (1 << (FIELD_BITS * i)) for i in range(n)]
        # the exponents e_1 .. e_n as 16-bit little-endian fields
        self._fields = struct.Struct(f"<{n}H")

    def pack(self, exp):
        """key(exp) for a tuple of nonnegative ints."""
        exp = tuple(exp)
        if len(exp) != len(self.vars) or min(exp, default=0) < 0:
            raise ValueError(
                f"exponent {exp} is not {len(self.vars)} nonnegative integers"
            )
        deg = sum(exp)
        check_degree(deg)
        plain = int.from_bytes(self._fields.pack(*exp), "little")
        return self.base + (deg << self.shift) - plain

    def unpack(self, key):
        """The exponent tuple of a key."""
        plain = self.base + ((key >> self.shift) << self.shift) - key
        return self._fields.unpack(plain.to_bytes(self._fields.size, "little"))


class Poly:
    """Sparse exact polynomial over an ordered variable tuple.

    The coefficient of the monomial with key k (see Packing) is
    _num[k] / _den: _num maps keys to nonzero ints, _den is a positive
    int, gcd(_den, *_num.values()) is 1, and the zero polynomial has _den
    1.  Keys compare as grevlex, so max(_num) is the leading monomial, and
    no monomial has total degree above MAX_DEGREE.
    """

    __slots__ = ("vars", "_pk", "_num", "_den", "_terms")

    def __init__(self, variables, terms=None):
        """Polynomial with the given {exp: rational} coefficients."""
        pk = Packing.of(variables)
        coeffs = {}
        if terms:
            for exp, coeff in terms.items():
                c = _fr(coeff)
                if c:
                    coeffs[pk.pack(exp)] = c
        self.vars = pk.vars
        self._pk = pk
        self._num, self._den = _over_lcm(coeffs)
        self._terms = None

    @classmethod
    def from_packed(cls, pk, num, den=1):
        """Polynomial num / den from {key: nonzero int} over the Packing pk
        and a positive int den, brought to lowest terms; num is taken
        over, not copied."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: n // g for k, n in num.items()}
        p = cls.__new__(cls)
        p.vars = pk.vars
        p._pk = pk
        p._num = num
        p._den = den
        p._terms = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables, value):
        pk = Packing.of(variables)
        value = _fr(value)
        if value == 0:
            return cls.from_packed(pk, {})
        return cls.from_packed(pk, {pk.base: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, variables, name):
        pk = Packing.of(variables)
        return cls.from_packed(pk, {pk.base + pk.units[pk.vars.index(name)]: 1})

    @classmethod
    def linear(cls, variables, coeffs):
        """Linear polynomial from {name: coeff}, built on packed keys."""
        pk = Packing.of(variables)
        terms = {}
        for name, c in coeffs.items():
            if c := _fr(c):
                terms[pk.base + pk.units[pk.vars.index(name)]] = c
        return cls.from_packed(pk, *_over_lcm(terms))

    # -- coefficient view -----------------------------------------------

    @property
    def terms(self):
        """Read-only {exp: Fraction} view of the coefficients."""
        if self._terms is None:
            den, unpack = self._den, self._pk.unpack
            self._terms = MappingProxyType(
                {unpack(k): Fraction(n, den) for k, n in self._num.items()}
            )
        return self._terms

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_constant(self):
        base = self._pk.base
        return all(k == base for k in self._num)

    def constant_value(self):
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    def total_degree(self):
        if not self._num:
            return 0
        return max(self._num) >> self._pk.shift

    def _check(self, other):
        if self._pk is not other._pk:
            raise UniverseMismatch(
                f"variable universes differ: {self.vars} vs {other.vars}"
            )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            num, den, mb = dict(self._num), da, 1
        else:
            den = lcm(da, db)
            ma, mb = den // da, den // db
            num = {k: n * ma for k, n in self._num.items()}
        for k, n in other._num.items():
            s = num.get(k, 0) + n * mb
            if s:
                num[k] = s
            else:
                del num[k]
        return Poly.from_packed(self._pk, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_packed(
            self._pk, {k: -n for k, n in self._num.items()}, self._den
        )

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pk = self._pk
        if not isinstance(other, Poly):
            c = _fr(other)
            if c == 0:
                return Poly.from_packed(pk, {})
            m = c.numerator
            return Poly.from_packed(
                pk, {k: n * m for k, n in self._num.items()}, self._den * c.denominator
            )
        self._check(other)
        a, b = self._num, other._num
        if not a or not b:
            return Poly.from_packed(pk, {})
        check_degree((max(a) >> pk.shift) + (max(b) >> pk.shift))
        base = pk.base
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a one-term factor shifts every key of the other by the same
            # offset: no two products meet, and none is zero
            ((k2, n2),) = b.items()
            off = k2 - base
            return Poly.from_packed(
                pk, {k + off: n * n2 for k, n in a.items()}, self._den * other._den
            )
        acc = {}
        get = acc.get
        bterms = b.items()
        for k1, n1 in a.items():
            k1 -= base
            for k2, n2 in bterms:
                k = k1 + k2
                acc[k] = get(k, 0) + n1 * n2
        return Poly.from_packed(
            pk, {k: n for k, n in acc.items() if n}, self._den * other._den
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        check_degree(self.total_degree() * n)
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            # a LocElem compares through its own __eq__
            return NotImplemented
        return (
            self._pk is other._pk
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.vars, self._den, frozenset(self._num.items())))

    # -- calculus and evaluation ---------------------------------------

    def deriv(self, name):
        pk = self._pk
        i = pk.vars.index(name)
        at, unit = FIELD_BITS * i, pk.units[i]
        num = {}
        for key, n in self._num.items():
            e = MAX_DEGREE - ((key >> at) & FIELD_MASK)
            if e:
                num[key - unit] = n * e
        return Poly.from_packed(pk, num, self._den)

    def evaluate(self, point):
        """Exact substitution; point maps variable name to a rational.

        The value is the one that value_and_gradient reads in its pass,
        turned into one Fraction.
        """
        b, ints = _over_common_den(self.vars, point)
        v = self.value_and_gradient(b, ints)[0]
        return Fraction(v, self._den * b ** self.total_degree())

    def value_and_gradient(self, b, ints):
        """(v, [g_j for x_j in vars]): the value and the partials at a
        point, as ints over one positive scale s = _den * b^deg, in one pass.

        The point is x_j = a_j / b, in the form (b, ints) that
        _over_common_den gives.  The value is v / s with
        v = sum_e n_e a^e b^(deg - |e|), and the partial in x_j is g_j / s
        with g_j = b sum_e n_e e_j a^(e - unit_j) b^(deg - |e|).  Each key
        is read only at the fields of the variables its monomial contains.
        A term with no zero coordinate adds its value term times e_j / a_j;
        where a_j = 0, only a term with e_j = 1 and no other zero
        coordinate adds, the product of its other factors, and to x_j's
        partial alone.
        """
        grad = dict.fromkeys(ints, 0)  # by bit offset
        pk = self._pk
        shift, base = pk.shift, pk.base
        deg = self.total_degree()
        bpow = {}  # |e| -> b^(deg - |e|)
        total = 0
        for key, n in self._num.items():
            d = key >> shift
            scale = bpow.get(d)
            if scale is None:
                scale = bpow[d] = b ** (deg - d)
            t = n * scale
            read = []  # (offset, e_j, a_j) of the nonzero coordinates
            lost = None  # offset of the one zero coordinate, -1 if none adds
            # e_j uncomplemented, in x_j's field; each pass takes the
            # lowest field that is set (& -FIELD_BITS rounds a bit index
            # down to its field's offset)
            plain = base + (d << shift) - key
            while plain:
                at = ((plain & -plain).bit_length() - 1) & -FIELD_BITS
                e = (plain >> at) & FIELD_MASK
                plain -= e << at
                if a := ints[at]:
                    t *= a**e
                    read.append((at, e, a))
                elif lost is None and e == 1:
                    lost = at
                else:
                    lost = -1
            if lost is None:
                total += t
                for at, e, a in read:
                    grad[at] += t // a * e
            elif lost >= 0:
                grad[lost] += t
        return total, [g * b for g in grad.values()]

    # -- normal form helpers -------------------------------------------

    def content_and_primitive(self):
        """Write self = c * p with p having integer coprime coefficients
        and positive leading coefficient."""
        if not self._num:
            return Fraction(1), self
        g = gcd(*self._num.values())
        if self._num[max(self._num)] < 0:
            g = -g
        prim = Poly.from_packed(self._pk, {k: n // g for k, n in self._num.items()})
        return Fraction(g, self._den), prim

    def exact_div(self, divisor):
        """Exact quotient self / divisor, or None when not divisible.

        The numerator is divided by the primitive part of the divisor's
        numerator, over the integers: by Gauss's lemma a primitive integer
        polynomial divides an integer polynomial over Q exactly when it
        does over Z, so the first quotient coefficient that is not an
        integer proves there is no quotient.  The leading terms are
        divided before the heap is built; most failing divisions fail
        there.  A one-term divisor c x^d builds no heap: its primitive
        part is +-x^d, so each quotient term is a numerator term with its
        key shifted by key(0) - key(d), and the first key that x^d does
        not divide (a guard bit set) proves there is no quotient.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._check(divisor)
        pk = self._pk
        if not self._num:
            return Poly.from_packed(pk, {})
        base, guard = pk.base, pk.guard
        dnum = divisor._num
        dkey = max(dnum)
        rkey = max(self._num)
        # key(r) + to_q is the key of x^r / x^d; a set guard bit means
        # some exponent of the quotient is negative
        to_q = base - dkey
        if (rkey + to_q) & guard:
            return None
        content = gcd(*dnum.values())
        dlead = dnum[dkey] // content
        if self._num[rkey] % dlead:
            return None
        dd = divisor._den
        if len(dnum) == 1:
            # x^d with dlead = +-1: each quotient key is a key shift
            m = dlead * dd
            qnum = {}
            for k, n in self._num.items():
                q = k + to_q
                if q & guard:
                    return None
                qnum[q] = n * m
            return Poly.from_packed(pk, qnum, self._den * content)
        dtail = [(k - base, n // content) for k, n in dnum.items() if k != dkey]
        # quotient terms come out in decreasing grevlex order, and every
        # update lands strictly below the term being cancelled, so each
        # monomial enters the heap once and is final when popped
        rem = dict(self._num)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        qnum = {}
        while heap:
            rkey = -pop(heap)
            r = rem.pop(rkey)
            if not r:
                continue
            q = rkey + to_q
            if q & guard:
                return None
            c, m = divmod(r, dlead)
            if m:
                return None
            qnum[q] = c
            for off, n2 in dtail:
                k = q + off
                old = rem.get(k)
                if old is None:
                    rem[k] = -c * n2
                    push(heap, -k)
                else:
                    rem[k] = old - c * n2
        # self / divisor = Q * divisor._den / (self._den * content)
        if dd != 1:
            qnum = {k: n * dd for k, n in qnum.items()}
        return Poly.from_packed(pk, qnum, self._den * content)

    # -- presentation ---------------------------------------------------

    def formatted(self):
        """(to_json(), str()) from one pass over the terms in decreasing
        grevlex order: each key is unpacked once, and each coefficient is
        reduced by one int gcd and written once."""
        den, unpack, names = self._den, self._pk.unpack, self.vars
        terms, parts = [], []
        for k, n in sorted(self._num.items(), reverse=True):
            exp = unpack(k)
            g = gcd(n, den)
            p, q = str(n // g), str(den // g)
            terms.append({"exp": list(exp), "num": p, "den": q})
            c = p if q == "1" else f"{p}/{q}"
            if mono := "*".join(
                [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]
            ):
                # a coefficient of 1 or -1 leaves only its sign
                c = f"{c[:-1]}{mono}" if c in ("1", "-1") else f"{c}*{mono}"
            if parts:
                c = f" - {c[1:]}" if n < 0 else f" + {c}"
            parts.append(c)
        return {"vars": list(names), "terms": terms}, "".join(parts) or "0"

    def __str__(self):
        return self.formatted()[1]

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self):
        return self.formatted()[0]


class DenominatorSet:
    """Declared multiplicative set: a growable list of generator polynomials.

    Generators are stored in primitive form (integer coprime coefficients,
    positive leading coefficient); registration returns the index and the
    scalar relating the input to the stored generator.
    """

    def __init__(self, variables, generators=()):
        self.vars = tuple(variables)
        self.gens = []
        for g in generators:
            self.register(g)

    def register(self, poly):
        """Add (or find) a generator; returns (index, content) with
        poly == content * gens[index]."""
        if poly.is_zero():
            raise ValueError("denominator generators must be nonzero")
        if poly.vars != self.vars:
            raise UniverseMismatch("generator over a different variable universe")
        content, prim = poly.content_and_primitive()
        for i, g in enumerate(self.gens):
            if g == prim:
                return i, content
        self.gens.append(prim)
        return len(self.gens) - 1, content

    def __len__(self):
        return len(self.gens)

    def formatted(self):
        """(to_json(), [str(g) for g in gens]), each generator formatted
        once."""
        data = {"vars": list(self.vars), "generators": []}
        texts = []
        for g in self.gens:
            d, t = g.formatted()
            data["generators"].append(d)
            texts.append(t)
        return data, texts

    def to_json(self):
        return self.formatted()[0]


def _pad(exps, n):
    return tuple(exps) + (0,) * (n - len(exps))


class LocElem:
    """numerator / (monomial in denominator-set generators)."""

    __slots__ = ("dset", "num", "den")

    def __init__(self, dset, num, den=()):
        self.dset = dset
        if not isinstance(num, Poly):
            num = Poly.const(dset.vars, num)
        if num.vars != dset.vars:
            raise UniverseMismatch("numerator over a different variable universe")
        den = tuple(den)
        if any(e < 0 for e in den):
            raise ValueError("denominator exponents must be nonnegative")
        self.num = num
        self.den = den
        self._reduce()

    @classmethod
    def _reduced(cls, dset, num, den):
        """Element from a numerator and denominator already in normal form;
        _reduce is not run."""
        a = cls.__new__(cls)
        a.dset = dset
        a.num = num
        a.den = den
        return a

    # -- helpers --------------------------------------------------------

    @classmethod
    def const(cls, dset, value):
        return cls(dset, Poly.const(dset.vars, value))

    @classmethod
    def variable(cls, dset, name):
        return cls(dset, Poly.variable(dset.vars, name))

    def _check(self, other):
        if self.dset is not other.dset:
            raise UniverseMismatch("operands use different denominator sets")

    def _reduce(self):
        if self.num.is_zero():
            self.den = ()
            return
        den = list(self.den)
        deg = self.num.total_degree()
        for i, e in enumerate(den):
            gen_deg = self.dset.gens[i].total_degree()
            while e > 0:
                if deg < gen_deg:
                    break
                q = self.num.exact_div(self.dset.gens[i])
                if q is None:
                    break
                self.num = q
                deg -= gen_deg
                e -= 1
            den[i] = e
        while den and den[-1] == 0:
            den.pop()
        self.den = tuple(den)

    def den_poly(self):
        """The denominator monomial expanded as a Poly."""
        result = Poly.const(self.dset.vars, 1)
        for i, e in enumerate(self.den):
            if e:
                result = result * self.dset.gens[i] ** e
        return result

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self.den

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LocElem):
            other = LocElem.const(self.dset, other)
        self._check(other)
        n = max(len(self.den), len(other.den))
        a, b = _pad(self.den, n), _pad(other.den, n)
        common = tuple(max(x, y) for x, y in zip(a, b))
        num = self.num
        for i, (c, e) in enumerate(zip(common, a)):
            if c > e:
                num = num * self.dset.gens[i] ** (c - e)
        onum = other.num
        for i, (c, e) in enumerate(zip(common, b)):
            if c > e:
                onum = onum * self.dset.gens[i] ** (c - e)
        return LocElem(self.dset, num + onum, common)

    __radd__ = __add__

    def __neg__(self):
        # a nonzero scalar multiple of a reduced element is reduced
        return LocElem._reduced(self.dset, -self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, LocElem):
            other = LocElem.const(self.dset, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LocElem):
            if isinstance(other, Poly):
                other = LocElem(self.dset, other)
            elif other == 0:
                return LocElem.const(self.dset, 0)
            else:
                # a nonzero scalar multiple of a reduced element is reduced
                return LocElem._reduced(self.dset, self.num * other, self.den)
        self._check(other)
        n = max(len(self.den), len(other.den))
        den = tuple(
            x + y for x, y in zip(_pad(self.den, n), _pad(other.den, n))
        )
        return LocElem(self.dset, self.num * other.num, den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LocElem powers must be nonnegative integers")
        return LocElem(self.dset, self.num ** n, [e * n for e in self.den])

    def inverse(self):
        """Invert by registering the (primitive part of the) numerator as a
        denominator generator; a constant numerator c registers nothing,
        the inverse is the denominator polynomial over c."""
        if self.num.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        if self.num.is_constant():
            return LocElem(self.dset, self.den_poly() * (1 / self.num.constant_value()))
        idx, content = self.dset.register(self.num)
        den = [0] * (idx + 1)
        den[idx] = 1
        return LocElem(self.dset, self.den_poly() * (Fraction(1) / content), den)

    def __truediv__(self, other):
        if not isinstance(other, LocElem):
            return self * (Fraction(1) / _fr(other))
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # num = c * (product of the denominator's generators) divides
            # out completely in _reduce, so a reduced constant has no
            # denominator
            return not self.den and self.num == other
        if isinstance(other, Poly):
            other = LocElem(self.dset, other)
        elif not isinstance(other, LocElem):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("LocElem is not hashable")

    # -- calculus and evaluation ------------------------------------------

    def deriv(self, name):
        result = LocElem(self.dset, self.num.deriv(name), self.den)
        for i, e in enumerate(self.den):
            if e:
                bumped = list(_pad(self.den, i + 1))
                bumped[i] += 1
                result = result + LocElem(
                    self.dset,
                    self.num * self.dset.gens[i].deriv(name) * Fraction(-e),
                    bumped,
                )
        return result

    def evaluate(self, point):
        value = self.num.evaluate(point)
        for i, e in enumerate(self.den):
            if e:
                g = self.dset.gens[i].evaluate(point)
                if g == 0:
                    raise SingularPointError(
                        f"denominator generator {self.dset.gens[i]} vanishes"
                    )
                value /= g**e
        return value

    def constant_value(self):
        if not self.is_polynomial():
            raise ValueError("element has a nontrivial denominator")
        return self.num.constant_value()

    def total_degree(self):
        return self.num.total_degree()

    # -- presentation -------------------------------------------------------

    def formatted(self, gen_texts):
        """(to_json(), str()) with the numerator formatted in one pass;
        gen_texts[i] is denominator generator i or its text, written only
        when the element's denominator holds it."""
        data, text = self.num.formatted()
        data["denom"] = denom = []
        factors = [f"({text})"]
        for i, e in enumerate(self.den):
            if e:
                denom.append({"gen_index": i, "power": e})
                factors.append(f"({gen_texts[i]})^-{e}")
        return data, "*".join(factors) if denom else text

    def __str__(self):
        return self.formatted(self.dset.gens)[1]

    def __repr__(self):
        return f"LocElem({self})"

    def to_json(self):
        return self.formatted(self.dset.gens)[0]
