"""Exact multivariate polynomials and localized elements over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator: a sparse dict mapping exponent tuples to nonzero ints, and an
int, kept in lowest terms so that equal polynomials have equal fields.
All arithmetic runs on Python ints; a read-only {exp: Fraction} view of
the coefficients is built on demand.  Localized elements (LocElem) carry a
polynomial numerator and a formal monomial denominator over a declared
multiplicative set of generator polynomials; cancellation happens only by
exact division against those generators, so normal forms stay cheap and
canonical.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from types import MappingProxyType


class UniverseMismatch(ValueError):
    """Operands live over different variable universes or denominator sets."""


class SingularPointError(ValueError):
    """A denominator generator vanishes at the evaluation point."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def grevlex_key(exp):
    """Sort key for graded reverse-lexicographic order, largest first."""
    return (-sum(exp), tuple(exp[::-1]))


class Poly:
    """Sparse exact polynomial over an ordered variable tuple.

    The coefficient of exp is _num[exp] / _den: _num maps exponent tuples
    to nonzero ints, _den is a positive int, gcd(_den, *_num.values()) is
    1, and the zero polynomial has _den 1.
    """

    __slots__ = ("vars", "_num", "_den", "_terms")

    def __init__(self, variables, terms=None):
        """Polynomial with the given {exp: rational} coefficients."""
        coeffs = {}
        if terms:
            for exp, coeff in terms.items():
                c = _fr(coeff)
                if c:
                    coeffs[tuple(exp)] = c
        # over the lcm of the reduced denominators the numerators are
        # already coprime to it, so the result is in lowest terms
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.vars = tuple(variables)
        self._num = {
            e: c.numerator * (den // c.denominator) for e, c in coeffs.items()
        }
        self._den = den
        self._terms = None

    @classmethod
    def from_integers(cls, variables, num, den=1):
        """Polynomial num / den from {exp: nonzero int} and a positive int
        den, brought to lowest terms; num is taken over, not copied."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        p = cls.__new__(cls)
        p.vars = variables
        p._num = num
        p._den = den
        p._terms = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables, value):
        variables = tuple(variables)
        value = _fr(value)
        if value == 0:
            return cls.from_integers(variables, {})
        return cls.from_integers(
            variables, {(0,) * len(variables): value.numerator}, value.denominator
        )

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exp = [0] * len(variables)
        exp[i] = 1
        return cls.from_integers(variables, {tuple(exp): 1})

    @classmethod
    def linear(cls, variables, coeffs):
        """Linear polynomial from {name: coeff}."""
        variables = tuple(variables)
        terms = {}
        for name, c in coeffs.items():
            i = variables.index(name)
            exp = [0] * len(variables)
            exp[i] = 1
            terms[tuple(exp)] = c
        return cls(variables, terms)

    # -- coefficient view -----------------------------------------------

    @property
    def terms(self):
        """Read-only {exp: Fraction} view of the coefficients."""
        if self._terms is None:
            den = self._den
            self._terms = MappingProxyType(
                {e: Fraction(n, den) for e, n in self._num.items()}
            )
        return self._terms

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_constant(self):
        return all(sum(e) == 0 for e in self._num)

    def constant_value(self):
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    def total_degree(self):
        if not self._num:
            return 0
        return max(map(sum, self._num))

    def coefficient_of(self, name):
        """Coefficient of the plain variable term (degree-one monomial)."""
        i = self.vars.index(name)
        exp = [0] * len(self.vars)
        exp[i] = 1
        return Fraction(self._num.get(tuple(exp), 0), self._den)

    def _check(self, other):
        if self.vars != other.vars:
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
            num = {e: n * ma for e, n in self._num.items()}
        for e, n in other._num.items():
            s = num.get(e, 0) + n * mb
            if s:
                num[e] = s
            else:
                del num[e]
        return Poly.from_integers(self.vars, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_integers(
            self.vars, {e: -n for e, n in self._num.items()}, self._den
        )

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _fr(other)
            if c == 0:
                return Poly.from_integers(self.vars, {})
            k = c.numerator
            return Poly.from_integers(
                self.vars,
                {e: n * k for e, n in self._num.items()},
                self._den * c.denominator,
            )
        self._check(other)
        acc = {}
        get = acc.get
        onum = other._num.items()
        for e1, n1 in self._num.items():
            for e2, n2 in onum:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + n1 * n2
        return Poly.from_integers(
            self.vars, {e: n for e, n in acc.items() if n}, self._den * other._den
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return self.is_constant() and self.constant_value() == _fr(other)
        return (
            self.vars == other.vars
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.vars, self._den, frozenset(self._num.items())))

    # -- calculus and evaluation ---------------------------------------

    def deriv(self, name):
        i = self.vars.index(name)
        num = {}
        for exp, n in self._num.items():
            k = exp[i]
            if k:
                new = list(exp)
                new[i] = k - 1
                num[tuple(new)] = n * k
        return Poly.from_integers(self.vars, num, self._den)

    def evaluate(self, point):
        """Exact substitution; point maps variable name to a rational.

        With the point written as a_j / b over one common b, the value is
        sum_e n_e prod a_j^e_j b^(deg - |e|) / (den b^deg), an integer sum
        turned into one Fraction.
        """
        vals = [_fr(point[v]) for v in self.vars]
        b = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (b // v.denominator) for v in vals]
        deg = self.total_degree()
        bpow = [1]
        for _ in range(deg):
            bpow.append(bpow[-1] * b)
        total = 0
        for exp, n in self._num.items():
            t = n * bpow[deg - sum(exp)]
            for a, e in zip(ints, exp):
                if e:
                    t *= a**e
            total += t
        return Fraction(total, self._den * bpow[deg])

    # -- normal form helpers -------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def leading(self):
        """Leading (exp, coeff) in grevlex order; None for the zero poly."""
        if not self._num:
            return None
        exp = min(self._num, key=grevlex_key)
        return exp, Fraction(self._num[exp], self._den)

    def content_and_primitive(self):
        """Write self = c * p with p having integer coprime coefficients
        and positive leading coefficient."""
        if not self._num:
            return Fraction(1), self
        g = gcd(*self._num.values())
        if self.leading()[1] < 0:
            g = -g
        prim = Poly.from_integers(
            self.vars, {e: n // g for e, n in self._num.items()}
        )
        return Fraction(g, self._den), prim

    def exact_div(self, divisor):
        """Exact quotient self / divisor, or None when not divisible.

        The numerator is divided by the primitive part of the divisor's
        numerator, over the integers: by Gauss's lemma a primitive integer
        polynomial divides an integer polynomial over Q exactly when it
        does over Z, so the first quotient coefficient that is not an
        integer proves there is no quotient.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._check(divisor)
        if not self._num:
            return Poly.from_integers(self.vars, {})
        dnum = divisor._num
        content = gcd(*dnum.values())
        if content != 1:
            dnum = {e: n // content for e, n in dnum.items()}
        dexp = min(dnum, key=grevlex_key)
        dlead = dnum[dexp]
        dtail = [(e, n) for e, n in dnum.items() if e != dexp]
        # quotient terms come out in decreasing grevlex order, and every
        # update lands strictly below the term being cancelled, so each
        # monomial enters the heap once and is final when popped
        rem = dict(self._num)
        heap = [(-sum(e), e[::-1]) for e in rem]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        qnum = {}
        while heap:
            rexp = pop(heap)[1][::-1]
            r = rem.pop(rexp)
            if not r:
                continue
            q = tuple(map(sub, rexp, dexp))
            if min(q, default=0) < 0:
                return None
            c, m = divmod(r, dlead)
            if m:
                return None
            qnum[q] = c
            for e2, n2 in dtail:
                ne = tuple(map(add, q, e2))
                old = rem.get(ne)
                if old is None:
                    rem[ne] = -c * n2
                    push(heap, (-sum(ne), ne[::-1]))
                else:
                    rem[ne] = old - c * n2
        # self / divisor = Q * divisor._den / (self._den * content)
        dd = divisor._den
        if dd != 1:
            qnum = {e: n * dd for e, n in qnum.items()}
        return Poly.from_integers(self.vars, qnum, self._den * content)

    # -- presentation ---------------------------------------------------

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(tuple(data["vars"]), terms)


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

    def to_json(self):
        return {"vars": list(self.vars), "generators": [g.to_json() for g in self.gens]}


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
        result = LocElem.const(self.dset, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Invert by registering the (primitive part of the) numerator as a
        denominator generator."""
        if self.num.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        idx, content = self.dset.register(self.num)
        den = [0] * (idx + 1)
        den[idx] = 1
        return LocElem(self.dset, self.den_poly() * (Fraction(1) / content), den)

    def __truediv__(self, other):
        if not isinstance(other, LocElem):
            return self * (Fraction(1) / _fr(other))
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, LocElem):
            other = LocElem.const(self.dset, other)
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

    def __str__(self):
        if not self.den:
            return str(self.num)
        factors = []
        for i, e in enumerate(self.den):
            if e:
                factors.append(f"({self.dset.gens[i]})^-{e}")
        return f"({self.num})*" + "*".join(factors)

    def __repr__(self):
        return f"LocElem({self})"

    def to_json(self):
        data = self.num.to_json()
        data["denom"] = [
            {"gen_index": i, "power": e} for i, e in enumerate(self.den) if e
        ]
        return data

    @classmethod
    def from_json(cls, dset, data):
        num = Poly.from_json(data)
        den = [0] * len(dset)
        for d in data.get("denom", ()):
            den[d["gen_index"]] = d["power"]
        return cls(dset, num, den)

