"""Root-system combinatorics for the split simple types.

Roots live in a fixed ambient lattice with integer coordinates (the E and F
realizations are scaled by 2 so half-integer coordinates become integers;
the bilinear form carries the compensating 1/4).  Simple roots follow the
Bourbaki numbering.  Every root is W-conjugate to a simple root, so closing
the simple roots under the simple reflections finds the whole root set,
negative roots included (s_i(alpha_i) = -alpha_i).  The closure carries
each root's integer coefficients over the simple roots along: s_i changes
only coefficient i, by -<beta, alpha_i-check> (Humphreys, *Introduction to
Lie Algebras and Representation Theory*, 10.3), so no linear system is
solved.

The cascade of strongly orthogonal roots is built by repeatedly splitting
off the highest root of each irreducible component and descending to its
orthogonal complement.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class InvalidDynkinDatum(ValueError):
    """The (series, rank) pair does not name a finite irreducible system."""


class ValueRecord:
    """Base of the immutable value records.

    A subclass names its fields, in order, in `_fields` and stores them
    once in `__init__`, straight into the instance dict.  `==` and `hash`
    run over the fields in order; assigning or deleting any attribute
    raises AttributeError.
    """

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_ROOT_COUNTS = {
    # positive-root counts by series, as a function of rank
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


# classical series: minimum rank and the trailing coordinates of the last
# simple root after the e_i - e_{i+1} chain (A has none, so it lives in
# rank + 1 coordinates)
_CLASSICAL = {"A": (1, ()), "B": (2, (1,)), "C": (2, (2,)), "D": (4, (1, 1))}


def _simple_roots(series, rank):
    """Simple roots as integer ambient vectors plus the form scale."""
    # the isinstance test keeps an unhashable series (from a rep file) on
    # the InvalidDynkinDatum path below
    if isinstance(series, str) and series in _CLASSICAL:
        min_rank, tail = _CLASSICAL[series]
        if rank < min_rank:
            raise InvalidDynkinDatum(
                f"{series} requires rank >= {min_rank}, got {rank}"
            )
        dim = rank if tail else rank + 1
        simples = [
            tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(dim))
            for i in range(dim - 1)
        ]
        if tail:
            simples.append((0,) * (dim - len(tail)) + tail)
        return simples, Fraction(1)
    if series == "G":
        if rank != 2:
            raise InvalidDynkinDatum(f"G requires rank 2, got {rank}")
        return [(1, -1, 0), (-2, 1, 1)], Fraction(1)
    if series == "F":
        if rank != 4:
            raise InvalidDynkinDatum(f"F requires rank 4, got {rank}")
        # Bourbaki coordinates scaled by 2; form scale 1/4.
        return (
            [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)],
            Fraction(1, 4),
        )
    if series == "E":
        if rank not in (6, 7, 8):
            raise InvalidDynkinDatum(f"E requires rank 6, 7 or 8, got {rank}")
        # E8 simple roots in Bourbaki coordinates scaled by 2; E6/E7 are the
        # leading subsets.
        e8 = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return [tuple(v) for v in e8[:rank]], Fraction(1, 4)
    raise InvalidDynkinDatum(f"unknown series {series!r}")


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _pairing(beta, alpha):
    """<beta, alpha-check> = 2(beta,alpha)/(alpha,alpha), an exact integer;
    the quotient is scale-free, so plain dot products do."""
    num, den = 2 * _dot(beta, alpha), _dot(alpha, alpha)
    c, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise ValueError(
            f"non-integral Cartan pairing <{beta}, {alpha}>: {num // g}/{den // g}"
        )
    return c


class RootSystem(ValueRecord):
    """Immutable typed root datum, built whole from a {root: coefficients}
    table.

    The table maps every root to its integer coefficients over the simple
    roots, as the reflection closure of `build_root_system` finds them.
    The sorted roots, the root set and the positive roots, ordered by
    height and then by coefficients, are set here once.
    """

    _fields = ("series", "rank", "roots", "simple_roots", "form_scale")

    def __init__(self, series, rank, table, simple_roots, form_scale):
        pos = [r for r, c in table.items() if all(x >= 0 for x in c)]
        pos.sort(key=lambda r: (sum(table[r]), table[r]))
        vars(self).update(
            series=series,  # str
            rank=rank,  # int
            roots=tuple(sorted(table)),
            simple_roots=simple_roots,  # tuple
            form_scale=form_scale,  # Fraction
            positive_roots=tuple(pos),
            _root_set=frozenset(table),
            _table=table,
        )

    def inner(self, a, b):
        return self.form_scale * _dot(a, b)

    def coefficients(self, root):
        """Expansion of a root over the simple roots (exact integers)."""
        try:
            return self._table[tuple(root)]
        except KeyError:
            raise ValueError(f"{root} is not a root") from None

    def is_positive(self, root):
        return all(c >= 0 for c in self.coefficients(root))

    def height(self, root):
        return sum(self.coefficients(root))

    # <beta, alpha-check>, the pairing the closure reflects with
    cartan_pairing = staticmethod(_pairing)


def build_root_system(series, rank):
    """Construct an irreducible root system with Bourbaki simple roots.

    The simple roots are closed under the simple reflections, and each
    root found keeps its simple-root coefficients: s_i(beta) = beta -
    <beta, alpha_i-check> alpha_i changes coefficient i alone."""
    if not isinstance(rank, int) or rank < 1:
        raise InvalidDynkinDatum(f"rank must be a positive integer, got {rank}")
    simples, scale = _simple_roots(series, rank)
    table = {a: tuple(int(i == j) for j in range(rank)) for i, a in enumerate(simples)}
    frontier = list(table)
    while frontier:
        new = []
        for beta in frontier:
            coeffs = table[beta]
            for i, alpha in enumerate(simples):
                c = _pairing(beta, alpha)
                r = tuple(b - c * a for b, a in zip(beta, alpha))
                if r not in table:
                    table[r] = coeffs[:i] + (coeffs[i] - c,) + coeffs[i + 1:]
                    new.append(r)
        frontier = new
    expected = 2 * _ROOT_COUNTS[series](rank)
    if len(table) != expected:
        raise RuntimeError(
            f"{series}{rank}: got {len(table)} roots, expected {expected}"
        )
    return RootSystem(series, rank, table, tuple(simples), scale)


class CascadeLevel(ValueRecord):
    """One step of the cascade inside one irreducible component."""

    _fields = ("index", "delta_pos", "xi", "gamma", "pairing", "next_pos")

    def __init__(self, index, delta_pos, xi, gamma, pairing, next_pos):
        vars(self).update(
            index=index,  # 1-based
            delta_pos=delta_pos,  # positive roots of the component Delta_i
            xi=xi,  # the (unique) highest root of the component
            gamma=gamma,  # roots of Delta_i+ pairing strictly with xi
            pairing=pairing,  # sorted (alpha, alpha') on Gamma^0, alpha + alpha' = xi
            next_pos=next_pos,  # positive roots of Delta_{i+1}
        )


class Cascade(ValueRecord):
    _fields = ("entries", "levels")

    def __init__(self, entries, levels):
        vars(self).update(
            entries=entries,  # the cascade roots xi_1, ..., xi_m
            levels=levels,  # CascadeLevel per entry
        )

    def to_json(self):
        return {
            "entries": [list(x) for x in self.entries],
            "levels": [
                {
                    "index": lv.index,
                    "delta_pos": [list(r) for r in lv.delta_pos],
                    "xi": list(lv.xi),
                    "gamma": [list(r) for r in lv.gamma],
                    "pairing": [[list(a), list(b)] for a, b in lv.pairing],
                    "next_pos": [list(r) for r in lv.next_pos],
                }
                for lv in self.levels
            ],
        }


def _components(rs, pos_roots):
    """Connected components of a set of positive roots (non-orthogonality
    graph), in lexicographic order of their lowest-index simple-root
    support."""
    remaining = set(pos_roots)
    comps = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        frontier = {seed}
        while frontier:
            new = set()
            for a in frontier:
                for b in remaining - comp:
                    if _dot(a, b) != 0:
                        new.add(b)
            comp |= new
            frontier = new
        remaining -= comp
        comps.append(comp)

    def comp_key(comp):
        support = min(
            min(i for i, c in enumerate(rs.coefficients(r)) if c != 0)
            for r in comp
        )
        return (support, sorted(comp))

    comps.sort(key=comp_key)
    return [
        sorted(c, key=lambda r: (rs.height(r), rs.coefficients(r))) for c in comps
    ]


def kostant_cascade(rs):
    """Cascade of strongly orthogonal roots with per-level partitions."""
    levels = []

    def process(pos_roots):
        for comp in _components(rs, pos_roots):
            max_h = max(rs.height(r) for r in comp)
            tops = [r for r in comp if rs.height(r) == max_h]
            if len(tops) != 1:
                raise RuntimeError(
                    f"highest root not unique in component {comp}"
                )
            xi = tops[0]
            gamma = tuple(a for a in comp if _dot(a, xi) != 0)
            next_pos = tuple(a for a in comp if _dot(a, xi) == 0)
            pairing = []
            for a in gamma:
                if a == xi:
                    continue
                partner = tuple(x - y for x, y in zip(xi, a))
                if partner not in set(gamma) or partner == a:
                    raise RuntimeError(f"no pairing partner for {a}")
                pairing.append((a, partner))
            levels.append(
                CascadeLevel(
                    index=len(levels) + 1,
                    delta_pos=tuple(comp),
                    xi=xi,
                    gamma=gamma,
                    pairing=tuple(sorted(pairing)),
                    next_pos=next_pos,
                )
            )
            process(next_pos)

    process(rs.positive_roots)
    return Cascade(
        entries=tuple(lv.xi for lv in levels), levels=tuple(levels)
    )

