"""U-projector for a representation given by exact generator matrices.

The construction peels the module one irreducible summand at a time.
Each stage picks a lowest vector v0, the nilradical m of the parabolic
opposite to its stabilizer, and re-bases the space so that the slices
Q_j = -w_j / w_0 (dual forms of the m-orbit of v0, transported through
the stages built so far) are triangular for the derivations D_{E_alpha},
alpha running over the roots of m.  The recursion continues on the fixed
Levi subalgebra until the action becomes diagonalizable; the surviving
coordinate forms, projected, together with the denominator chain, give a
free generating set of the invariant field.

A stage holds its basis vectors, the forms dual to them on their span,
and the roots of the current subalgebra.  Vectors and forms are pairs
(d, integer row) in ambient coordinates (see linalg), never rescaled,
since the scale of v0 fixes the slices; Fractions are built only where
a form becomes a Poly.  Operators act through the sparse rows in
rep.sparse, which RepInput closes under brackets and validates one
integer row sum at a time, and every span test reduces one row against
a linalg.Echelon of the rows kept so far.  In each weight space the
lowest vectors are the combinations killed by every lowering operator,
and the raising operators close each one into an irreducible summand;
this splits the stage span under the current subalgebra, then each
summand under the Levi subalgebra.  When the basis changes, the forms
follow by T[i][c] = old_form_c(new_vector_i): the new forms are T^{-T}
applied to the old ones.

Each stage raises RepValidationError when one of its invariants fails:
each decomposition first checks that the simple operators it splits by
preserve the span it splits (RepInput.validate proved the brackets, and
simple root vectors generate the subalgebra, so every other operator of
it, the m-orbit of v0 included, then preserves it too, and so do the
Levi lowering operators on the stage span, whose summands fill it); the
summands fill the span they split; the orbit of v0 and the Levi
complement together form a basis of the stage span; every vector of the
new basis is a weight vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul
from types import MappingProxyType

from . import linalg
from .genset import Construction
from .projector import Derivation, Projector, Stage, apply_stages
from .rootsystem import build_root_system
from .liealg import chevalley_constants
from .symfield import DenominatorSet, LocElem, Poly


class RepValidationError(ValueError):
    """Input matrices fail the defining relations of the algebra."""


class RepInput:
    """A finite-dimensional representation with exact rational matrices.

    `matrices` maps the Chevalley generator symbols (simple E's and F's
    and the H's) to dim x dim matrices; matrices of the remaining root
    vectors are derived through commutators.  `weights` lists, for every
    basis vector, its values on the simple coroots.

    After validation `sparse` maps every symbol to the sparse integer rows
    of its matrix (see linalg), through which the construction applies it.
    `rho` maps every symbol to the same matrix as a tuple of Fraction
    tuples; the construction never reads it, so it is built when first
    read.  Both mappings are read-only.

    Each derived matrix, and each row of every bracket relation checked,
    is one linalg.sparse_commutator row: one integer sum per row.
    """

    def __init__(self, basis, dim, matrices, weights):
        self.basis = basis
        self.dim = int(dim)
        self.weights = [tuple(Fraction(w) for w in wt) for wt in weights]
        if len(self.weights) != self.dim:
            raise RepValidationError("one weight per basis vector is required")
        if any(len(w) != basis.rs.rank for w in self.weights):
            raise RepValidationError("each weight needs one value per coroot")
        self.variables = tuple(f"y{i + 1}" for i in range(self.dim))
        given = {}
        for sym, m in matrices.items():
            m = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in m]
            if len(m) != self.dim or any(len(r) != self.dim for r in m):
                raise RepValidationError(f"matrix for {sym} is not dim x dim")
            given[sym] = linalg.sparse_rows(m)
        self.sparse = MappingProxyType(self._close_under_brackets(given))
        self.validate()

    @cached_property
    def rho(self):
        return MappingProxyType(
            {sym: linalg.dense_rows(m, self.dim) for sym, m in self.sparse.items()}
        )

    # -- matrix bookkeeping -------------------------------------------------

    def _close_under_brackets(self, given):
        """Extend the sparse generator matrices to every Chevalley basis
        symbol."""
        basis = self.basis
        rs = basis.rs
        rho = dict(given)
        for sym in given:
            if sym not in basis.symbols:
                raise RepValidationError(f"unknown generator symbol {sym}")
        for h in basis.cartan_symbols:
            if h not in rho:
                raise RepValidationError(f"missing matrix for {h}")
        for root in sorted(rs.positive_roots, key=lambda r: (rs.height(r), r)):
            for sym_of in (basis.pos_symbol, basis.neg_symbol):
                sym = sym_of[root]
                if sym in rho:
                    continue
                lower = self._split_root(root)
                if lower is None:
                    raise RepValidationError(f"missing matrix for {sym}")
                a, b = (sym_of[r] for r in lower)
                # [a, b] = N sym
                ((_, n),) = basis.table[a][b]
                rho[sym] = linalg.sparse_commutator(rho[a], rho[b], Fraction(1, n))
        return rho

    def _split_root(self, root):
        rs = self.basis.rs
        for simple in rs.simple_roots:
            rest = tuple(x - y for x, y in zip(root, simple))
            if rest in rs.positive_roots:
                return simple, rest
        return None

    # -- validation -----------------------------------------------------------

    def validate(self):
        basis = self.basis
        for i, h in enumerate(basis.cartan_symbols):
            # columns j where rho(h) differs from diag(weights[.][i])
            bad = set()
            for a, (den, entries) in enumerate(self.sparse[h]):
                diag = 0
                for j, x in entries:
                    if j == a:
                        diag = Fraction(x, den)
                    else:
                        bad.add(j)
                if diag != self.weights[a][i]:
                    bad.add(a)
            if bad:
                raise RepValidationError(
                    f"basis vector {min(bad) + 1} is not an eigenvector of "
                    f"{h} with its declared weight"
                )
        symbols = basis.symbols
        for i, u in enumerate(symbols):
            row = basis.table[u]
            for v in symbols[i + 1:]:
                # [rho(u), rho(v)] - rho([u, v]), zero exactly when every
                # canonical row is empty
                residual = linalg.sparse_commutator(
                    self.sparse[u], self.sparse[v], 1,
                    [(-c, self.sparse[s]) for s, c in row.get(v, ())],
                )
                if any(entries for _, entries in residual):
                    raise RepValidationError(
                        f"bracket compatibility fails on the pair ({u}, {v}): "
                        "rho([x,y]) != [rho(x), rho(y)]"
                    )
        return True


def _rational_rows(value, what):
    """A JSON list of rows of rationals as Fraction rows."""
    if not isinstance(value, list) or not all(
        isinstance(r, list) for r in value
    ):
        raise RepValidationError(f"{what} must be a list of rows")
    try:
        return [[linalg.read_rational(c) for c in row] for row in value]
    except ValueError as e:
        raise RepValidationError(f"{what} has a non-rational entry: {e}") from None


def load_rep(data):
    """Build a validated RepInput from parsed JSON data.

    Expected shape: {"type": ..., "rank": int, "dim": int,
    "matrices": {symbol: [[rational strings]]}, "weights": [[int]]}.
    Data of any other shape raises RepValidationError.
    """
    if not isinstance(data, dict):
        raise RepValidationError("representation data must be a JSON object")
    fields = ("type", "rank", "dim", "matrices", "weights")
    missing = [k for k in fields if k not in data]
    if missing:
        raise RepValidationError(f"representation data lacks {missing}")
    unknown = [k for k in data if k not in fields]
    if unknown:
        raise RepValidationError(f"representation data has unknown fields {unknown}")
    for key in ("rank", "dim"):
        if type(data[key]) is not int:
            raise RepValidationError(f'"{key}" must be a JSON integer')
    if not isinstance(data["matrices"], dict):
        raise RepValidationError('"matrices" must map symbols to matrices')
    matrices = {
        sym: _rational_rows(m, f"matrix for {sym}")
        for sym, m in data["matrices"].items()
    }
    weights = _rational_rows(data["weights"], '"weights"')
    basis = chevalley_constants(build_root_system(data["type"], data["rank"]))
    return RepInput(basis, data["dim"], matrices, weights)


def defining_rep(basis):
    """The defining representation for type A (n x n matrix units)."""
    rs = basis.rs
    if rs.series != "A":
        raise ValueError("the defining representation helper is type A only")
    n = rs.rank + 1

    def unit(i, j):
        return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]

    matrices = {}
    for i, root in enumerate(rs.simple_roots):
        matrices[basis.pos_symbol[root]] = unit(i, i + 1)
        matrices[basis.neg_symbol[root]] = unit(i + 1, i)
        h = unit(i, i)
        h[i + 1][i + 1] = -1
        matrices[basis.cartan_symbols[i]] = h
    weights = [
        [int(j == i) - int(j == i + 1) for i in range(rs.rank)] for j in range(n)
    ]
    return RepInput(basis, n, matrices, weights)


def adjoint_rep(basis):
    """The adjoint representation over the Chevalley basis itself."""
    rs = basis.rs
    symbols = basis.symbols
    n = len(symbols)
    index = {u: i for i, u in enumerate(symbols)}

    def ad_matrix(sym):
        """Column j holds [sym, symbols[j]], read from the bracket table."""
        m = [[0] * n for _ in range(n)]
        for t, uv in basis.table[sym].items():
            for u, c in uv:
                m[index[u]][index[t]] = c
        return m

    matrices = {}
    for i, root in enumerate(rs.simple_roots):
        matrices[basis.pos_symbol[root]] = ad_matrix(basis.pos_symbol[root])
        matrices[basis.neg_symbol[root]] = ad_matrix(basis.neg_symbol[root])
        matrices[basis.cartan_symbols[i]] = ad_matrix(basis.cartan_symbols[i])
    weights = []
    for sym in symbols:
        root = basis._root_of_symbol.get(sym)
        if root is None:
            weights.append([0] * rs.rank)
        else:
            weights.append(
                [rs.cartan_pairing(root, a) for a in rs.simple_roots]
            )
    return RepInput(basis, n, matrices, weights)


class StageData:
    """One peeling step: the lowest form transported through the stages
    before it, the denominator of its slices, and one stage per root of
    the nilradical m, in application order."""

    def __init__(self, denominator, stages):
        self.denominator = denominator  # transported lowest form, a LocElem
        self.stages = stages  # [Stage] in application order


class RepConstruction(Construction):
    """Runs the stage chain and assembles the projector and generators."""

    def __init__(self, rep):
        self.rep = rep
        self.dset = DenominatorSet(rep.variables)
        # one derivation per positive root, built on first use and shared
        # by every stage of that root and, for a simple root, by
        # simple_derivations
        self.derivations = {}
        self.stages = []
        rs = rep.basis.rs
        simple = rs.simple_roots
        cartan = [[rs.cartan_pairing(b, a) for b in simple] for a in simple]
        xs = linalg.solve_columns(cartan, rep.weights)
        # a total order refining the dominance order on weights
        self._weight_key = {wt: (sum(x), tuple(x)) for wt, x in zip(rep.weights, xs)}
        vectors = forms = [
            (1, [int(i == j) for j in range(rep.dim)]) for i in range(rep.dim)
        ]
        roots = frozenset(rs.roots)
        flat = []
        self._lowest_pairs = []
        while True:
            data = self._stage(vectors, forms, roots, flat)
            if data is None:
                break
            stage, vectors, forms, roots = data
            self.stages.append(stage)
            self._lowest_pairs.append(forms[0])
            flat.extend(stage.stages)
        self._final_pairs = forms
        self.final_forms = [self._linear(f) for f in forms]
        self.projector = Projector(self.dset, flat)

    # -- per-stage work -------------------------------------------------------

    def _linear(self, form):
        """The linear form with the coefficient row of the pair form."""
        den, row = form
        variables = self.rep.variables
        coeffs = (Fraction(x, den) for x in row)
        return Poly.linear(variables, dict(zip(variables, coeffs)))

    def _weight_of(self, vec):
        wt = None
        for c, w in zip(vec[1], self.rep.weights):
            if c:
                if wt is None:
                    wt = w
                elif wt != w:
                    raise RepValidationError("basis vector is not a weight vector")
        return wt

    @staticmethod
    def _simple_subroots(pos):
        """The simple roots of a positive system pos, in the order of pos."""
        pos_set = set(pos)
        return [
            a for a in pos
            if not any(tuple(x - y for x, y in zip(a, b)) in pos_set for b in pos)
        ]

    def _decompose(self, vectors, raising, lowering):
        """Split the span of the given weight vectors into irreducible
        summands of the subalgebra with these simple raising and lowering
        operators, given by their sparse rows.  The lowest vectors of each
        weight space are the combinations its vectors take in the kernel of
        every lowering operator; raising closes each one into a summand.
        First raises RepValidationError unless every operator maps the
        span into itself, which makes it invariant under the subalgebra;
        the whole space needs no check."""
        span = linalg.Echelon(w for _, w in vectors)
        if len(span.rows) < self.rep.dim:
            for mat in raising + lowering:
                for v in vectors:
                    if any(span.reduce(linalg.sparse_vec(mat, v)[1])):
                        raise RepValidationError("operator does not preserve the span")
        if not lowering:
            return [[v] for v in vectors]
        by_weight = {}
        for v in vectors:
            by_weight.setdefault(self._weight_of(v), []).append(v)
        summands = []
        stacked = [row for mat in lowering for row in mat]
        width = len(stacked)
        for wt in sorted(by_weight, key=self._weight_key.__getitem__):
            space = by_weight[wt]
            # row k is c [L w_k | e_k], for (d_k, w_k) = space[k], L the
            # stacked lowering operators and c the denominator of L w_k.  A
            # remainder t that is zero up to width has sum t_i L w_i = 0 and
            # t_i = 0 past k, so v0 = sum t_i w_i / (t_k d_k) is the sum of
            # space weighted by the nullspace vector of its images' column k.
            kernel = linalg.Echelon()
            for k, (d, w) in enumerate(space):
                c, img = linalg.sparse_vec(stacked, (1, w))
                t = kernel.reduce(img + [c * (i == k) for i in range(len(space))])
                if any(t[:width]):
                    kernel.add(t)
                else:
                    t = t[width:]
                    num = [sum(map(mul, t, col)) for col in zip(*[u for _, u in space])]
                    v0 = linalg.pair(t[k] * d, num)
                    summands.append(self._generate(v0, raising))
        if sum(len(s) for s in summands) != len(vectors):
            raise RepValidationError("summand decomposition does not fill the space")
        return summands

    @staticmethod
    def _generate(v, raising):
        vectors, frontier = [v], [v]
        span = linalg.Echelon([v[1]])
        while frontier:
            nxt = []
            for w in frontier:
                for mat in raising:
                    img = linalg.sparse_vec(mat, w)
                    if span.add(img[1]):
                        vectors.append(img)
                        nxt.append(img)
            frontier = nxt
        return vectors

    def _stage(self, vectors, forms, roots, flat):
        rep = self.rep
        basis = rep.basis
        rs = basis.rs
        pos = sorted(
            (r for r in roots if rs.is_positive(r)),
            key=lambda r: (rs.height(r), r),
        )
        if not pos:
            return None
        simples = self._simple_subroots(pos)
        raising = {a: rep.sparse[basis.pos_symbol[a]] for a in pos}
        lowering = [rep.sparse[basis.neg_symbol[a]] for a in simples]
        summands = self._decompose(vectors, [raising[a] for a in simples], lowering)
        candidates = [s for s in summands if len(s) > 1]
        if not candidates:
            return None
        # the second vector of a summand is the image of its first under a
        # simple raising operator, so the m-orbit of v0 is never empty
        cand = min(
            candidates, key=lambda s: self._weight_key[self._weight_of(s[0])]
        )
        v0 = cand[0]
        # the m-orbit of v0: roots that move it, with their images
        moved = [(a, linalg.sparse_vec(raising[a], v0)) for a in pos]
        moved = [(a, img) for a, img in moved if any(img[1])]
        m_roots = [a for a, _ in moved]
        rest = [a for a in pos if a not in m_roots]
        levi = frozenset(rest + [tuple(-c for c in a) for a in rest])

        # invariant complement of <v0> + m.v0, greedily from the Levi
        # summand decomposition; the chosen summand's pieces come first
        levi_simples = self._simple_subroots(rest)
        l_pos = [raising[a] for a in levi_simples]
        l_neg = [rep.sparse[basis.neg_symbol[a]] for a in levi_simples]
        new_vectors = [v0] + [img for _, img in moved]
        k = len(m_roots)
        span = linalg.Echelon(w for _, w in new_vectors)
        complement = []
        for grp in [cand] + [s for s in summands if s is not cand]:
            for s in self._decompose(grp, l_pos, l_neg):
                kept = list(span.rows)
                if all(span.add(w) for _, w in s):
                    complement.extend(s)
                else:
                    span.rows = kept
        if len(new_vectors) + len(complement) != len(vectors):
            raise RepValidationError("invariant complement has a wrong dimension")
        new_vectors += complement

        # transport the dual forms: the old forms are dual to the old basis
        # on its span, so T[i][c] = old_form_c(new_vector_i) are the old
        # coordinates of the new vectors, and the new forms are T^{-T}
        # applied to the old ones.  Over the integer rows N_i, F_c of the
        # pairs (d_i, N_i), (e_c, F_c), T = D^-1 T' E^-1 with
        # T'[i][c] = F_c . N_i, so new form i is d_i (T'^{-T} F)_i.
        aug = [[sum(map(mul, f, w)) for _, w in new_vectors] + f for _, f in forms]
        solved = linalg.left_solve(aug, len(new_vectors))
        new_forms = [
            linalg.pair(a, [d * x for x in r])
            for (d, _), (a, r) in zip(new_vectors, solved)
        ]

        # transported slices for this stage, through the stages so far
        den = apply_stages(flat, LocElem(self.dset, self._linear(new_forms[0])))
        stages = []
        for j in range(k, 0, -1):
            wj = apply_stages(flat, LocElem(self.dset, self._linear(new_forms[j])))
            stages.append(Stage(self._ambient_derivation(m_roots[j - 1]), -wj, den))

        for v in new_vectors:
            self._weight_of(v)  # raises on a vector of mixed weights
        stage = StageData(den, stages)
        # v0 and the complement carry on; the m-orbit of v0 is done
        next_vectors = new_vectors[:1] + new_vectors[k + 1:]
        return stage, next_vectors, new_forms[:1] + new_forms[k + 1:], levi

    def _ambient_derivation(self, root):
        if root not in self.derivations:
            sym = self.rep.basis.pos_symbol[root]
            variables = self.rep.variables
            images = {
                v: Poly.linear(variables, {variables[j]: Fraction(-x, d) for j, x in e})
                for v, (d, e) in zip(variables, self.rep.sparse[sym])
            }
            self.derivations[root] = Derivation(self.dset, images, label=f"D_{sym}")
        return self.derivations[root]

    # -- outputs ----------------------------------------------------------------

    def _generators(self):
        rep = self.rep
        entries = [(f"Lambda{i + 1}", s.denominator) for i, s in enumerate(self.stages)]
        span = linalg.Echelon(w for _, w in self._lowest_pairs)
        for (_, w), f in zip(self._final_pairs, self.final_forms):
            if span.add(w):
                p = self.projector.apply(LocElem(self.dset, f))
                entries.append((f"P(f{len(entries) - len(self.stages) + 1})", p))
        metadata = {
            "series": rep.basis.rs.series,
            "rank": rep.basis.rs.rank,
            "dim": rep.dim,
            "stage_count": len(self.stages),
            "count": len(entries),
            "expected_count": len(self.final_forms),
        }
        return entries, metadata

    def simple_derivations(self):
        return [self._ambient_derivation(a) for a in self.rep.basis.rs.simple_roots]
