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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .genset import Construction
from .projector import Derivation, Projector, SlicePair, apply_stages
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
        given = {sym: linalg.frac_matrix(m) for sym, m in matrices.items()}
        for sym, m in given.items():
            if len(m) != self.dim or any(len(r) != self.dim for r in m):
                raise RepValidationError(f"matrix for {sym} is not dim x dim")
        self.rho = self._close_under_brackets(given)
        self.validate()

    # -- matrix bookkeeping -------------------------------------------------

    def _close_under_brackets(self, given):
        """Extend the generator matrices to every Chevalley basis symbol."""
        basis = self.basis
        rs = basis.rs
        rho = dict(given)
        needed = set(basis.symbols)
        missing = needed - set(rho)
        for sym in list(given):
            if sym not in needed:
                raise RepValidationError(f"unknown generator symbol {sym}")
        for h in basis.cartan_symbols:
            if h not in rho:
                raise RepValidationError(f"missing matrix for {h}")
        by_height = sorted(rs.positive_roots, key=lambda r: (rs.height(r), r))
        for root in by_height:
            for sym, sign in (
                (basis.pos_symbol[root], 1),
                (basis.neg_symbol[root], -1),
            ):
                if sym in rho:
                    continue
                lower = self._split_root(root)
                if lower is None:
                    raise RepValidationError(f"missing matrix for {sym}")
                simple, rest = lower
                if sign > 0:
                    n = basis.structure_constant(simple, rest)
                    a = rho[basis.pos_symbol[simple]]
                    b = rho[basis.pos_symbol[rest]]
                else:
                    n = basis.structure_constant(
                        tuple(-c for c in simple), tuple(-c for c in rest)
                    )
                    a = rho[basis.neg_symbol[simple]]
                    b = rho[basis.neg_symbol[rest]]
                rho[sym] = linalg.mat_scale(
                    linalg.mat_commutator(a, b), Fraction(1) / n
                )
        leftovers = missing - set(rho)
        if leftovers:
            raise RepValidationError(f"could not derive matrices for {leftovers}")
        return rho

    def _split_root(self, root):
        rs = self.basis.rs
        for simple in rs.simple_roots:
            rest = tuple(x - y for x, y in zip(root, simple))
            if rest in rs._root_set and rs.is_positive(rest):
                return simple, rest
        return None

    def matrix_of(self, x):
        """Matrix of a LieElement."""
        acc = linalg.zero_matrix(self.dim)
        for sym, c in x.coefficients:
            acc = linalg.mat_add(acc, linalg.mat_scale(self.rho[sym], c))
        return acc

    # -- validation -----------------------------------------------------------

    def validate(self):
        basis = self.basis
        for i, h in enumerate(basis.cartan_symbols):
            m = self.rho[h]
            for j in range(self.dim):
                for a in range(self.dim):
                    expected = self.weights[j][i] if a == j else Fraction(0)
                    if m[a][j] != expected:
                        raise RepValidationError(
                            f"basis vector {j + 1} is not an eigenvector of "
                            f"{h} with its declared weight"
                        )
        symbols = basis.symbols
        for i, u in enumerate(symbols):
            for v in symbols[i + 1:]:
                lhs = self.matrix_of(
                    basis.bracket(basis.element(u), basis.element(v))
                )
                rhs = linalg.mat_commutator(self.rho[u], self.rho[v])
                if lhs != rhs:
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

    Expected shape: {"type": ..., "rank": ..., "dim": ...,
    "matrices": {symbol: [[rational strings]]}, "weights": [[int]]}.
    Data of any other shape raises RepValidationError.
    """
    if not isinstance(data, dict):
        raise RepValidationError("representation data must be a JSON object")
    missing = [
        k for k in ("type", "rank", "dim", "matrices", "weights") if k not in data
    ]
    if missing:
        raise RepValidationError(f"representation data lacks {missing}")
    try:
        rank, dim = int(data["rank"]), int(data["dim"])
    except (TypeError, ValueError):
        raise RepValidationError('"rank" and "dim" must be integers') from None
    if not isinstance(data["matrices"], dict):
        raise RepValidationError('"matrices" must map symbols to matrices')
    matrices = {
        sym: _rational_rows(m, f"matrix for {sym}")
        for sym, m in data["matrices"].items()
    }
    weights = _rational_rows(data["weights"], '"weights"')
    basis = chevalley_constants(build_root_system(data["type"], rank))
    return RepInput(basis, dim, matrices, weights)


def defining_rep(basis):
    """The defining representation for type A (n x n matrix units)."""
    rs = basis.rs
    if rs.series != "A":
        raise ValueError("the defining representation helper is type A only")
    n = rs.rank + 1

    def unit(i, j):
        m = linalg.zero_matrix(n)
        m[i][j] = Fraction(1)
        return m

    matrices = {}
    for i, root in enumerate(rs.simple_roots):
        matrices[basis.pos_symbol[root]] = unit(i, i + 1)
        matrices[basis.neg_symbol[root]] = unit(i + 1, i)
        h = linalg.zero_matrix(n)
        h[i][i] = Fraction(1)
        h[i + 1][i + 1] = Fraction(-1)
        matrices[basis.cartan_symbols[i]] = h
    weights = []
    for j in range(n):
        weights.append(
            [1 if j == i else (-1 if j == i + 1 else 0) for i in range(rs.rank)]
        )
    return RepInput(basis, n, matrices, weights)


def adjoint_rep(basis):
    """The adjoint representation over the Chevalley basis itself."""
    rs = basis.rs
    symbols = basis.symbols
    n = len(symbols)

    def ad_matrix(sym):
        x = basis.element(sym)
        m = linalg.zero_matrix(n)
        for j, t in enumerate(symbols):
            img = basis.bracket(x, basis.element(t)).as_dict()
            for i, u in enumerate(symbols):
                if u in img:
                    m[i][j] = img[u]
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


@dataclass
class StageData:
    """One peeling step: the chosen lowest vector and everything derived
    from it."""

    index: int
    lowest_form: object  # ambient linear Poly, dual to v0 in the new basis
    m_roots: list  # ordered nilradical roots
    denominator: object  # transported lowest form, a LocElem
    stages: list  # [(Derivation, SlicePair)] in application order


class RepConstruction(Construction):
    """Runs the stage chain and assembles the projector and generators."""

    def __init__(self, rep):
        self.rep = rep
        self.dset = DenominatorSet(rep.variables)
        self.stages = []
        dim = rep.dim
        sub_basis = [
            [Fraction(1 if i == j else 0) for i in range(dim)]
            for j in range(dim)
        ]
        sub_forms = [
            Poly.variable(rep.variables, v) for v in rep.variables
        ]
        sub_weights = list(rep.weights)
        roots = frozenset(rep.basis.rs.roots)
        excluded = []
        flat = []
        while True:
            data = self._stage(
                sub_basis, sub_forms, sub_weights, roots, excluded, flat
            )
            if data is None:
                break
            stage, sub_basis, sub_forms, sub_weights, roots = data
            self.stages.append(stage)
            flat.extend(stage.stages)
        self.final_forms = sub_forms
        self.projector = Projector(flat, dset=self.dset)

    # -- per-stage work -------------------------------------------------------

    @staticmethod
    def _restricted(matrix, vectors):
        """Matrix of an operator on the span of the given vectors, in their
        coordinates."""
        # coordinates of every image from one elimination against the
        # vectors as columns
        cols = linalg.solve_columns(
            list(zip(*vectors)), [linalg.mat_vec(matrix, v) for v in vectors]
        )
        if cols is None:
            raise RepValidationError("operator does not preserve the span")
        return [list(row) for row in zip(*cols)]

    def _weight_of(self, vec, sub_weights):
        wt = None
        for c, w in zip(vec, sub_weights):
            if c:
                if wt is None:
                    wt = w
                elif wt != w:
                    raise RepValidationError("basis vector is not a weight vector")
        return wt

    def _weight_key(self, wt):
        """Total order refining the dominance order on weights."""
        rs = self.rep.basis.rs
        rank = rs.rank
        a = [
            [Fraction(rs.cartan_pairing(rs.simple_roots[j], rs.simple_roots[i]))
             for j in range(rank)]
            for i in range(rank)
        ]
        x = linalg.solve(a, [Fraction(w) for w in wt])
        if x is None:
            raise RuntimeError(f"singular Cartan matrix solving for weight {wt}")
        return (sum(x), tuple(x))

    def _simple_subroots(self, pos):
        pos_set = set(pos)
        out = []
        for a in pos:
            if not any(
                tuple(x - y for x, y in zip(a, b)) in pos_set for b in pos_set
            ):
                out.append(a)
        rs = self.rep.basis.rs
        return sorted(out, key=lambda r: (rs.height(r), r))

    def _decompose(self, indices, matrices_pos, matrices_neg, sub_weights):
        """Split the span of the given coordinate indices into irreducible
        summands of the current subalgebra: weight-wise kernels of the
        lowering operators, then closure under the raising ones.  Returns
        lists of coordinate vectors."""
        m = len(sub_weights)
        if not matrices_neg:
            return [
                [[Fraction(1 if i == j else 0) for i in range(m)]]
                for j in indices
            ]
        by_weight = {}
        for j in indices:
            by_weight.setdefault(sub_weights[j], []).append(j)
        summands = []
        order = sorted(by_weight, key=self._weight_key)
        for wt in order:
            idxs = by_weight[wt]
            rows = []
            for neg in matrices_neg:
                for i in range(m):
                    rows.append([neg[i][j] for j in idxs])
            for combo in linalg.nullspace(rows, ncols=len(idxs)):
                v = [Fraction(0)] * m
                for c, j in zip(combo, idxs):
                    v[j] = c
                summands.append(self._generate(v, matrices_pos))
        total = sum(len(s) for s in summands)
        if total != len(indices):
            raise RepValidationError("summand decomposition does not fill the space")
        return summands

    def _generate(self, v, matrices_pos):
        vectors = [list(v)]
        rows = [list(v)]
        frontier = [list(v)]
        while frontier:
            nxt = []
            for w in frontier:
                for mat in matrices_pos:
                    img = linalg.mat_vec(mat, w)
                    if any(img):
                        if linalg.rank(rows + [img]) > len(vectors):
                            vectors.append(img)
                            rows.append(img)
                            nxt.append(img)
            frontier = nxt
        return vectors

    def _stage(self, sub_basis, sub_forms, sub_weights, roots, excluded, flat):
        rep = self.rep
        basis = rep.basis
        rs = basis.rs
        m = len(sub_basis)
        pos = sorted(
            (r for r in roots if rs.is_positive(r)),
            key=lambda r: (rs.height(r), r),
        )
        if not pos:
            return None
        simples = self._simple_subroots(pos)
        r_pos = {
            a: self._restricted(rep.rho[basis.pos_symbol[a]], sub_basis)
            for a in pos
        }
        r_neg_simple = [
            self._restricted(rep.rho[basis.neg_symbol[a]], sub_basis)
            for a in simples
        ]
        r_pos_simple = [r_pos[a] for a in simples]
        summands = self._decompose(
            list(range(m)), r_pos_simple, r_neg_simple, sub_weights
        )

        def span_key(s):
            return self._weight_key(self._weight_of(s[0], sub_weights))

        candidates = sorted(
            (s for s in summands if len(s) > 1), key=span_key
        )
        chosen = None
        for cand in candidates:
            if any(self._same_span(cand, e) for e in excluded):
                continue
            v0 = cand[0]
            # the m-orbit of v0: roots that move it, with their images
            moved = [(a, linalg.mat_vec(r_pos[a], v0)) for a in pos]
            moved = [(a, img) for a, img in moved if any(img)]
            if not moved:
                excluded.append(cand)
                continue
            chosen = (cand, v0, moved)
            break
        if chosen is None:
            return None
        cand, v0, moved = chosen
        m_roots = [a for a, _ in moved]
        levi = frozenset(
            s
            for a in pos
            if a not in m_roots
            for s in (a, tuple(-c for c in a))
        )

        new_vectors = [list(v0)] + [img for _, img in moved]
        k = len(m_roots)

        # invariant complement of <v0> + m.v0, greedily from the Levi
        # summand decomposition; the chosen summand's pieces come first
        levi_pos = self._simple_subroots(
            sorted(
                (r for r in levi if rs.is_positive(r)),
                key=lambda r: (rs.height(r), r),
            )
        )
        l_pos = [r_pos[a] for a in levi_pos]
        l_neg = [
            self._restricted(rep.rho[basis.neg_symbol[a]], sub_basis)
            for a in levi_pos
        ]
        groups = [cand] + [
            s for s in summands if not self._same_span(s, cand)
        ]
        levi_summands = []
        for grp in groups:
            idx_base = [list(v) for v in grp]
            levi_summands.extend(
                self._decompose_span(idx_base, l_pos, l_neg, sub_weights)
            )
        rows = [list(v) for v in new_vectors]
        complement = []
        for s in levi_summands:
            r0 = linalg.rank(rows)
            if linalg.rank(rows + [list(v) for v in s]) == r0 + len(s):
                complement.extend(s)
                rows.extend(list(v) for v in s)
        if len(new_vectors) + len(complement) != m:
            raise RepValidationError("invariant complement has a wrong dimension")
        new_vectors = new_vectors + complement

        # transport the dual forms: new_form = (T^{-T}) . old_form
        t = [list(v) for v in new_vectors]
        tinv = linalg.mat_inv(t)
        new_forms = []
        for j in range(m):
            f = Poly(rep.variables)
            for c in range(m):
                coef = tinv[c][j]
                if coef:
                    f = f + sub_forms[c] * coef
            new_forms.append(f)

        # transported slices for this stage, through the stages so far
        den = apply_stages(flat, LocElem(self.dset, new_forms[0]))
        den_inv = den.inverse()
        stage_list = []
        for j in range(k, 0, -1):
            a = m_roots[j - 1]
            d = self._ambient_derivation(a)
            wj = apply_stages(flat, LocElem(self.dset, new_forms[j]))
            q = wj * Fraction(-1) * den_inv
            stage_list.append(
                (d, SlicePair(d, q, witness=(wj * Fraction(-1), den)))
            )

        # ambient coordinates: rows of new_vectors combine sub_basis rows
        ambient_vectors = linalg.mat_mul(new_vectors, sub_basis)
        new_weights = [self._weight_of(v, sub_weights) for v in new_vectors]
        stage = StageData(
            index=len(self.stages) + 1,
            lowest_form=new_forms[0],
            m_roots=m_roots,
            denominator=den,
            stages=stage_list,
        )
        keep = [0] + list(range(k + 1, m))
        next_basis = [ambient_vectors[i] for i in keep]
        next_forms = [new_forms[i] for i in keep]
        next_weights = [new_weights[i] for i in keep]
        return stage, next_basis, next_forms, next_weights, levi

    def _decompose_span(self, vectors, l_pos, l_neg, sub_weights):
        """Irreducible Levi summands of the span of the given vectors,
        returned in subspace coordinates."""
        if not l_neg:
            return [[list(v)] for v in vectors]
        # work in coordinates of the span
        inner_weights = [self._weight_of(v, sub_weights) for v in vectors]
        rp = [self._restricted(x, vectors) for x in l_pos]
        rn = [self._restricted(x, vectors) for x in l_neg]
        inner = self._decompose(
            list(range(len(vectors))), rp, rn, inner_weights
        )
        # back to subspace coordinates: rows of s combine the vectors
        return [linalg.mat_mul(s, vectors) for s in inner]

    @staticmethod
    def _same_span(a, b):
        if len(a) != len(b):
            return False
        rows = [list(v) for v in a]
        return linalg.rank(rows + [list(v) for v in b]) == len(a)

    def _ambient_derivation(self, root):
        rep = self.rep
        sym = rep.basis.pos_symbol[root]
        mat = rep.rho[sym]
        images = {}
        for i, v in enumerate(rep.variables):
            images[v] = Poly.linear(
                rep.variables,
                {rep.variables[j]: -mat[i][j] for j in range(rep.dim)
                 if mat[i][j]},
            )
        return Derivation(self.dset, images, label=f"D_{sym}")

    # -- outputs ----------------------------------------------------------------

    def _generators(self):
        rep = self.rep
        entries = []
        lowest_rows = []
        for i, stage in enumerate(self.stages):
            entries.append((f"Lambda{i + 1}", stage.denominator))
            lowest_rows.append(
                [stage.lowest_form.coefficient_of(v) for v in rep.variables]
            )
        count_extra = 0
        for f in self.final_forms:
            row = [f.coefficient_of(v) for v in rep.variables]
            if linalg.rank(lowest_rows + [row]) > linalg.rank(lowest_rows):
                lowest_rows.append(row)
                count_extra += 1
                entries.append(
                    (
                        f"P(f{count_extra})",
                        self.projector.apply(LocElem(self.dset, f)),
                    )
                )
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
        return [
            self._ambient_derivation(a)
            for a in self.rep.basis.rs.simple_roots
        ]
