"""In-memory span tracer for the public functions of uproj's layers.

The tracer wraps functions from outside the library: it replaces each
target attribute wherever a caller looks it up (class attributes, module
globals, and names imported into other uproj modules) with a wrapper that
records one span per call.  Spans live in flat arrays with a parent link;
self time is computed at the end as the span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric prefix, module, owning class or None, attribute).  The prefixes
# are the layer names used in BENCHMARK.json.
TARGETS = (
    ("rootsystem.coefficients", "rootsystem", "RootSystem", "coefficients"),
    ("rootsystem.kostant_cascade", "rootsystem", None, "kostant_cascade"),
    ("liealg.check_jacobi", "liealg", "ChevalleyBasis", "check_jacobi"),
    ("liealg.bracket", "liealg", "ChevalleyBasis", "bracket"),
    ("symfield.Poly.mul", "symfield", "Poly", "__mul__"),
    ("symfield.Poly.exact_div", "symfield", "Poly", "exact_div"),
    ("symfield.LocElem.init", "symfield", "LocElem", "__init__"),
    ("symfield.LocElem.add", "symfield", "LocElem", "__add__"),
    ("symfield.LocElem.mul", "symfield", "LocElem", "__mul__"),
    ("symfield.LocElem.deriv", "symfield", "LocElem", "deriv"),
    ("symfield.LocElem.evaluate", "symfield", "LocElem", "evaluate"),
    ("symfield.LocElem.inverse", "symfield", "LocElem", "inverse"),
    ("symfield.DenominatorSet.register", "symfield", "DenominatorSet", "register"),
    ("projector.Derivation.apply", "projector", "Derivation", "apply"),
    ("projector.smap", "projector", None, "smap"),
    ("projector.Projector.apply", "projector", "Projector", "apply"),
    ("projector.Projector.check_triangularity", "projector", "Projector",
     "check_triangularity"),
    ("projector.verify_invariance", "projector", None, "verify_invariance"),
    ("projector.jacobian_rank", "projector", None, "jacobian_rank"),
    ("projector.sample_regular_point", "projector", None, "sample_regular_point"),
    ("adjoint.AdjointConstruction.init", "adjoint", "AdjointConstruction",
     "__init__"),
    ("groupconj.minor", "groupconj", None, "minor"),
    ("groupconj.conj_derivation", "groupconj", None, "conj_derivation"),
    ("genrep.load_rep", "genrep", None, "load_rep"),
    ("genrep.RepInput.validate", "genrep", "RepInput", "validate"),
    ("genrep.RepConstruction.init", "genrep", "RepConstruction", "__init__"),
    ("linalg.mat_mul", "linalg", None, "mat_mul"),
    ("linalg.rref", "linalg", None, "rref"),
    ("linalg.nullspace", "linalg", None, "nullspace"),
    ("linalg.solve", "linalg", None, "solve"),
)

SIZE_COUNTERS = (
    "size.out.terms",
    "size.out.max_degree",
    "size.out.max_coeff_bits",
    "size.den_gens",
    "size.json_bytes",
    "size.smap.max_terms",
    "size.smap.max_coeff_bits",
)

AFTER = {
    "symfield.Poly.exact_div": "_after_exact_div",
    "projector.smap": "_after_smap",
    "projector.Projector.check_triangularity": "_after_triangularity",
}

EXTRA_COUNTERS = (
    "symfield.Poly.exact_div.hits",
    "symfield.Poly.exact_div.hit_ratio",
    "projector.smap.iters",
    "projector.Projector.check_triangularity.pairs",
)


def layer_metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for prefix, *_ in TARGETS:
        names[prefix + ".calls"] = "count"
        names[prefix + ".total_s"] = "s"
        names[prefix + ".self_s"] = "s"
    for name in EXTRA_COUNTERS:
        names[name] = "ratio" if name.endswith("hit_ratio") else "count"
    for name in SIZE_COUNTERS:
        names[name] = "bytes" if name.endswith("json_bytes") else (
            "bits" if name.endswith("bits") else "count")
    names["trace.overhead"] = "ratio"
    return names


def poly_sizes(polys):
    """(terms, max total degree, max coefficient bit length) of Polys."""
    terms = degree = bits = 0
    for p in polys:
        terms += len(p.terms)
        degree = max(degree, p.total_degree())
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, degree, bits


class Tracer:
    """Records spans of wrapped calls; install() patches, remove() undoes."""

    def __init__(self):
        self.names = [prefix for prefix, *_ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self._stack = []
        self._active = [0] * len(self.names)
        self.exact_div_hits = 0
        self.smap_results = []
        self.triangularity_pairs = 0
        self._patches = []

    # -- patching -----------------------------------------------------------

    def install(self):
        mods = {
            name[len("uproj."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("uproj.") and mod is not None
        }
        for nid, (_prefix, modname, owner, attr) in enumerate(TARGETS):
            mod = mods[modname]
            if owner is None:
                original = getattr(mod, attr)
            else:
                original = getattr(mod, owner).__dict__[attr]
            wrapper = self._wrap(nid, original)
            # every place a caller looks the function up: module globals
            # (including names imported into other modules) and class
            # attributes, including aliases such as __rmul__ = __mul__
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
                    elif isinstance(value, type) and value.__module__ == m.__name__:
                        for ckey, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                self._patch(value, ckey, wrapper)

    def _patch(self, target, key, value):
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def remove(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        name_id, parent, start, end, outer = (
            self.name_id, self.parent, self.start, self.end, self.outer
        )
        stack, active = self._stack, self._active
        prefix = self.names[nid]
        after = getattr(self, AFTER[prefix]) if prefix in AFTER else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(0 if active[nid] else 1)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters taken from returned values, outside the span
    def _after_exact_div(self, result, args):
        if result is not None:
            self.exact_div_hits += 1

    def _after_smap(self, result, args):
        self.smap_results.append(result)

    def _after_triangularity(self, result, args):
        n = len(args[0].stages)
        self.triangularity_pairs += n * (n + 1) // 2

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: calls, total and self time, extra counters.

        total_s counts only spans not nested in a span of the same name,
        so recursion is not counted twice; self_s sums over all spans.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        child = [0.0] * len(self.start)
        smap_id = self.names.index("projector.smap")
        apply_id = self.names.index("projector.Derivation.apply")
        smap_iters = 0
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
                if self.name_id[i] == apply_id and self.name_id[p] == smap_id:
                    smap_iters += 1
        for i in range(len(self.start)):
            nid = self.name_id[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            if self.outer[i]:
                total[nid] += dur
            self_time[nid] += dur - child[i]
        out = {}
        for nid, prefix in enumerate(self.names):
            out[prefix + ".calls"] = calls[nid]
            out[prefix + ".total_s"] = total[nid]
            out[prefix + ".self_s"] = self_time[nid]
        div_calls = calls[self.names.index("symfield.Poly.exact_div")]
        out["symfield.Poly.exact_div.hits"] = self.exact_div_hits
        out["symfield.Poly.exact_div.hit_ratio"] = (
            self.exact_div_hits / div_calls if div_calls else 0.0
        )
        out["projector.smap.iters"] = smap_iters
        out["projector.Projector.check_triangularity.pairs"] = (
            self.triangularity_pairs
        )
        _terms, _deg, bits = poly_sizes(r.num for r in self.smap_results)
        out["size.smap.max_terms"] = max(
            (len(r.num.terms) for r in self.smap_results), default=0
        )
        out["size.smap.max_coeff_bits"] = bits
        return out

    def edges(self):
        """Call-tree summary: "parent > child" -> [calls, seconds]."""
        tree = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            caller = self.names[self.name_id[p]] if p >= 0 else "sample"
            key = f"{caller} > {self.names[self.name_id[i]]}"
            slot = tree.setdefault(key, [0, 0.0])
            slot[0] += 1
            slot[1] += self.end[i] - self.start[i]
        return tree
