"""One benchmark sample, run in a fresh process.

Usage: python3 perfbench/worker.py '<workload spec JSON>' <seed> <trace 0|1>

Imports uproj from ``src/`` of the directory the benchmark runs in, runs
the workload's phases (setup, construct, project, verify), checks the
result and prints one JSON object as the last line of stdout.  An
exception ends the process with a traceback and a non-zero exit code,
which the parent counts as a failed sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

from tracer import Tracer, poly_sizes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PRODUCT_COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def speed_probe(reps=5):
    """Seconds taken by a fixed piece of uproj-like work that uses no uproj.

    Sparse products of dict-of-tuple polynomials with Fraction
    coefficients, the kind of exact arithmetic the phases spend their time
    in.  The parent divides each sample's times by this to take out the
    shared host's changes of speed; see perfbench/README.md.
    """
    t0 = time.perf_counter()
    for _ in range(reps):
        a = {}
        for i in range(12):
            a[((i * 7) % 4, (i * 3) % 5, i % 3)] = Fraction(i - 5, i % 4 + 1)
        p = dict(a)
        for _ in range(3):
            q = {}
            for e1, c1 in p.items():
                for e2, c2 in a.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    c = q.get(e, 0) + c1 * c2
                    if c:
                        q[e] = c
                    else:
                        q.pop(e, None)
            p = q
    return time.perf_counter() - t0


def product_pairs(variables, seed, count):
    """`count` pairs of criterion 05's rand_poly(nterms=3, deg=3).

    The monomial supports follow criterion 05's own seed-0 stream, so every
    seed projects polynomials of the same shape; `seed` draws the nonzero
    coefficients.  Cost is set mostly by the supports, so this keeps runs
    with different seeds comparable while the inputs still change.
    """
    from uproj.symfield import Poly

    shape = random.Random(0)
    coeffs = random.Random(seed)
    n = len(variables)

    def rand_poly():
        terms = {}
        for _ in range(3):
            exp = [0] * n
            for _ in range(shape.randint(1, 3)):
                exp[shape.randrange(n)] += 1
            shape.randint(-5, 5)  # criterion 05's coefficient draw
            terms[tuple(exp)] = Fraction(coeffs.choice(PRODUCT_COEFFS))
        return Poly(variables, terms)

    return [(rand_poly(), rand_poly()) for _ in range(count)]


def output_sizes(elements, dset, json_bytes):
    terms, degree, bits = poly_sizes(e.num for e in elements)
    return {
        "size.out.terms": terms,
        "size.out.max_degree": degree,
        "size.out.max_coeff_bits": bits,
        "size.den_gens": len(dset),
        "size.json_bytes": json_bytes,
    }


def run(spec, seed, trace):
    """Run one sample of `spec`; returns the result dict."""
    clock = time.perf_counter
    probe = speed_probe()
    t0 = clock()
    sys.path.insert(0, SRC)
    from uproj import adjoint, genrep, groupconj, liealg, rootsystem
    from uproj.symfield import LocElem

    if not os.path.abspath(adjoint.__file__).startswith(SRC + os.sep):
        raise ImportError(f"uproj was imported from {adjoint.__file__}, not {SRC}")
    t_import = clock() - t0

    tracer = None
    if trace:
        t = clock()
        tracer = Tracer()
        tracer.install()
        t0 += clock() - t  # patching is not part of the sample

    kind = spec["kind"]
    result = {"verified": False, "digest": None}
    t = clock()
    if kind in ("adjoint", "products"):
        basis = liealg.chevalley_constants(
            rootsystem.build_root_system(spec["type"], spec["rank"])
        )
        if kind == "products":
            pairs = product_pairs(basis.symbols, seed, spec["pairs"])
    elif kind == "rep":
        with open(os.path.join(ROOT, spec["file"])) as fh:
            rep = genrep.load_rep(json.load(fh))
    elif kind != "conj":
        raise ValueError(f"unknown workload kind {kind!r}")
    t1 = clock()

    if kind in ("adjoint", "products"):
        c = adjoint.AdjointConstruction(basis)
    elif kind == "conj":
        c = groupconj.ConjugationConstruction(spec["n"])
    else:
        c = genrep.RepConstruction(rep)
    t2 = clock()

    if kind == "products":
        p = c.projector
        projected = []
        for a, b in pairs:
            a, b = LocElem(c.dset, a), LocElem(c.dset, b)
            projected.append((p.apply(a * b), p.apply(a), p.apply(b)))
        t3 = clock()
        result["verified"] = all(
            (pab - pa * pb).is_zero() for pab, pa, pb in projected
        )
        t4 = clock()
        outputs = [pab for pab, _, _ in projected]
        data = json.dumps([e.to_json() for e in outputs], sort_keys=True)
        t5 = t4
    else:
        gs = c.generator_set(verify=False)
        t3 = clock()
        gs.report = c.verify(gs, seed=seed)
        t4 = clock()
        result["verified"] = gs.all_verified()
        data = json.dumps(gs.to_json(), indent=2, sort_keys=True)
        result["digest"] = hashlib.sha256(data.encode()).hexdigest()
        t5 = clock()
        outputs = gs.elements

    result["metrics"] = {
        "total_s": t5 - t0,
        "setup_s": t_import + (t1 - t),
        "construct_s": t2 - t1,
        "project_s": t3 - t2,
        "verify_s": t4 - t3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.summary()
        result["edges"] = tracer.edges()
    result["sizes"] = output_sizes(outputs, c.dset, len(data.encode()))
    result["probe_s"] = (probe + speed_probe()) / 2
    return result


def main(argv):
    spec, seed, trace = json.loads(argv[1]), int(argv[2]), argv[3] == "1"
    print(json.dumps(run(spec, seed, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
