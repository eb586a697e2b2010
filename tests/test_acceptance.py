"""Acceptance suite: ten exact, seeded, time-bounded end-to-end checks.

Each test prints a single PASS/FAIL line (visible with -s; the test
verdict itself carries the same information under plain -v).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from uproj import linalg
from uproj.adjoint import AdjointConstruction
from uproj.exprparse import parse_expression
from uproj.genrep import RepConstruction, adjoint_rep, defining_rep
from uproj.groupconj import ConjugationConstruction, entry_name
from uproj.projector import jacobian_rank, sample_regular_point
from uproj.symfield import LocElem, Poly

from conftest import ADJOINT_SYSTEMS, get_adjoint, get_basis
from oracles import (
    casimir_element,
    cross_section_check,
    killing_form,
    mat_inv,
    mat_vec,
    witnesses,
)


def report(number, label, ok):
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def rand_poly(rng, variables, nterms=3, deg=3):
    terms = {}
    for _ in range(nterms):
        exp = [0] * len(variables)
        for _ in range(rng.randint(1, deg)):
            exp[rng.randrange(len(variables))] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-5, 5))
    return Poly(variables, terms)


def all_constructions():
    """Every projector-bearing construction exercised by the suite."""
    out = [get_adjoint(s, r) for s, r in ADJOINT_SYSTEMS]
    out.append(ConjugationConstruction(2))
    out.append(ConjugationConstruction(3))
    out.append(RepConstruction(defining_rep(get_basis("A", 1))))
    out.append(RepConstruction(defining_rep(get_basis("A", 2))))
    out.append(RepConstruction(adjoint_rep(get_basis("A", 1))))
    out.append(RepConstruction(adjoint_rep(get_basis("A", 2))))
    return out


def test_criterion_01_sl2_adjoint_exactness():
    t0 = time.monotonic()
    c = AdjointConstruction(get_basis("A", 1))
    gs = c.generator_set()
    elapsed = time.monotonic() - t0
    by_name = dict(gs.entries)
    ok = (
        set(by_name) == {"P(F_1)", "Xi1"}
        and by_name["Xi1"] == parse_expression("E_1", c.dset)
        and by_name["P(F_1)"] == parse_expression("F_1 + 1/4*H1^2*E_1^-1", c.dset)
        and gs.all_verified()
        and elapsed < 1.0
    )
    report(1, f"sl2 adjoint exact set ({elapsed:.2f}s)", ok)


def test_criterion_02_casimir_fixed_points():
    t0 = time.monotonic()
    c1 = get_adjoint("A", 1)
    cas1 = parse_expression("H1^2 + 4*E_1*F_1", c1.dset)
    ok = c1.projector.apply(cas1) == cas1
    c2 = get_adjoint("A", 2)
    cas2 = casimir_element(c2.basis, c2.dset)
    ok = ok and c2.projector.apply(cas2) == cas2
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(2, f"Casimir fixed points sl2 and sl3 ({elapsed:.2f}s)", ok)


def test_criterion_03_invariance_suites():
    ok = True
    times = []
    for series, rank in ADJOINT_SYSTEMS:
        bound = 300.0 if (series, rank) in (("B", 2), ("G", 2)) else 60.0
        t0 = time.monotonic()
        c = AdjointConstruction(get_basis(series, rank))
        gs = c.generator_set(verify=False)
        family = c.simple_derivations()
        for _name, elem in gs.entries:
            for d in family:
                if not d.apply(elem).is_zero():
                    ok = False
        elapsed = time.monotonic() - t0
        times.append(f"{series}{rank}:{elapsed:.1f}s")
        ok = ok and elapsed < bound
    report(3, "invariance suites " + " ".join(times), ok)


def test_criterion_04_counting_law_and_jacobian_rank():
    ok = True
    for series, rank in ADJOINT_SYSTEMS:
        c = get_adjoint(series, rank)
        gs = c.generator_set(verify=False)
        expected = len(c.basis.rs.positive_roots) + c.basis.rs.rank
        ok = ok and len(gs) == expected
        rng = random.Random(0)
        for _ in range(3):
            pt = sample_regular_point(c.dset, rng)
            ok = ok and jacobian_rank(c.dset, gs.elements, pt) == expected
    report(4, "counting law |roots|+rank with Jacobian ranks", ok)


def test_criterion_05_homomorphism_property():
    ok = True
    for series, rank in ADJOINT_SYSTEMS:
        c = get_adjoint(series, rank)
        rng = random.Random(0)
        variables = c.dset.vars
        for _ in range(50):
            a = LocElem(c.dset, rand_poly(rng, variables))
            b = LocElem(c.dset, rand_poly(rng, variables))
            lhs = c.projector.apply(a * b)
            rhs = c.projector.apply(a) * c.projector.apply(b)
            if not (lhs - rhs).is_zero():
                ok = False
                break
        if not ok:
            break
    report(5, "P(ab) = P(a)P(b) on 50 seeded pairs per system", ok)


def test_criterion_06_triangularity_ledgers():
    ok = True
    total = 0
    for c in all_constructions():
        stages = c.projector.stages
        for i, st in enumerate(stages):
            di = st.derivation
            if di.apply(st.q).constant_value() != 1:
                ok = False
            for j in range(i + 1, len(stages)):
                total += 1
                if not di.apply(stages[j].q).is_zero():
                    ok = False
    report(6, f"triangularity D_s(Q_t)=0, D_s(Q_s)=1 over {total} pairs", ok)


def test_criterion_07_conjugation():
    t0 = time.monotonic()
    c2 = ConjugationConstruction(2)
    gs2 = c2.generator_set(verify=False)
    got = {n: str(e) for n, e in gs2.entries}
    ok = got == {"d1": "s_2_1", "P(c_1_2)": "s_1_1 + s_2_2"}

    rng = random.Random(0)
    done = 0
    while done < 25:
        s = [[Fraction(rng.randint(-6, 6)) for _ in range(2)] for _ in range(2)]
        if linalg.rank(s) < 2:
            continue
        u = [[Fraction(1), Fraction(rng.randint(-4, 4))], [Fraction(0), Fraction(1)]]
        t = linalg.mat_mul(linalg.mat_mul(mat_inv(u), s), u)
        pt_s = {entry_name(i + 1, j + 1): s[i][j] for i in range(2) for j in range(2)}
        pt_t = {entry_name(i + 1, j + 1): t[i][j] for i in range(2) for j in range(2)}
        try:
            vals = [(e.evaluate(pt_s), e.evaluate(pt_t)) for _, e in gs2.entries]
        except Exception:
            continue
        ok = ok and all(x == y for x, y in vals)
        done += 1
    t2 = time.monotonic() - t0
    ok = ok and t2 < 1.0

    t0 = time.monotonic()
    c3 = ConjugationConstruction(3)
    gs3 = c3.generator_set()
    t3 = time.monotonic() - t0
    ok = ok and len(gs3) == 5 and gs3.all_verified() and t3 < 60.0
    report(7, f"conjugation n=2 ({t2:.2f}s) and n=3 ({t3:.1f}s)", ok)


def test_criterion_08_cross_pipeline_consistency():
    ok = True
    for series, rank in [("A", 1), ("A", 2)]:
        basis = get_basis(series, rank)
        adj = get_adjoint(series, rank)
        rep = adjoint_rep(basis)
        gc = RepConstruction(rep)
        gs_adj = adj.generator_set(verify=False)
        gs_rep = gc.generator_set(verify=False)
        kappa = killing_form(basis)
        symbols = basis.symbols
        rng = random.Random(0)
        found = 0
        while found < 3:
            v = [Fraction(rng.randint(-9, 9)) for _ in symbols]
            p = mat_vec(kappa, v)
            pt_rep = {f"y{i + 1}": x for i, x in enumerate(v)}
            pt_adj = {s: x for s, x in zip(symbols, p)}
            if any(g.evaluate(pt_rep) == 0 for g in gc.dset.gens):
                continue
            if any(g.evaluate(pt_adj) == 0 for g in adj.dset.gens):
                continue
            found += 1
            rows_rep = [
                [e.deriv(f"y{i + 1}").evaluate(pt_rep) for i in range(len(symbols))]
                for e in gs_rep.elements
            ]
            rows_adj = []
            for e in gs_adj.elements:
                grad = [e.deriv(s).evaluate(pt_adj) for s in symbols]
                rows_adj.append(mat_vec(kappa, grad))
            r1 = linalg.rank(rows_rep)
            r2 = linalg.rank(rows_adj)
            r12 = linalg.rank(rows_rep + rows_adj)
            ok = ok and r1 == r2 == r12 == len(gs_adj)
    report(8, "cross-pipeline Jacobian row spaces agree (sl2, sl3)", ok)


def test_criterion_09_cross_section_machinery():
    c = get_adjoint("A", 1)
    candidates = [parse_expression("F_1", c.dset)]
    rep = cross_section_check(c.projector, candidates, trials=10, seed=0)
    ok = not any(ch["status"] == "fail" for ch in rep["checks"])
    identity_checks = [
        ch for ch in rep["checks"] if ch["name"].startswith("res_identity")
    ]
    ok = ok and len(identity_checks) == 10

    for cons in all_constructions():
        for a1 in witnesses(cons.projector):
            if not cons.projector.apply(a1).is_zero():
                ok = False
    report(9, "cross-section identity and P(witness)=0 everywhere", ok)


def test_criterion_09_after_parsing_into_the_shared_sl2():
    # test_sl2_exact_generator_set parses 1/4*H1^2*E_1^-1 into the cached
    # A1 construction; dividing by 4 must register no generator there, or
    # the cross-section check's Jacobian rank falls one short.  A process
    # of its own runs the two tests in that order
    tests = Path(__file__).resolve().parent
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{tests / 'test_adjoint.py'}::test_sl2_exact_generator_set",
         f"{tests / 'test_acceptance.py'}::test_criterion_09_cross_section_machinery"],
        capture_output=True, text=True, timeout=300, cwd=tests.parent,
    )
    assert r.returncode == 0, r.stdout[-3000:]
    assert "2 passed" in r.stdout


def test_criterion_10_determinism():
    ok = True
    for argv in (
        ("cascade", "--type", "G", "--rank", "2"),
        ("generators", "adjoint", "--type", "A", "--rank", "2", "--seed", "0"),
        ("generators", "conj", "--n", "3", "--seed", "0"),
    ):
        outs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "uproj.cli", *argv],
                capture_output=True,
            )
            outs.append((r.returncode, r.stdout))
        ok = ok and outs[0] == outs[1] and outs[0][1]
    gs = get_adjoint("A", 2).generator_set()
    ok = ok and json.dumps(gs.to_json(), sort_keys=True) == json.dumps(
        get_adjoint("A", 2).generator_set().to_json(), sort_keys=True
    )
    report(10, "byte-identical JSON across repeated seeded runs", ok)
