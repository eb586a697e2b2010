"""Command-line frontend.

Each command reads only these options, and exits 2 on any other:

    cascade              --type --rank --format
    generators adjoint   --type --rank --seed --format
    generators conj      --n --seed --format
    generators rep       --file --seed --format
    verify               --type --rank, or --n; --expr or --file; --format
    eval                 --type --rank, or --n; --expr --point --format

--type/--rank name a Dynkin datum and --n a matrix size for conjugation;
verify and eval check against the conjugation pipeline when --n is given
and against the adjoint one otherwise.  --seed (default 0) picks the
random regular point of the Jacobian rank check; no other step is
randomized, so repeated runs with the same arguments produce
byte-identical JSON.
Exit codes: 0 success, 2 invalid input, 3 verification failure, 4 out of
memory ("error: out of memory" on stderr, nothing on stdout).  Commands
raise, and only `main` turns an exception into an exit code: any invalid
input, including a degree bound reached while checking, exits 2 with one
"error: ..." line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .adjoint import AdjointConstruction
from .exprparse import ParseError, parse_expression
from .genrep import RepConstruction, load_rep
from .groupconj import ConjugationConstruction
from .liealg import chevalley_constants
from .linalg import read_rational
from .projector import verify_invariance
from .rootsystem import build_root_system, kostant_cascade

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNVERIFIED = 3
EXIT_OUT_OF_MEMORY = 4


def _emit(payload, fmt, text_lines=None, elapsed=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines or []:
            print(line)
        if elapsed is not None:
            print(f"elapsed: {elapsed:.3f}s")


class _ExactDigits:
    """Lifts Python's limit on the digits of an int written as text, while
    a command writes its result: an exact value may have more digits than
    any input may, and input parsing keeps the limit."""

    def __enter__(self):
        self.limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.limit)


def _json(text, what):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _root_system(args):
    if args.type is None or args.rank is None:
        raise ValueError("--type and --rank are required")
    return build_root_system(args.type, args.rank)


def cmd_cascade(args):
    cascade = kostant_cascade(_root_system(args))
    lines = [
        f"cascade of {args.type}{args.rank}: {len(cascade.entries)} roots"
    ]
    for i, xi in enumerate(cascade.entries):
        lines.append(f"  xi_{i + 1} = {list(xi)}")
    _emit(cascade.to_json(), args.format, lines)
    return EXIT_OK


def _adjoint(args):
    return AdjointConstruction(chevalley_constants(_root_system(args)))


def _conj(args):
    if args.n is None:
        raise ValueError("--n is required")
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    return ConjugationConstruction(args.n)


def _rep(args):
    if args.file is None:
        raise ValueError("--file is required")
    with open(args.file) as fh:
        data = _json(fh.read(), args.file)
    return RepConstruction(load_rep(data))


BUILDERS = {"adjoint": _adjoint, "conj": _conj, "rep": _rep}
# the options each pipeline reads, besides --seed and --format
PIPELINE_OPTIONS = {"adjoint": ("type", "rank"), "conj": ("n",), "rep": ("file",)}


def _reject_unread(args, kind, names):
    """Raise ValueError on the first of the options `names` that is given
    but not read by the pipeline `kind`."""
    for name in names:
        if getattr(args, name) is not None and name not in PIPELINE_OPTIONS[kind]:
            raise ValueError(f"{kind} does not read --{name}")


def cmd_generators(args):
    t0 = time.monotonic()
    _reject_unread(args, args.kind, ("type", "rank", "n", "file"))
    construction = BUILDERS[args.kind](args)
    with _ExactDigits():
        gs = construction.generator_set(seed=args.seed)
        elapsed = time.monotonic() - t0
        # the tree and the text lines each format every generator, so
        # only the one that --format prints is built
        if args.format == "json":
            _emit(gs.to_json(), "json")
        else:
            lines = [f"{len(gs)} generators"]
            for name, elem in gs.entries:
                lines.append(f"  {name} = {elem}")
            lines.append(
                "verification: "
                + ("all checks pass" if gs.all_verified() else "FAILED checks present")
            )
            _emit(None, "text", lines, elapsed=elapsed)
    return EXIT_OK if gs.all_verified() else EXIT_UNVERIFIED


def _verify_universe(args):
    if args.n is None and (args.type is None or args.rank is None):
        raise ValueError("--type and --rank (or --n) are required")
    kind = "conj" if args.n is not None else "adjoint"
    _reject_unread(args, kind, ("type", "rank"))
    c = BUILDERS[kind](args)
    return c.dset, c.simple_derivations()


def cmd_verify(args):
    if args.expr and args.file:
        raise ValueError("verify reads --expr or --file, not both")
    dset, family = _verify_universe(args)
    if args.expr:
        sources = args.expr
    elif args.file:
        with open(args.file) as fh:
            sources = [ln.strip() for ln in fh if ln.strip()]
    else:
        raise ValueError("provide --expr or --file")
    elems = []
    for src in sources:
        try:
            elems.append(parse_expression(src, dset))
        except ValueError as e:
            raise ParseError(f"cannot parse {src!r}: {e}") from None
    results = []
    ok = True
    with _ExactDigits():
        for src, elem in zip(sources, elems):
            report = verify_invariance(elem, family)
            verdict = all(c["status"] == "pass" for c in report["checks"])
            ok = ok and verdict
            results.append(
                {
                    "expression": src,
                    "status": "pass" if verdict else "fail",
                    "checks": report["checks"],
                }
            )
        lines = [f"{r['expression']}: {r['status']}" for r in results]
        _emit({"results": results}, args.format, lines)
    return EXIT_OK if ok else EXIT_UNVERIFIED


def cmd_eval(args):
    dset, _family = _verify_universe(args)
    elem = parse_expression(args.expr, dset)
    point = _json(args.point, "--point")
    if not isinstance(point, dict):
        raise ValueError("--point must be a JSON object")
    for k in point:
        if k not in dset.vars:
            raise ValueError(f"--point has an unknown variable {k!r}")
    values = {k: read_rational(v) for k, v in point.items()}
    # a variable outside the numerator and the denominator generators
    # in use has exponent 0 in every term, so any value will do for it
    used = [elem.num] + [g for g, e in zip(dset.gens, elem.den) if e]
    for i, v in enumerate(dset.vars):
        if v not in values and any(e[i] for p in used for e in p.terms):
            raise ValueError(f"--point has no value for {v!r}")
    value = elem.evaluate({**dict.fromkeys(dset.vars, 0), **values})
    with _ExactDigits():
        payload = {
            "expression": args.expr,
            "value": {"num": str(value.numerator), "den": str(value.denominator)},
        }
        _emit(payload, args.format, [f"{args.expr} = {value}"])
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uproj",
        description="Symbolic projectors onto unipotent-invariant fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    datum = argparse.ArgumentParser(add_help=False)
    datum.add_argument("--type", help="Dynkin series letter (A, B, C, D, E, F, G)")
    datum.add_argument("--rank", type=int, help="rank of the root system")
    datum.add_argument("--format", choices=("json", "text"), default="json")
    universe = argparse.ArgumentParser(add_help=False, parents=[datum])
    universe.add_argument("--n", type=int, help="matrix size for conjugation")

    p = subs.add_parser("cascade", parents=[datum],
                        help="orthogonal maximal-root chain")
    p.set_defaults(func=cmd_cascade)

    p = subs.add_parser("generators", parents=[universe],
                        help="emit a verified generator set")
    p.add_argument("kind", choices=("adjoint", "rep", "conj"))
    p.add_argument("--file", help="representation JSON file (for rep)")
    p.add_argument("--seed", type=int, default=0, help="Jacobian point seed")
    p.set_defaults(func=cmd_generators)

    p = subs.add_parser("verify", parents=[universe],
                        help="check expressions for invariance")
    p.add_argument("--expr", action="append", help="expression (repeatable)")
    p.add_argument("--file", help="file with one expression per line")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("eval", parents=[universe],
                        help="evaluate an expression at a point")
    p.add_argument("--expr", required=True)
    p.add_argument("--point", required=True, help='JSON object {"E_1": "3", ...}')
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        pass
    # reported once the handler has dropped the exception, and with it the
    # frames that hold the memory
    print("error: out of memory", file=sys.stderr)
    return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
