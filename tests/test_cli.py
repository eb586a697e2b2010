import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from uproj import cli, genset
from uproj.adjoint import AdjointConstruction
from uproj.exprparse import ParseError, parse_expression
from uproj.groupconj import ConjugationConstruction
from uproj.liealg import chevalley_constants
from uproj.projector import sample_regular_point
from uproj.rootsystem import build_root_system
from uproj.symfield import DenominatorSet, LocElem


def run_cli(*argv, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "uproj.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def load_schema(name):
    with resources.files("uproj.schemas").joinpath(name).open() as fh:
        return json.load(fh)


SL2_REP = {
    "type": "A",
    "rank": 1,
    "dim": 2,
    "matrices": {
        "E_1": [["0", "1"], ["0", "0"]],
        "F_1": [["0", "0"], ["1", "0"]],
        "H1": [["1", "0"], ["0", "-1"]],
    },
    "weights": [[1], [-1]],
}


# -- expression parsing -------------------------------------------------


def test_parse_expression_arithmetic():
    dset = DenominatorSet(("E_1", "H1", "F_1"))
    a = parse_expression("F_1 + 1/4*H1^2*E_1^-1", dset)
    e = parse_expression("E_1", dset)
    h = parse_expression("H1", dset)
    f = parse_expression("F_1", dset)
    assert a == f + h * h * e.inverse() * Fraction(1, 4)
    assert parse_expression("(H1 + F_1)^2", dset) == (h + f) * (h + f)
    assert parse_expression("H1/F_1", dset) == h / f
    assert parse_expression("-2*H1 - (-H1)", dset) == -h


@pytest.mark.parametrize(
    "bad", ["", "H1 +", "2 ** 3", "unknown_var", "(H1", "H1^x", "1/0"]
)
def test_parse_expression_rejects_garbage(bad):
    dset = DenominatorSet(("H1",))
    with pytest.raises(ParseError):
        parse_expression(bad, dset)


def test_parse_expression_registers_divisors_into_the_shared_set():
    # a parsed divisor joins the construction's denominator set, so later
    # regular-point sampling draws against it
    c = AdjointConstruction(chevalley_constants(build_root_system("A", 2)))
    before = sample_regular_point(c.dset, random.Random(9))
    assert len(c.dset) == 1
    parse_expression("1/(E_01 + H1)", c.dset)
    assert len(c.dset) == 2
    assert sample_regular_point(c.dset, random.Random(9)) != before


def test_parse_expression_constant_divisor_registers_nothing():
    c = ConjugationConstruction(2)
    before = list(c.dset.gens)
    s = parse_expression("s_2_1", c.dset)
    assert parse_expression("s_2_1/2", c.dset) == s * Fraction(1, 2)
    assert c.dset.gens == before
    # the inverse of 3/s_2_1 is the denominator over 3
    assert parse_expression("(3*s_2_1^-1)^-1", c.dset) == s * Fraction(1, 3)
    assert parse_expression("2^-2", c.dset) == LocElem.const(c.dset, Fraction(1, 4))
    assert c.dset.gens == before


# -- cascade ------------------------------------------------------------


def test_cascade_json_and_schema():
    r = run_cli("cascade", "--type", "A", "--rank", "3")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["entries"]) == 2
    if jsonschema is not None:
        jsonschema.validate(data, load_schema("cascade.schema.json"))


def test_cascade_invalid_datum_exits_2():
    r = run_cli("cascade", "--type", "G", "--rank", "3")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_cascade_missing_args_exits_2():
    r = run_cli("cascade")
    assert r.returncode == 2


# -- generators ---------------------------------------------------------


def test_generators_adjoint_sl2():
    r = run_cli("generators", "adjoint", "--type", "A", "--rank", "1")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    names = {g["name"]: g["text"] for g in data["generators"]}
    assert set(names) == {"P(F_1)", "Xi1"}
    assert names["Xi1"] == "E_1"
    assert all(
        c["status"] == "pass" for c in data["verification"]["checks"]
    )
    if jsonschema is not None:
        jsonschema.validate(data, load_schema("generator_set.schema.json"))


def test_generators_conj_n2():
    r = run_cli("generators", "conj", "--n", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    names = {g["name"]: g["text"] for g in data["generators"]}
    assert names == {"d1": "s_2_1", "P(c_1_2)": "s_1_1 + s_2_2"}
    if jsonschema is not None:
        jsonschema.validate(data, load_schema("generator_set.schema.json"))


def test_generators_rep_from_file(tmp_path):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(SL2_REP))
    r = run_cli("generators", "rep", "--file", str(f))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert [g["text"] for g in data["generators"]] == ["y2"]
    if jsonschema is not None:
        jsonschema.validate(data, load_schema("generator_set.schema.json"))


def test_generators_rep_bad_file_exits_2(tmp_path):
    r = run_cli("generators", "rep", "--file", str(tmp_path / "missing.json"))
    assert r.returncode == 2


def test_generators_rep_invalid_rep_exits_2(tmp_path):
    bad = dict(SL2_REP, weights=[[1], [1]])
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(bad))
    r = run_cli("generators", "rep", "--file", str(f))
    assert r.returncode == 2


def test_generators_seed_picks_jacobian_point(monkeypatch, capsys):
    states = []
    sample = genset.sample_regular_point

    def recording(dset, rng, *args, **kwargs):
        states.append(rng.getstate())
        return sample(dset, rng, *args, **kwargs)

    monkeypatch.setattr(genset, "sample_regular_point", recording)
    argv = ["generators", "conj", "--n", "3", "--seed"]
    assert cli.main(argv + ["7"]) == 0
    assert states == [random.Random(7).getstate()]
    seeded = capsys.readouterr().out
    assert cli.main(argv + ["0"]) == 0
    assert capsys.readouterr().out == seeded


def test_generator_sets_get_their_own_default_dicts():
    first, second = genset.GeneratorSet([], None), genset.GeneratorSet([], None)
    assert first.metadata == {} and first.report == {"checks": []}
    first.metadata["type"] = "A"
    first.report["checks"].append({"name": "x", "status": "pass"})
    assert second.metadata == {} and second.report == {"checks": []}
    gs = genset.GeneratorSet(entries=[], dset=None, metadata={"n": 2},
                             report={"checks": []})
    assert gs.metadata == {"n": 2} and gs.all_verified()


def test_out_of_memory_exits_4(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.BUILDERS, "conj", exhausted)
    assert cli.main(["generators", "conj", "--n", "3"]) == cli.EXIT_OUT_OF_MEMORY == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


# stands for the path of the case's input file: rep_data as JSON, or as is
# when it is bytes
REP_FILE = "<rep file>"


@pytest.mark.parametrize(
    "argv,rep_data,message",
    [
        (("generators", "rep", "--file", REP_FILE),
         {k: v for k, v in SL2_REP.items() if k != "rank"}, "rank"),
        (("generators", "rep", "--file", REP_FILE), [SL2_REP], "JSON object"),
        # int() would read these as rank 2, dim 10, dim 10 and rank 1
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "rank": 2.7},
         '"rank" must be a JSON integer'),
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "dim": 10.9},
         '"dim" must be a JSON integer'),
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "dim": "10"},
         '"dim" must be a JSON integer'),
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "rank": True},
         '"rank" must be a JSON integer'),
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "type": ["A"]},
         "unknown series"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1",
          "--point", "[1]"), None, "JSON object"),
        (("verify", "--type", "A", "--rank", "1", "--expr", "1/0"), None,
         "division by zero"),
        (("generators", "conj", "--n", "1"), None, "--n must be at least 2"),
        (("generators", "conj", "--n", "2", "--trials", "3"), None,
         "unrecognized"),
        (("generators", "conj", "--n", "2", "--jobs", "2"), None,
         "unrecognized"),
        (("generators", "conj", "--n", "2", "--degree-cap", "3"), None,
         "unrecognized"),
        (("generators", "conj", "--n", "2", "--iter-cap", "9"), None,
         "unrecognized"),
        # options a subcommand does not read
        (("cascade", "--type", "A", "--rank", "2", "--seed", "0"), None,
         "unrecognized"),
        (("cascade", "--type", "A", "--rank", "2", "--n", "3"), None,
         "unrecognized"),
        (("verify", "--type", "A", "--rank", "1", "--expr", "E_1",
          "--seed", "1"), None, "unrecognized"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1",
          "--point", '{"H1": "1"}', "--seed", "1"), None, "unrecognized"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "E_1",
          "--point", '{"E_1": "1/0"}'), None, "zero denominator"),
        (("verify", "--type", "A", "--rank", "1",
          "--expr", "(" * 5000 + "E_1" + ")" * 5000), None, "nested too deeply"),
        (("eval", "--type", "A", "--rank", "1", "--point", "{}",
          "--expr", "(" * 5000 + "E_1" + ")" * 5000), None, "nested too deeply"),
        # Fraction("1e999999999") would build 10^999999999
        (("eval", "--type", "A", "--rank", "1", "--expr", "E_1",
          "--point", '{"E_1": "1e999999999"}'), None, "'1e999999999'"),
        # Python alone reads "1_000" as 1000
        (("eval", "--type", "A", "--rank", "1", "--expr", "E_1",
          "--point", '{"E_1": "1_000"}'), None, "'1_000'"),
        (("generators", "rep", "--file", REP_FILE),
         {**SL2_REP, "matrices": {**SL2_REP["matrices"],
                                  "H1": [["1e999999999", "0"], ["0", "-1"]]}},
         "'1e999999999'"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "E_1 + H1",
          "--point", '{"E_1": "1", "F_1": "2"}'), None, "no value for 'H1'"),
        # E_1 is read through the denominator generator only
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1*E_1^-1",
          "--point", '{"H1": "1"}'), None, "no value for 'E_1'"),
        # total degrees one past the bound of packed monomials
        (("verify", "--type", "A", "--rank", "1", "--expr", "E_1^32768"), None,
         "bound 32767"),
        (("verify", "--type", "A", "--rank", "1",
          "--expr", "E_1^16384*F_1^16384"), None, "bound 32767"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1^32768",
          "--point", '{"H1": "1"}'), None, "bound 32767"),
        # parses, then passes the bound in the quotient rule of the check
        (("verify", "--type", "A", "--rank", "1",
          "--expr", "H1^32767/(H1+F_1)"), None, "bound 32767"),
        (("verify", "--type", "A", "--rank", "1", "--file", REP_FILE),
         b"E_1\n\xff\xfe\n", "codec can't decode"),
        (("generators", "rep", "--file", REP_FILE), b"\xff\xfe",
         "codec can't decode"),
        # options the chosen pipeline does not read
        (("generators", "adjoint", "--type", "A", "--rank", "1", "--n", "3",
          "--file", "nope.json"), None, "adjoint does not read --n"),
        (("generators", "adjoint", "--type", "A", "--rank", "1",
          "--file", REP_FILE), SL2_REP, "adjoint does not read --file"),
        (("generators", "conj", "--n", "2", "--type", "A"), None,
         "conj does not read --type"),
        (("generators", "conj", "--n", "2", "--rank", "1"), None,
         "conj does not read --rank"),
        (("generators", "rep", "--file", REP_FILE, "--rank", "1"), SL2_REP,
         "rep does not read --rank"),
        (("generators", "rep", "--file", REP_FILE, "--n", "2"), SL2_REP,
         "rep does not read --n"),
        (("eval", "--n", "2", "--type", "B", "--rank", "2", "--expr", "s_1_1",
          "--point", '{"s_1_1": "1"}'), None, "conj does not read --type"),
        (("verify", "--n", "2", "--rank", "2", "--expr", "s_1_1"), None,
         "conj does not read --rank"),
        (("verify", "--type", "A", "--rank", "1", "--expr", "E_1",
          "--file", REP_FILE), b"E_1\n", "--expr or --file, not both"),
        # JSON past the decoder's recursion limit
        (("generators", "rep", "--file", REP_FILE), b"[" * 100000,
         "nested too deeply"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1",
          "--point", "[" * 3000), None, "nested too deeply"),
        (("generators", "rep", "--file", REP_FILE), {**SL2_REP, "extra": 1},
         "unknown fields ['extra']"),
        (("eval", "--type", "A", "--rank", "1", "--expr", "H1",
          "--point", '{"H1": "3", "E1": "2"}'), None, "unknown variable 'E1'"),
    ],
    ids=["rep-no-rank", "rep-list", "rep-rank-float", "rep-dim-float",
         "rep-dim-string", "rep-rank-bool", "rep-type-list", "point-list", "zero-divisor", "conj-n1",
         "trials", "jobs", "degree-cap", "iter-cap", "cascade-seed",
         "cascade-n", "verify-seed", "eval-seed", "point-zero-denominator",
         "verify-deep-nesting", "eval-deep-nesting", "point-exponent",
         "point-digit-grouping",
         "rep-exponent", "point-missing-variable",
         "point-missing-denominator-variable", "verify-degree-bound",
         "verify-product-degree-bound", "eval-degree-bound",
         "verify-residue-degree-bound",
         "verify-file-not-utf8", "rep-file-not-utf8", "adjoint-n",
         "adjoint-file", "conj-type", "conj-rank", "rep-rank", "rep-n",
         "eval-n-type", "verify-n-rank", "verify-expr-file",
         "rep-deep-nesting", "point-deep-nesting", "rep-unknown-field",
         "point-unknown-variable"],
)
def test_invalid_input_exits_2(tmp_path, argv, rep_data, message):
    f = tmp_path / "rep.json"
    if isinstance(rep_data, bytes):
        f.write_bytes(rep_data)
    else:
        f.write_text(json.dumps(rep_data))
    r = run_cli(*(str(f) if a == REP_FILE else a for a in argv), timeout=60)
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_generators_text_format():
    r = run_cli("generators", "adjoint", "--type", "A", "--rank", "1",
                "--format", "text")
    assert r.returncode == 0
    assert "generators" in r.stdout
    assert "all checks pass" in r.stdout


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_generators_format_each_element_once(monkeypatch, capsys, fmt):
    # --format prints either the JSON tree or the text lines, and each
    # writes every generator as text, so only the printed one is built;
    # LocElem.formatted makes an element's JSON and text in one pass, and
    # str() goes through it
    calls = []
    formatted = LocElem.formatted

    def counted(self, gen_texts):
        calls.append(self)
        return formatted(self, gen_texts)

    monkeypatch.setattr(LocElem, "formatted", counted)
    argv = ["generators", "adjoint", "--type", "A", "--rank", "2", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(calls) == 5
    assert out.startswith("{") == (fmt == "json")


# -- verify -------------------------------------------------------------


def test_verify_invariant_expression_passes():
    r = run_cli("verify", "--type", "A", "--rank", "1",
                "--expr", "E_1",
                "--expr", "F_1 + 1/4*H1^2*E_1^-1")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert all(res["status"] == "pass" for res in data["results"])


def test_verify_non_invariant_exits_3():
    r = run_cli("verify", "--type", "A", "--rank", "1", "--expr", "F_1")
    assert r.returncode == 3


def test_verify_at_the_degree_bound():
    # the bound is inclusive: E_1^32767 is packed and checked
    r = run_cli("verify", "--type", "A", "--rank", "1", "--expr", "E_1^32767")
    assert r.returncode == 0


def test_verify_parse_error_exits_2():
    r = run_cli("verify", "--type", "A", "--rank", "1", "--expr", "F_1 +")
    assert r.returncode == 2


def test_verify_conj_universe():
    r = run_cli("verify", "--n", "2", "--expr", "s_2_1",
                "--expr", "s_1_1 + s_2_2")
    assert r.returncode == 0


def test_verify_from_file(tmp_path):
    f = tmp_path / "exprs.txt"
    f.write_text("E_1\nH1^2 + 4*E_1*F_1\n")
    r = run_cli("verify", "--type", "A", "--rank", "1", "--file", str(f))
    assert r.returncode == 0


# -- eval ---------------------------------------------------------------


def test_eval_exact_value():
    r = run_cli("eval", "--type", "A", "--rank", "1",
                "--expr", "H1^2 + 4*E_1*F_1",
                "--point", json.dumps({"E_1": "2", "H1": "3", "F_1": "1/2"}))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["value"] == {"num": "13", "den": "1"}


def test_eval_needs_only_the_variables_the_expression_reads():
    r = run_cli("eval", "--type", "A", "--rank", "1", "--expr", "E_1",
                "--point", json.dumps({"E_1": "2"}))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["value"] == {"num": "2", "den": "1"}
    r = run_cli("eval", "--type", "A", "--rank", "1", "--expr", "F_1*E_1^-1",
                "--point", json.dumps({"E_1": "4", "F_1": "2"}))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["value"] == {"num": "1", "den": "2"}


def _digits(n):
    """The decimal text of an int of any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_writes_every_digit_of_an_exact_value(capsys):
    # 3^10000 has 4772 digits, past Python's limit on converting an int to
    # text; the value is written whole, and the limit is back in place
    # once main returns
    want = _digits(3 ** 10000)
    argv = ["eval", "--type", "A", "--rank", "1", "--expr", "H1^10000",
            "--point", json.dumps({"H1": "3"})]
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["value"] == {"num": want, "den": "1"}
    limit = sys.get_int_max_str_digits()
    assert cli.main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out == f"H1^10000 = {want}\n"
    assert sys.get_int_max_str_digits() == limit


def test_verify_writes_every_digit_of_a_residue():
    # D_E_1 (3*H1)^9100 = -2 * 9100 * 3^9100 * E_1*H1^9099, a coefficient
    # of 4347 digits: a failed check, not invalid input
    r = run_cli("verify", "--type", "A", "--rank", "1", "--expr", "(3*H1)^9100")
    assert r.returncode == 3, r.stderr
    (check,) = json.loads(r.stdout)["results"][0]["checks"]
    assert check["residue"] == f"-{_digits(2 * 9100 * 3 ** 9100)}*E_1*H1^9099"


@pytest.mark.parametrize("quote", ['"', ""], ids=["string", "number"])
def test_eval_keeps_the_digit_limit_on_input(quote):
    # a 5000-digit --point value, as a JSON string or a JSON number, is
    # invalid input
    point = '{"H1": %s}' % (quote + "3" * 5000 + quote)
    r = run_cli("eval", "--type", "A", "--rank", "1", "--expr", "H1",
                "--point", point)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: ")


def test_eval_singular_point_exits_2():
    r = run_cli("eval", "--type", "A", "--rank", "1",
                "--expr", "H1*E_1^-1",
                "--point", json.dumps({"E_1": "0", "H1": "1", "F_1": "0"}))
    assert r.returncode == 2


# -- determinism --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("cascade", "--type", "B", "--rank", "2"),
        ("generators", "adjoint", "--type", "A", "--rank", "2"),
        ("generators", "conj", "--n", "3"),
        ("verify", "--type", "A", "--rank", "1", "--expr", "E_1"),
    ],
    ids=["cascade", "adjoint", "conj", "verify"],
)
def test_json_output_is_byte_identical_across_runs(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout.strip()


REP_ADJ_B2 = str(Path(__file__).resolve().parents[1] / "perfbench/data/rep-adj-b2.json")


# sha256 of `uproj generators ... --seed 0` stdout, recorded before the
# one-pass Derivation.apply and the pointwise Jacobian; a kernel change must
# not move a byte
@pytest.mark.parametrize(
    "argv,digest",
    [
        (("adjoint", "--type", "A", "--rank", "2"),
         "ec881ed65b9749c54e14a5425746fd518cd39c9c8cf7015834670a4eca5cf014"),
        (("adjoint", "--type", "B", "--rank", "2"),
         "90133f926bffbdac26bbf7cabac7c369c00d5b14878613c419d9da2b8cb312de"),
        (("adjoint", "--type", "G", "--rank", "2"),
         "7fa6ca7ec0c26112d332928657c644f32c8ea7714d5f1a3f97af85069e2a6f13"),
        (("conj", "--n", "3"),
         "8694d8684806a662c5abcc9fedf0e35d1447c958e81815c2e74e67dc0d02ed27"),
        (("conj", "--n", "4"),
         "b00e3f211fabbdb314faac601606feafda32b21c9d84f6770d0056e4bd619669"),
        (("rep", "--file", REP_ADJ_B2),
         "9345db58dc8ef96b82c1a1f80a5a8c45b6f5bf2a3c153a55733d4cd6e3fb0f72"),
    ],
    ids=["adjoint-A2", "adjoint-B2", "adjoint-G2", "conj-3", "conj-4", "rep-adj-b2"],
)
def test_generators_stdout_is_pinned(argv, digest):
    r = run_cli("generators", *argv, "--seed", "0")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# sha256 of `uproj verify` / `uproj eval` stdout, recorded before any
# change to how they build their universe. A failing check prints its
# residue over the denominator generators in the order the universe
# registered them, so each verify case has residues with two or more
# generators.
@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (("verify", "--type", "A", "--rank", "2", "--expr", "E_11",
          "--expr", "F_10*E_10^-1*E_11^-1",
          "--expr", "H1*E_11^-2 + F_01*E_01^-1*E_10^-1"),
         3, "8e9394a34c8ea23fa5b6f898edc44a71102267cf872ccdd009b71c5038ea155a"),
        (("verify", "--n", "3", "--expr", "s_1_1 + s_2_2 + s_3_3",
          "--expr", "s_2_2*s_3_1^-1*s_3_2^-1",
          "--expr", "s_1_1*(s_2_1*s_3_2 - s_2_2*s_3_1)^-1*s_3_1^-1"),
         3, "2b9d9397227b2030d39e33374c0dd43a37398b3393fc1ab9dbb5e8507cac08e0"),
        (("eval", "--type", "A", "--rank", "2",
          "--expr", "H1*E_11^-2 + F_01*E_01^-1*E_10^-1",
          "--point", json.dumps(
              {"E_10": "2", "E_01": "-3", "E_11": "5", "H1": "1/7", "F_01": "4"}
          )),
         0, "a306ad1fd841b7031fcfcd361e1fe400036ccad0611a65fd7e05daf9dd65c503"),
    ],
    ids=["verify-adjoint-A2", "verify-conj-3", "eval-adjoint-A2"],
)
def test_verify_and_eval_stdout_is_pinned(argv, code, digest):
    r = run_cli(*argv)
    assert r.returncode == code, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
