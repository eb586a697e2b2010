"""Source checks over the library modules."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uproj"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_runtime_invariants_raise_real_exceptions():
    # `python -O` strips assert statements, and an AssertionError reads as
    # a failed test, not as a failed check of the library
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"assert or AssertionError at {found}"


def test_modules_import_at_top_level_only():
    # an import inside a function hides a dependency from the module head
    # and moves its cost onto whichever call first reaches it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{path.relative_to(SRC)}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert not found, f"import inside a function at {found}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every uproj process pays for its imports before any work: dataclasses
    # alone pulls in inspect, ast, dis and tokenize, and compiles the
    # methods of each decorated class through exec
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import uproj.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_private_helpers_are_referenced():
    # a private function, method or class that nothing in the library
    # reaches outside its own body is dead code left behind by a change
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))]
    uses = {}  # name -> ids of the nodes that reference it
    defs = []
    for tree in trees:
        for node in ast.walk(tree):
            if (name := _referenced_name(node)) is not None:
                uses.setdefault(name, set()).add(id(node))
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
            ):
                defs.append(node)
    unused = [
        node.name
        for node in defs
        if not uses.get(node.name, set()) - {id(n) for n in ast.walk(node)}
    ]
    assert not unused, f"private helpers never referenced: {unused}"


def test_packed_polynomial_fields_stay_in_the_kernel():
    # Poly._num is keyed by packed ints; a module that reads it, or
    # _den, outside the kernel would bring back exponent-tuple assumptions
    kernel = {"symfield.py", "projector.py"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in kernel:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_num", "_den"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"Poly internals read outside the kernel at {found}"


def test_structure_constants_are_read_from_the_table():
    # liealg computes each constant once, into ChevalleyBasis.table; a
    # module that calls the recursion itself is a second read path
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "liealg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and _referenced_name(node.func) == "structure_constant"
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"structure_constant called outside liealg at {found}"


def test_verification_builds_no_derivative_polynomials():
    # jacobian_rank reads each value and gradient in one pass over the
    # terms (Poly.value_and_gradient); a .deriv( call on the verify path
    # would build one polynomial per variable again.  LocElem.deriv stays
    # the reference in the tests
    found = []
    for name in ("projector.py", "genset.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _referenced_name(node.func) == "deriv":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"derivative polynomial built on the verify path at {found}"


def test_jacobian_rank_builds_no_fractions():
    # the rank reads each value and gradient as ints over one scale
    # (Poly.value_and_gradient) and builds each row in ints; a Fraction
    # there is one rational per entry again, which linalg.rank would turn
    # back into ints
    bodies = []
    for name, owner, func in (
        ("projector.py", None, "jacobian_rank"),
        ("symfield.py", "Poly", "value_and_gradient"),
    ):
        tree = ast.parse((SRC / name).read_text())
        scope = tree.body
        if owner is not None:
            scope = next(
                n.body for n in scope if isinstance(n, ast.ClassDef) and n.name == owner
            )
        bodies += [
            (name, n)
            for n in scope
            if isinstance(n, ast.FunctionDef) and n.name == func
        ]
    assert len(bodies) == 2
    found = [
        f"{name}:{node.lineno}"
        for name, body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
        and _referenced_name(node.func) in ("Fraction", "_fr")
    ]
    assert not found, f"Fraction built in the Jacobian rank at {found}"


def test_s_map_engine_builds_no_constant_factors():
    # Derivation.apply folds e and the product of the moved generators
    # into the small D(g_i), and smap puts -1/k onto the slice element; a
    # constant built there is a factor that the large numerator or the
    # series tail would be multiplied by in a pass of its own
    tree = ast.parse((SRC / "projector.py").read_text())
    derivation = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Derivation"
    )
    bodies = [
        n for n in derivation.body + tree.body
        if isinstance(n, ast.FunctionDef) and n.name in ("apply", "smap")
    ]
    assert len(bodies) == 2
    found = [
        f"projector.py:{node.lineno}"
        for body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "const"
        and _referenced_name(node.func.value) == "Poly"
    ]
    assert not found, f"Poly.const called in the s-map engine at {found}"


def _tracer_targets():
    """perfbench/tracer.py's TARGETS, read from its source, so the tracer is
    neither imported nor changed."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [_referenced_name(t) for t in node.targets] == ["TARGETS"]
    ]
    return targets


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps each (module, owner, attribute) of its
    # TARGETS by name, and a target that was moved or deleted shows only as
    # a KeyError when a traced sample installs the tracer
    targets = _tracer_targets()
    assert targets
    missing = []
    for _prefix, modname, owner, attr in targets:
        scope = vars(importlib.import_module(f"uproj.{modname}"))
        if owner is not None:
            scope = vars(scope[owner]) if owner in scope else {}
        if attr not in scope:
            missing.append(".".join(filter(None, (modname, owner, attr))))
    assert not missing, f"tracer targets missing from uproj: {missing}"


def test_only_cli_main_maps_errors_to_exit_codes():
    # commands raise, and main alone turns ValueError and OSError into
    # exit 2 and MemoryError into exit 4; a handler of its own in a
    # command would be a second policy that can drift from the first
    policy = {"EXIT_INVALID", "EXIT_OUT_OF_MEMORY", "stderr"}
    in_main, found = set(), []
    for func in ast.parse((SRC / "cli.py").read_text()).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (name := _referenced_name(node)) in policy:
                if func.name == "main":
                    in_main.add(name)
                else:
                    found.append(f"cli.py:{node.lineno} {func.name} reads {name}")
    assert in_main == policy
    assert not found, f"exit codes or stderr outside main at {found}"


def test_linalg_functions_have_library_callers():
    # a linalg function that nothing in the library calls outside its own
    # body is kept only for the tests; the tracer's targets stay while the
    # benchmark times them
    traced = {
        attr for _, mod, owner, attr in _tracer_targets()
        if mod == "linalg" and owner is None
    }
    funcs = [
        node for node in ast.parse((SRC / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    ]
    assert funcs
    calls = {}  # name -> ids of the Call nodes that call it
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                calls.setdefault(_referenced_name(node.func), set()).add(id(node))
    uncalled = [
        func.name
        for func in funcs
        if func.name not in traced
        and not calls.get(func.name, set()) - {id(n) for n in ast.walk(func)}
    ]
    assert not uncalled, f"linalg functions without a library caller: {uncalled}"


def test_cli_formats_results_with_every_digit():
    # an exact value may have more digits than Python writes as text by
    # default, so the commands that write one compute and format it
    # inside `with _ExactDigits()`, after reading their input outside it
    writers = {"cmd_generators", "cmd_verify", "cmd_eval"}
    formatting = {"_emit", "generator_set", "verify_invariance"}
    funcs = [
        node for node in ast.parse((SRC / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in writers
    ]
    assert {func.name for func in funcs} == writers
    found = []
    for func in funcs:
        lifted = {
            id(inner)
            for node in ast.walk(func)
            if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call)
                and _referenced_name(item.context_expr.func) == "_ExactDigits"
                for item in node.items
            )
            for inner in ast.walk(node)
        }
        found.extend(
            f"cli.py:{node.lineno} {func.name} calls {_referenced_name(node.func)}"
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and _referenced_name(node.func) in formatting
            and id(node) not in lifted
        )
    assert not found, f"exact results formatted under the digit limit at {found}"
