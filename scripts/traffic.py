#!/usr/bin/env python3
"""List the functions of src/lerayfront that no representative run enters.

The runs, all in this process under one ``sys.setprofile`` hook:

* each perfbench problem once (seed 1), imported from perfbench/workloads.py
  as it stands;
* ``lerayfront all`` on wave/parabola, m1/cusp, the flagship
  (examples/wave_cusp.json) and the flagship with a symbolic s;
* ``check`` on the m = 3 symbol over the cusp;
* ``verify-discriminant`` capped at 3 S-pairs on the flagship, wave/parabola
  and m1/cusp, and ``discriminant`` on wave/parabola;
* scripts/classical_exponents.py.

Every function and method defined in src/lerayfront (read with ``ast``) that
none of them entered is printed, with the reason ALLOWED gives for it.  The
script exits 1 when a run fails, when a name that was not entered has no
reason, or when ALLOWED names a function that is no longer defined.  Only
the standard library is used; the package is imported from the checkout's
src.  Run from the repository root (about 20 s on a 2-vCPU Xeon VM):

    python scripts/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lerayfront"

WAVE = "tau^2 - xi1^2 - xi2^2"
CUSP = "x1^2 + x2^3"
PARABOLA = "x1 + x2^2"
OPTIONS = {"powerP": 2, "s": "1", "seed": 1, "irreducible": True}
WAVE_PARABOLA = {"operator": WAVE, "front": PARABOLA, "options": OPTIONS}
M1_CUSP = {"operator": "tau", "front": CUSP, "options": OPTIONS}
FLAGSHIP = json.loads((ROOT / "examples" / "wave_cusp.json").read_text())
FLAGSHIP_SYMBOLIC = {
    "operator": WAVE,
    "front": CUSP,
    "options": {k: v for k, v in OPTIONS.items() if k != "s"},
}
M3_CUSP = {"operator": "tau^3 - tau*xi1^2 - tau*xi2^2", "front": CUSP, "options": OPTIONS}

# (command, problem, extra flags)
CLI_RUNS = [
    ("all", WAVE_PARABOLA, []),
    ("all", M1_CUSP, []),
    ("all", FLAGSHIP, []),
    ("all", FLAGSHIP_SYMBOLIC, []),
    ("check", M3_CUSP, []),
    ("verify-discriminant", FLAGSHIP, ["--max-pairs", "3"]),
    ("verify-discriminant", WAVE_PARABOLA, ["--max-pairs", "3"]),
    ("verify-discriminant", M1_CUSP, ["--max-pairs", "3"]),
    ("discriminant", WAVE_PARABOLA, []),
]

RATIONAL_MATRIX = (
    "perfbench's tracer resolves linalg.RationalMatrix.__mul__ by name, so the "
    "class stays until the benchmark's layer list drops it (ROADMAP item 8)"
)
PROTOCOL = "part of the value protocol of a public class; the tests use it"
ERROR = "an error's constructor runs only on the failure it reports; tests reach each exit code"
ALLOWED = {
    **{
        f"errors.{name}.__init__": ERROR
        for name in (
            "ExpressionSyntaxError", "HyperbolicityError", "MismatchError",
        )
    },
    **{
        f"linalg.RationalMatrix.{name}": RATIONAL_MATRIX
        for name in (
            "__post_init__", "from_rows", "identity", "__eq__", "__add__", "__sub__",
            "scale", "__mul__", "is_zero",
        )
    },
    "jsonio.poly_to_json": "the one definition of a polynomial's JSON value; the "
    "writer's byte contract and tests/test_jsonio.py compare against it",
    "jsonio._key_text": "the writer's path for a key that is not a str; no artifact "
    "has one, tests/test_jsonio.py writes int keys",
    "jsonio.int_digits_error": "raised only for an integer too long to print "
    "(tests/test_cli.py's large-s exits)",
    "oracle.compare_discriminants.mismatch": "builds the error of a radical mismatch, "
    "which no run's det M has; tests/test_oracle.py reaches each case",
    "parser._Parser.expect_op": "reached by a parenthesised expression, which no "
    "run's problem file holds (tests/test_parser.py)",
    "poly.MultiPoly.__hash__": "defined with __eq__ and computed on demand, so that a "
    "MultiPoly stays hashable (tests/test_phase.py compares sets of generators)",
    "poly.MultiPoly.__repr__": PROTOCOL,
    "poly.MultiPoly.eval_float": "the reference float evaluation that "
    "oracle.scaled_residuals must match to the last bit (tests/test_oracle.py)",
    "forms.DiffForm.__repr__": PROTOCOL,
    "forms.DiffForm.__eq__": PROTOCOL,
    "forms.DiffForm.__sub__": PROTOCOL,
    "forms.DiffForm.__neg__": PROTOCOL,
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, line) -> qualified name of each function in the package.

    A function is keyed by its ``def`` line and by each decorator's line,
    since a decorated function's code starts at its first decorator.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                for line in [child.lineno, *(d.lineno for d in child.decorator_list)]:
                    found[path, line] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), path.stem)
    return found


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all(work: Path) -> list[str]:
    """Every run once; the failures, one line each."""
    sys.path.insert(0, str(ROOT / "src"))
    from lerayfront import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    failures = []
    problems = {p.name: p for group in workloads.WORKLOADS.values() for p in group}
    for name, problem in problems.items():
        outcome = problem.run(1, Path(tempfile.mkdtemp(prefix=name, dir=work)))
        failures += [f"perfbench {name}: {f}" for f in outcome.failures]
    for k, (command, spec, flags) in enumerate(CLI_RUNS):
        path = work / f"problem-{k}.json"
        path.write_text(json.dumps(spec))
        code = cli.main([command, "--spec", str(path), "--out", str(work / f"out-{k}"), *flags])
        if code:
            failures.append(f"{command} on {spec['operator']} / {spec['front']}: exit {code}")
    if load_script(ROOT / "scripts" / "classical_exponents.py").main():
        failures.append("scripts/classical_exponents.py: mismatch")
    return failures


def main() -> int:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            failures = run_all(Path(work))
        finally:
            sys.setprofile(None)
    functions = defined_functions()
    reached = {
        functions.get((os.path.realpath(code.co_filename), code.co_firstlineno))
        for code in entered
    }
    unreached = sorted(set(functions.values()) - reached)
    for line in failures:
        print(f"FAILED RUN  {line}")
    for name in unreached:
        reason = ALLOWED.get(name, "no reason given")
        print(f"{'allowed' if name in ALLOWED else 'UNREACHED'}  {name}: {reason}")
    stale = sorted(set(ALLOWED) - set(functions.values()))
    for name in stale:
        print(f"STALE  {name}: allowed but no longer defined")
    for name in sorted(set(ALLOWED) & reached):
        print(f"note  {name} is allowed but was entered")
    bad = failures or stale or [n for n in unreached if n not in ALLOWED]
    print(f"{len(set(functions.values()))} functions, {len(unreached)} not entered, "
          f"{'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
