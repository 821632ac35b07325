"""Every function in ``src/diffop`` is one the command line runs.

The gate runs ``cli.main`` in-process under ``sys.setprofile`` over a fixed
driver: the worked catalogue through every command and format, a batch, the
CLI's error inputs and the inputs that pick the size-dependent paths.  It
lists every ``def`` in the package with ``ast`` and fails on one that was
never entered, unless ``KEPT`` names it with the reason it stays; it also
fails on a ``KEPT`` entry that was entered or no longer exists.
"""

import ast
import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import diffop.cli
from diffop.cli import main

PACKAGE = Path(diffop.cli.__file__).resolve().parent
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "worked_examples.py"

KERNEL_ORACLE = "the tests' kernel oracle, until the CLI certifies kernel bases (ROADMAP item 2)"
SPOT_CHECK = "scripts/worked_examples.py prints the spot check; tests/golden/worked_examples.txt pins it"
PERFBENCH = "perfbench/tracing.py reads or wraps it; the tests build values from terms with it"
RECORD = "the Record contract that tests/test_records.py pins"
VALUE = "value semantics of an engine value"
GAUSS = "Q(i) arithmetic that the test references and closed forms compute in"
ITEMS_2_8 = "the factored form that the certificate and the root recurrence will use (ROADMAP items 2 and 8)"
POWERS = "raises complex monomials in tests of the parser's powers"

# (module, qualname) never entered by the driver, each with the reason it stays
KEPT = {
    ("checks", "check_kernel"): KERNEL_ORACLE,
    ("solve", "KernelBasis.__len__"): KERNEL_ORACLE,
    ("expressions", "RealExpr.is_zero"): KERNEL_ORACLE,
    ("checks", "numeric_spot_check"): SPOT_CHECK,
    ("expressions", "ComplexExpr.evaluate"): SPOT_CHECK,
    ("expressions", "RealExpr.evaluate"): SPOT_CHECK,
    ("expressions", "RealTerm.evaluate"): SPOT_CHECK,
    ("rationals", "GaussianRational.to_complex"): SPOT_CHECK,
    ("expressions", "RealExpr.terms"): PERFBENCH,
    ("expressions", "RealTerm.__init__"): PERFBENCH,
    ("expressions", "ComplexExpr.__init__"): PERFBENCH,
    ("expressions", "RealExpr.__init__"): PERFBENCH,
    ("expressions", "_collected"): PERFBENCH,
    ("rationals", "Record._values"): RECORD,
    ("rationals", "Record.__eq__"): RECORD,
    ("rationals", "Record.__hash__"): RECORD,
    ("rationals", "Record.__reduce__"): RECORD,
    ("rationals", "Record.__repr__"): RECORD,
    ("rationals", "Record.__setattr__"): RECORD,
    ("rationals", "Record.__delattr__"): RECORD,
    ("operators", "OperatorPoly.__eq__"): VALUE,
    ("operators", "OperatorPoly.__hash__"): VALUE,
    ("operators", "OperatorPoly.__repr__"): VALUE,
    ("expressions", "ComplexExpr.__hash__"): VALUE,
    ("expressions", "ComplexExpr.__repr__"): VALUE,
    ("expressions", "RealExpr.__hash__"): VALUE,
    ("expressions", "RealExpr.__repr__"): VALUE,
    ("rationals", "GaussianRational.__bool__"): GAUSS,
    ("rationals", "GaussianRational._coerce"): GAUSS,
    ("rationals", "GaussianRational.__add__"): GAUSS,
    ("rationals", "GaussianRational.__sub__"): GAUSS,
    ("rationals", "GaussianRational.__rsub__"): GAUSS,
    ("rationals", "GaussianRational.__mul__"): GAUSS,
    ("rationals", "GaussianRational.__truediv__"): GAUSS,
    ("rationals", "GaussianRational.__rtruediv__"): GAUSS,
    ("rationals", "GaussianRational.__neg__"): GAUSS,
    ("rationals", "GaussianRational.__pow__"): GAUSS,
    ("rationals", "GaussianRational.norm"): GAUSS,
    ("rationals", "GaussianRational.inverse"): GAUSS,
    ("rationals", "GaussianRational.__eq__"): GAUSS,
    ("rationals", "GaussianRational.__hash__"): GAUSS,
    ("rationals", "GaussianRational.__str__"): GAUSS,
    ("rationals", "gauss"): GAUSS,
    ("factor", "Factor.degree"): ITEMS_2_8,
    ("factor", "Factor.base"): ITEMS_2_8,
    ("factor", "FactoredOperator.degree"): ITEMS_2_8,
    ("factor", "FactoredOperator.expand"): ITEMS_2_8,
    ("parsing", "_gaussian_power.<locals>.times"): POWERS,
}


def _defs(tree: ast.Module) -> set:
    """(first line, qualname) of every def in the module, nested ones
    included; a decorated def's code starts on its first decorator's line."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found.add((line, name))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _l_coefficient() -> int:
    """The product of the primes = 1 mod 4 below 2000 (412 digits): the least
    prime = 1 mod 4 that spares it is 2017, so a quadratic's p * deg is 4034,
    over ``factor._EVALUATION_LIMIT``, and its roots mod p are split."""
    L = 1
    for p in range(5, 2000, 4):
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            L *= p
    return L


def _catalogue() -> list:
    spec = importlib.util.spec_from_file_location("worked_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CATALOGUE


def _driver() -> list:
    """(argv, stdin) pairs for cli.main."""
    calls = []
    formats = ("text", "latex", "json")
    for prob in _catalogue():
        op = ("--op", prob.op)
        for fmt in formats:
            for extra in ((), ("--explain",), ("--general",)):
                calls.append((("solve", *op, "--rhs", prob.rhs, "--format", fmt, *extra), ""))
            calls.append((("kernel", *op, "--format", fmt), ""))
            calls.append((("apply", *op, "--fn", prob.rhs, "--format", fmt), ""))
        for fmt in ("text", "json"):
            calls.append((("verify", *op, "--rhs", prob.rhs, "--candidate", prob.rhs, "--format", fmt), ""))
    problems = [
        {"op": "D^2+1", "rhs": "x*sin(x)"},
        {"op": "D +", "rhs": "x"},
        {"op": "0", "rhs": "x"},
        {"op": "D"},
        5,
    ]
    calls.append((("batch",), json.dumps({"problems": problems})))
    errors = [
        (),
        ("solve", "--op", "D^2+1"),
        ("solve", "--op", "D + * 2", "--rhs", "x"),
        ("solve", "--op", "D", "--rhs", "x + \x85\n*2"),
        ("solve", "--coeffs", "0", "--rhs", "x"),
        ("solve", "--coeffs", "1/0", "--rhs", "x"),
        ("solve", "--coeffs", "x", "--rhs", "x"),
        ("solve", "--coeffs", "1" * 4301, "--rhs", "x"),
        ("solve", "--coeffs", ",".join(["1"] * 1002), "--rhs", "2"),
        ("solve", "--op", "D", "--rhs", "x", "--format=--"),
        ("solve", "--op", "--", "--rhs", "x"),
        ("kernel", "--op", "D^2-2"),
        ("kernel", "--op", "D^3+10^15"),
        ("kernel", "--coeffs", "0"),
        ("verify", "--op", "D", "--rhs", "x", "--candidate", "x^2", "--format", "json"),
        ("verify", "--op", "D", "--rhs", "x", "--candidate", "x^2"),
    ]
    calls += [(argv, "") for argv in errors]
    calls += [(("batch",), payload) for payload in ("{", "{}", '{"problems": 5}')]
    L = _l_coefficient()
    sized = [
        ("kernel", "--coeffs", f"2,-{2 * L + 1},{L}"),
        ("kernel", "--op", "D^3-3*D^2+3*D-1"),
        ("solve", "--op", "-(D-1)", "--rhs", "x/2"),
        ("solve", "--op", "D/2", "--rhs", "x"),
    ]
    calls += [(argv, "") for argv in sized]
    return calls


def _entered() -> set:
    """(file, first line) of every code object called while the driver runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    diffop.cli._build_parser.cache_clear()  # a cached parser is built outside the profile
    stdin = sys.stdin
    try:
        for argv, data in _driver():
            sys.stdin = io.StringIO(data)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    main(list(argv))
                finally:
                    sys.setprofile(None)
    finally:
        sys.stdin = stdin
    return seen


def test_every_def_in_src_is_entered_by_the_cli_or_kept():
    entered = _entered()
    unreached, present, reached = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for line, name in sorted(_defs(ast.parse(path.read_text()))):
            present.add((module, name))
            if (str(path), line) in entered:
                reached.add((module, name))
            elif (module, name) not in KEPT:
                unreached.append(f"{module}:{line} {name}")
    assert not unreached, "defs the CLI never enters and KEPT does not list:\n" + "\n".join(unreached)
    stale = [f"{module} {name}" for module, name in KEPT if (module, name) not in present - reached]
    assert not stale, "KEPT entries that the CLI enters or that no longer exist:\n" + "\n".join(stale)
