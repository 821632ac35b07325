"""The command line surface, driven in-process through main()."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import diffop.cli
import diffop.solve
from diffop import ConjugateSymmetryError
from diffop.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_UNFACTORABLE,
    EXIT_USAGE,
    _dumps,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--op", "3*D^2-2*D+8", "--rhs", "5*exp(3*x)")
    assert code == EXIT_OK
    assert out.strip() == "5/29*exp(3*x)"


def test_solve_accepts_coefficient_list(capsys):
    code, out, _ = run(capsys, "solve", "--coeffs", "8,-2,3", "--rhs", "5*exp(3*x)")
    assert code == EXIT_OK
    assert out.strip() == "5/29*exp(3*x)"


def test_solve_factored_operator(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "(D-1)*(D+5)*(D-2)^3", "--rhs", "3*exp(2*x)"
    )
    assert code == EXIT_OK
    assert out.strip() == "1/14*x^3*exp(2*x)"


def test_solve_latex(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "D^2+4", "--rhs", "4*x^2*cos(2*x)", "--format", "latex"
    )
    assert code == EXIT_OK
    assert out.strip() == "\\frac{1}{24}\\left[6x^2\\cos 2x+x(8x^2-3)\\sin 2x\\right]"


def test_solve_json_payload(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "D^2-2*D+2",
        "--rhs", "exp(2*x)*(2*cos(x) - 6*sin(x))", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == {"status": "exact"}
    assert payload["answer"]["text"] == "2/5*exp(2*x)*(7*cos(x) - sin(x))"
    assert len(payload["answer"]["terms"]) == 2


def test_solve_zero_rhs(capsys):
    code, out, _ = run(capsys, "solve", "--op", "D", "--rhs", "0")
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_solve_general_appends_kernel(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "D^2+4", "--rhs", "cos(x)", "--general"
    )
    assert code == EXIT_OK
    assert out.strip() == "1/3*cos(x) + C1*cos(2*x) + C2*sin(2*x)"


@pytest.mark.parametrize(
    "op, rhs, latex, text",
    [
        ("D^2+1", "sin(x)", "-\\frac{1}{2}x\\cos x+C_{1}\\cos x+C_{2}\\sin x",
         "-1/2*x*cos(x) + C1*cos(x) + C2*sin(x)"),
        ("D^2", "1", "\\frac{1}{2}x^2+C_{1}+C_{2}x", "1/2*x^2 + C1*1 + C2*x"),
        ("D^2+1", "0", "C_{1}\\cos x+C_{2}\\sin x", "C1*cos(x) + C2*sin(x)"),
    ],
)
def test_solve_general_latex_spells_constants_in_latex(capsys, op, rhs, latex, text):
    code, out, _ = run(capsys, "solve", "--op", op, "--rhs", rhs, "--general", "--format", "latex")
    assert code == EXIT_OK and out == latex + "\n"
    code, out, _ = run(capsys, "solve", "--op", op, "--rhs", rhs, "--general")
    assert code == EXIT_OK and out == text + "\n"


@pytest.mark.parametrize(
    "fmt, answer",
    [("text", "answer: -x + C1*exp(x) + C2*exp(-x)"), ("latex", "answer: -x+C_{1}e^{x}+C_{2}e^{-x}")],
    ids=["text", "latex"],
)
def test_solve_general_explain_ends_with_the_general_solution(capsys, fmt, answer):
    argv = ("solve", "--op", "D^2-1", "--rhs", "x", "--general", "--format", fmt)
    code, out, _ = run(capsys, *argv, "--explain")
    assert code == EXIT_OK
    assert "truncated inverse series" in out
    assert out.endswith("\n" + answer + "\n")
    assert answer[len("answer: "):] + "\n" == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "rhs, fmt, out",
    [("x", "text", "1/5*x\n"), ("x", "latex", "\\frac{1}{5}x\n"), ("0", "text", "0\n")],
    ids=["text", "latex", "zero"],
)
def test_solve_general_of_a_constant_operator_has_no_kernel_terms(capsys, rhs, fmt, out):
    assert run(capsys, "solve", "--op", "5", "--rhs", rhs, "--general", "--format", fmt) == (
        EXIT_OK, out, ""
    )


def test_solve_explain_shows_the_steps(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "D^3-5*D^2+3*D+2",
        "--rhs", "2*x^3+4*x^2-6*x+5", "--explain",
    )
    assert code == EXIT_OK
    assert "truncated inverse series" in out
    assert "-91/16" in out
    assert out.strip().endswith("answer: x^3 - 5/2*x^2 + 39/2*x - 169/4")


def test_coefficient_list_with_fractions_and_decimals(capsys):
    listed = run(capsys, "solve", "--coeffs", "1/2,-0.25,3", "--rhs", "x^2+exp(x)")
    written = run(capsys, "solve", "--op", "3*D^2-0.25*D+0.5", "--rhs", "x^2+exp(x)")
    assert listed == written and listed[0] == EXIT_OK


@pytest.mark.parametrize(
    "coeffs, shown",
    [
        ("1e5000,1", "'1e5000'"),
        ("1e2,1", "'1e2'"),
        ("1,.5", "'.5'"),
        ("1_000,1", "'1_000'"),
        ("1/0,1", "'1/0'"),
        ("1,,2", "''"),
        ("", "''"),
        ("7" * 4301 + ",1", "'" + "7" * 40 + "...'"),
        ("1/" + "3" * 4301, "'1/" + "3" * 38 + "...'"),
        ("\u0663,1", "'\u0663'"),
    ],
    ids=[
        "exponent",
        "small-exponent",
        "bare-point",
        "underscore",
        "zero-denominator",
        "empty-value",
        "empty-list",
        "long-numerator",
        "long-denominator",
        "arabic-indic-digit",
    ],
)
def test_coefficient_list_values_are_bounded_literals(capsys, coeffs, shown):
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--coeffs", coeffs, "--rhs", "x^50")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_USAGE and out == ""
    assert f"bad --coeffs value {shown}" in err


def test_coefficient_list_length_is_bounded(capsys):
    code, out, _ = run(capsys, "solve", "--coeffs", ",".join(["1"] * 1001), "--rhs", "2")
    assert code == EXIT_OK and out.strip() == "2"
    code, _, err = run(capsys, "solve", "--coeffs", ",".join(["1"] * 1002), "--rhs", "2")
    assert code == EXIT_USAGE
    assert "--coeffs holds 1002 values, over the limit of 1001" in err


def test_zero_operator_is_a_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--coeffs", "0", "--rhs", "x")
    assert code == EXIT_USAGE
    assert "zero operator" in err


def test_parse_errors_point_at_the_source(capsys):
    code, _, err = run(capsys, "solve", "--op", "D + * 2", "--rhs", "x")
    assert code == EXIT_USAGE
    assert "error: 1:5: expected a number, D, or '(', found '*'" in err
    assert "^" in err  # caret line under the offending span


@pytest.mark.parametrize(
    "flag, source, message, echoed, caret",
    [
        # the error sits on the empty line after the last "\n"
        ("--op", "D^2+\n", "2:1: expected a number, D, or '(', found end of input", "", "^"),
        # \x0c is whitespace to the tokenizer and no line break to ParseError
        ("--rhs", "x\x0c+", "1:4: expected a number, x, sin, cos, exp, e, or '(', found end of input",
         "x\x0c+", "   ^"),
        # \u2028 and \x85 break lines for str.splitlines() only
        ("--rhs", "x +\u2028\x85\n*2", "2:1: expected a number, x, sin, cos, exp, e, or '(', found '*'",
         "*2", "^"),
    ],
)
def test_parse_errors_echo_the_line_parse_error_counts(capsys, flag, source, message, echoed, caret):
    argv = ["solve", "--op", "D", "--rhs", "x"]
    argv[argv.index(flag) + 1] = source
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n  {echoed}\n  {caret}\n"


def test_kernel_listing(capsys):
    code, out, _ = run(capsys, "kernel", "--op", "D^3")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "x", "x^2"]


def test_kernel_of_degree_14_product(capsys):
    code, out, _ = run(
        capsys, "kernel", "--op", "(D-2)*(D-5)^3*((D+3)^2+4)*((D-7)^2+16)^4"
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "exp(2*x)",
        "exp(5*x)",
        "x*exp(5*x)",
        "x^2*exp(5*x)",
        "cos(2*x)*exp(-3*x)",
        "sin(2*x)*exp(-3*x)",
        "cos(4*x)*exp(7*x)",
        "sin(4*x)*exp(7*x)",
        "x*cos(4*x)*exp(7*x)",
        "x*sin(4*x)*exp(7*x)",
        "x^2*cos(4*x)*exp(7*x)",
        "x^2*sin(4*x)*exp(7*x)",
        "x^3*cos(4*x)*exp(7*x)",
        "x^3*sin(4*x)*exp(7*x)",
    ]


def test_kernel_factors_expanded_input(capsys):
    code, out, _ = run(capsys, "kernel", "--op", "D^2-1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["operator"] == "D^2 - 1"
    assert sorted(payload["basis"]) == ["exp(-x)", "exp(x)"]


def test_kernel_unfactorable_exit_code(capsys):
    code, _, err = run(capsys, "kernel", "--op", "D^2-2")
    assert code == EXIT_UNFACTORABLE
    assert "D^2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--op", "D^3+10^15"),
        ("kernel", "--op", "D^4+1000000000001"),
        ("kernel", "--op", "D^3+10^21"),
        ("solve", "--general", "--op", "D^3+10^15", "--rhs", "x"),
    ],
)
def test_tall_unfactorable_operators_exit_65_fast(capsys, argv):
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 0.1, argv
    assert code == EXIT_UNFACTORABLE
    assert err.startswith("error: operator is not factorable over Q(i): no further factor")
    if argv[-1] == "D^3+10^15":
        # D^3 + 10^15 = (D + 10^5) (D^2 - 10^5 D + 10^10), and only the root -10^5 is in Q(i)
        assert err.rstrip().endswith("divides (10000000000) + (-100000)*D^1 + (1)*D^2")


@pytest.mark.parametrize(
    "op, degree",
    [("(D^2+4*D+13)^40*(2*D-5)^20", 100), ("*".join(f"(D-{k})" for k in range(1, 61)), 60)],
    ids=["pair^40-root^20", "roots-1-to-60"],
)
def test_large_expanded_operators_factor_fast(capsys, op, degree):
    """'+0' sends the operator through factor_exact; its basis is the one
    read off the factored form the parser keeps."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "kernel", "--op", op + "+0")
    assert time.perf_counter() - t0 < 0.5, op
    assert code == EXIT_OK
    factored_code, factored_out, _ = run(capsys, "kernel", "--op", op)
    assert factored_code == EXIT_OK
    assert sorted(out.splitlines()) == sorted(factored_out.splitlines())
    assert len(out.splitlines()) == degree


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "--op", "D^2", "--fn", "sin(3*x)")
    assert code == EXIT_OK
    assert out.strip() == "-9*sin(3*x)"
    code, out, _ = run(capsys, "apply", "--op", "D^5", "--fn", "x^3")
    assert out.strip() == "0"
    code, out, _ = run(capsys, "apply", "--op", "1", "--fn", "x")
    assert out.strip() == "x"


def test_verify_accepts_a_correct_candidate(capsys):
    code, out, _ = run(
        capsys, "verify", "--op", "(D-2)*(D-4)^3", "--rhs", "5*exp(4*x)",
        "--candidate", "5/12*x^3*exp(4*x)",
    )
    assert code == EXIT_OK
    assert out.strip() == "exact"


def test_verify_rejects_a_wrong_candidate_with_residual(capsys):
    # candidate with a leading '-' also exercises flag-value splitting
    code, out, _ = run(
        capsys, "verify", "--op", "(D-2)*(D-4)^3", "--rhs", "5*exp(4*x)",
        "--candidate", "-5/36*x^3*exp(4*x)",
    )
    assert code == EXIT_RESIDUAL
    assert out.strip() == "residual: -20/3*exp(4*x)"


def test_verify_json_verdict(capsys):
    code, out, _ = run(
        capsys, "verify", "--op", "D", "--rhs", "1", "--candidate", "x+3",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"status": "exact"}


def test_verify_json_residual(capsys):
    code, out, _ = run(
        capsys, "verify", "--op", "3*D^2-2*D+8", "--rhs", "5*exp(3*x)",
        "--candidate", "exp(3*x)", "--format", "json",
    )
    assert code == EXIT_RESIDUAL
    assert json.loads(out) == {"status": "residual", "residual": "24*exp(3*x)"}


def test_batch(capsys, monkeypatch):
    problems = {
        "problems": [
            {"op": "3*D^2-2*D+8", "rhs": "5*exp(3*x)"},
            {"op": "D +", "rhs": "x"},
        ]
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problems)))
    code = main(["batch"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    results = json.loads(out)
    assert results[0]["status"] == "ok"
    assert results[0]["answer"] == "5/29*exp(3*x)"
    assert results[1]["status"] == "error"


def _broken_fold(P, g):
    raise ConjugateSymmetryError("term x^0 e^((2i)x) has no conjugate partner")


def test_internal_fold_failure_exits_70(capsys, monkeypatch):
    monkeypatch.setattr(diffop.cli, "solve_particular", _broken_fold)
    code, out, err = run(capsys, "solve", "--op", "D^2+4", "--rhs", "sin(2*x)")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "internal error" in err and "please report this input" in err


def test_unconjugated_mirror_exits_70(capsys, monkeypatch):
    # a mirror that forgets to negate im leaves the answer non-real
    monkeypatch.setattr(diffop.solve, "_conjugate", lambda v: v)
    code, out, err = run(capsys, "solve", "--op", "D^2+4", "--rhs", "x*sin(x)+cos(2*x)")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "internal error" in err and "no conjugate partners" in err


def test_batch_marks_internal_failures(capsys, monkeypatch):
    monkeypatch.setattr(diffop.cli, "solve_particular", _broken_fold)
    problems = {"problems": [{"op": "D^2+4", "rhs": "sin(2*x)"}, {"op": "D +", "rhs": "x"}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problems)))
    code = main(["batch"])
    results = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert results[0] == {
        "status": "internal",
        "error": "term x^0 e^((2i)x) has no conjugate partner",
    }
    assert results[1]["status"] == "error"


def test_batch_marks_badly_shaped_items_by_index_and_field(capsys, monkeypatch):
    problems = [
        {"op": ["D"], "rhs": "x"},
        1,
        {"op": "D"},
        {"op": 5, "rhs": "x"},
        {"op": "D", "rhs": "x"},
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problems": problems})))
    assert main(["batch"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in results] == ["error"] * 4 + ["ok"]
    assert [r["error"] for r in results[:4]] == [
        'problem 0: "op" must be a string, not list',
        'problem 1: must be an object with string "op" and "rhs", not int',
        'problem 2: "rhs" is missing',
        'problem 3: "op" must be a string, not int',
    ]


def _engine_bug(P, g):
    raise TypeError("unsupported operand type(s)")


def test_batch_marks_engine_type_errors_internal(capsys, monkeypatch):
    monkeypatch.setattr(diffop.cli, "solve_particular", _engine_bug)
    problems = {"problems": [{"op": "D-1", "rhs": "x"}, {"op": "D +", "rhs": "x"}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problems)))
    assert main(["batch"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)
    assert results[0] == {"status": "internal", "error": "TypeError: unsupported operand type(s)"}
    assert results[1]["status"] == "error"


def _failing_on_first_order(exc):
    """solve_particular, except that it raises exc for an operator of degree 1."""
    solve = diffop.cli.solve_particular

    def failing(P, g):
        if P.degree == 1:
            raise exc
        return solve(P, g)

    return failing


_ENGINE_BUGS = [IndexError("list index out of range"), ZeroDivisionError("division by zero"),
                ValueError("series inversion needs a nonzero constant coefficient")]


@pytest.mark.parametrize("exc", _ENGINE_BUGS, ids=lambda exc: type(exc).__name__)
def test_any_other_engine_failure_exits_70(capsys, monkeypatch, exc):
    monkeypatch.setattr(diffop.cli, "solve_particular", _failing_on_first_order(exc))
    code, out, err = run(capsys, "solve", "--op", "D-1", "--rhs", "x")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == f"error: internal error: {type(exc).__name__}: {exc}; please report this input\n"


@pytest.mark.parametrize("exc", _ENGINE_BUGS, ids=lambda exc: type(exc).__name__)
def test_batch_marks_any_other_engine_failure_internal(capsys, monkeypatch, exc):
    monkeypatch.setattr(diffop.cli, "solve_particular", _failing_on_first_order(exc))
    problems = {"problems": [{"op": "D-1", "rhs": "x"}, {"op": "D^2", "rhs": "1"}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problems)))
    assert main(["batch"]) == EXIT_OK
    first, second = json.loads(capsys.readouterr().out)
    assert first == {"status": "internal", "error": f"{type(exc).__name__}: {exc}"}
    assert second["status"] == "ok" and second["answer"] == "1/2*x^2"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("kernel", "--op", "--"), "error: 1:3: expected a number, D, or '(', found end of input"),
        (("solve", "--op", "--", "--rhs", "x"), "error: 1:3: expected a number, D, or '('"),
        (("solve", "--op", "D", "--rhs", "--"), "error: 1:3: expected a number, x, sin"),
        (("apply", "--op", "D", "--fn", "--"), "error: 1:3: expected a number, x, sin"),
        (("verify", "--op", "D", "--rhs", "x", "--candidate", "--"), "error: 1:3: expected a number, x"),
        (("solve", "--coeffs", "--", "--rhs", "x"), "error: bad --coeffs value '--': expected a number"),
    ],
    ids=["kernel-op", "op", "rhs", "fn", "candidate", "coeffs"],
)
def test_a_bare_double_dash_value_is_refused_by_its_own_parser(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(message)
    if "--coeffs" not in argv:  # a spanned parse error points past the two dashes
        assert err.endswith("\n  --\n    ^\n")


def test_a_bare_double_dash_format_is_a_usage_error(capsys):
    code, out, err = run(capsys, "solve", "--op", "D", "--rhs", "x", "--format", "--")
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --format: expected one argument" in err


@pytest.mark.parametrize(
    "argv",
    [("solve", "--op", "D", "--rhs", "x", "--format=--"), ("kernel", "--op", "D^2+1", "--format=--")],
    ids=["solve", "kernel"],
)
def test_an_equals_double_dash_format_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"diffop {argv[0]}: error: argument --format: expected one argument" in err


def test_batch_rejects_malformed_payload(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    assert main(["batch"]) == EXIT_USAGE


@pytest.mark.parametrize("payload", ["{", "{}", "[1, 2]"], ids=["invalid-json", "no-problems", "list"])
def test_batch_refuses_a_payload_without_problems(capsys, monkeypatch, payload):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "batch")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith('error: batch input must be JSON {"problems": [...]}: ')


@pytest.mark.parametrize(
    "problems", [5, None, "D", {"op": "D", "rhs": "x"}], ids=["int", "null", "str", "object"]
)
def test_batch_requires_a_list_of_problems(capsys, monkeypatch, problems):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problems": problems})))
    assert main(["batch"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "not a list" in err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_console_script_entry_point():
    # the child imports the same diffop as this process, installed or not
    src = os.path.dirname(os.path.dirname(diffop.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "diffop.cli", "solve", "--op", "D^2+1", "--rhs", "2*sin(2*x)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-2/3*sin(2*x)"


def test_one_parser_serves_alternating_calls(capsys):
    general = json.dumps(
        {
            "answer": {
                "text": "x",
                "latex": "x",
                "terms": [
                    {
                        "coeff": {"num": "1", "den": "1"},
                        "k": 1,
                        "alpha": {"num": "0", "den": "1"},
                        "beta": {"num": "0", "den": "1"},
                        "trig": None,
                    }
                ],
            },
            "verdict": {"status": "exact"},
            "general": [{"label": "C1", "element": "cos(x)"}, {"label": "C2", "element": "sin(x)"}],
        },
        indent=2,
    )
    calls = [
        (("solve", "--op", "D^2+1", "--rhs", "x", "--general", "--format", "json"),
         EXIT_OK, general + "\n", ""),
        (("solve", "--op", "D^2+1", "--rhs", "x"), EXIT_OK, "x\n", ""),
        (("kernel", "--op", "D^2+1"), EXIT_OK, "cos(x)\nsin(x)\n", ""),
        (("verify", "--op", "D^2+1", "--rhs", "x", "--candidate", "x"), EXIT_OK, "exact\n", ""),
        (("solve", "--op", "D^2+1"), EXIT_USAGE, "",
         "usage: diffop solve [-h] (--op OP | --coeffs COEFFS) --rhs RHS\n"
         "                    [--format {text,latex,json}] [--general] [--explain]\n"
         "diffop solve: error: the following arguments are required: --rhs\n"),
    ]
    for _ in range(3):
        for argv, code, out, err in calls:
            assert run(capsys, *argv) == (code, out, err), argv


# CPython refuses to turn ints of more than this many digits into text.
_INT_STR_DIGITS = 4300
_LONG_ANSWER = ("100*D-1", "x^1000")  # the constant term of the answer has 4,568 digits


def _longest_number(text):
    return max(len(run) for run in "".join(c if c.isdigit() else " " for c in text).split())


def test_answers_longer_than_the_int_str_limit_print(capsys):
    before = sys.get_int_max_str_digits()
    op, rhs = _LONG_ANSWER
    code, out, err = run(capsys, "solve", "--op", op, "--rhs", rhs)
    assert (code, err) == (EXIT_OK, "")
    assert _longest_number(out) > _INT_STR_DIGITS
    assert sys.get_int_max_str_digits() == before
    # restored on the failing paths too
    assert run(capsys, "solve", "--op", "D +", "--rhs", "x")[0] == EXIT_USAGE
    assert sys.get_int_max_str_digits() == before


def test_batch_answers_longer_than_the_int_str_limit(capsys, monkeypatch):
    op, rhs = _LONG_ANSWER
    problems = {"problems": [{"op": op, "rhs": rhs}, {"op": "D-1", "rhs": "9" * 4301}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problems)))
    assert main(["batch"]) == EXIT_OK
    long_answer, long_literal = json.loads(capsys.readouterr().out)
    assert long_answer["status"] == "ok"
    assert _longest_number(long_answer["answer"]) > _INT_STR_DIGITS
    assert long_literal == {
        "status": "error",
        "error": "1:1: numeric literal longer than 4300 digits",
    }


def test_internal_failure_restores_the_int_str_limit(capsys, monkeypatch):
    before = sys.get_int_max_str_digits()
    monkeypatch.setattr(diffop.cli, "solve_particular", _broken_fold)
    assert run(capsys, "solve", "--op", "D^2+4", "--rhs", "sin(2*x)")[0] == EXIT_INTERNAL
    assert sys.get_int_max_str_digits() == before


# sha256 of stdout for answers far past the workloads' sizes, taken before
# frequency 0 of OperatorPoly.apply became a correlation.  Both solves apply
# their series at frequency 0.  The first certificate runs there too; the
# second runs at 1, 2, 7, +-i and +-2i.
_FOUR_FACTOR = ("(D-1)*(D-2)*(D-3)*(D-5)", "x^300*(exp(x)+exp(2*x)+sin(x)+cos(2*x)+exp(7*x))")


@pytest.mark.parametrize(
    "op, rhs, fmt, digest",
    [
        ("(7*D-1)^200", "x^200", "text", "6172f85f31fdbaa90da8cb79e37675772dbda0b79beabafc5a679be440ac71c3"),
        ("(7*D-1)^200", "x^200", "json", "67236244eb0b182a71ed48401dc6e8db3e4c1134e4ae7b7abba56c1439020df5"),
        (*_FOUR_FACTOR, "text", "7147d3dac6f0a23224b4e8c27f68d66138a3b7a201129bda6258805c59a606d5"),
        (*_FOUR_FACTOR, "json", "e0e5dbf9dd3c5311c5ceb29a1156bb08ca31758ed9473b45a77f83b32d1f585e"),
    ],
    ids=["power-text", "power-json", "four-factor-text", "four-factor-json"],
)
def test_large_answers_keep_their_bytes(capsys, op, rhs, fmt, digest):
    code, out, err = run(capsys, "solve", "--op", op, "--rhs", rhs, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- the JSON writer ----------------------------------------------------------

_JSON_TEXT = st.text(max_size=8) | st.text(alphabet="\x00\x1f\x7f\"\\/ a\u00e9\u2028\U0001f600", max_size=8)
_HUGE_INTS = st.integers(4301, 4400).map(lambda n: 7 * (10**n - 1) // 9) | st.integers(4301, 4400).map(lambda n: -(10**n))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _HUGE_INTS | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@given(_JSON_VALUES)
@settings(max_examples=150, database=None, deadline=None)
@seed(20261020)
def test_json_writer_matches_json_dumps_with_indent(value):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _dumps(value) == json.dumps(value, indent=2)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: 2}, [b"x"], {"a": {"b": object()}}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)
