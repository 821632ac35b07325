"""The command line surface, driven in-process through main()."""

import io
import json
import os
import subprocess
import sys

import pytest

import diffop.cli
from diffop import ConjugateSymmetryError
from diffop.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_UNFACTORABLE,
    EXIT_USAGE,
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


def test_solve_explain_shows_the_steps(capsys):
    code, out, _ = run(
        capsys, "solve", "--op", "D^3-5*D^2+3*D+2",
        "--rhs", "2*x^3+4*x^2-6*x+5", "--explain",
    )
    assert code == EXIT_OK
    assert "truncated inverse series" in out
    assert "-91/16" in out
    assert out.strip().endswith("answer: x^3 - 5/2*x^2 + 39/2*x - 169/4")


def test_zero_operator_is_a_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--coeffs", "0", "--rhs", "x")
    assert code == EXIT_USAGE
    assert "zero operator" in err


def test_parse_errors_point_at_the_source(capsys):
    code, _, err = run(capsys, "solve", "--op", "D + * 2", "--rhs", "x")
    assert code == EXIT_USAGE
    assert "error: 1:5: expected a number, D, or '(', found '*'" in err
    assert "^" in err  # caret line under the offending span


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


def test_batch_rejects_malformed_payload(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    assert main(["batch"]) == EXIT_USAGE


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
