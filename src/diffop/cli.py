"""Command-line front end.

Subcommands: solve, kernel, apply, verify, batch.  Output is plain text by
default; --format latex and --format json are available where rendering
matters.  Every solve result is oracle-checked before printing; an answer
that fails its own verification is a bug and exits 70 rather than being
shown.

Exit codes: 0 success, 1 verification found a residual, 64 usage or parse
error, 65 operator not factorable over Q(i) (kernel and --general), 70
internal error (an answer failing its own certificate, a broken conjugate
fold, or any other failure inside the engine).  In ``batch`` an item that
hits such a failure gets status "internal" instead of "error", and the
batch itself still exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .checks import check_particular
from .expressions import InternalInvariantError, RealExpr
from .factor import UnfactorableOverGaussianRationals, factor_exact
from .operators import OperatorPoly
from .parsing import (
    MAX_DEGREE,
    MAX_DIGITS,
    ParsedOperator,
    ParseError,
    parse_operator,
    parse_rhs,
)
from .render import (
    expr_to_json,
    render_factored,
    render_latex,
    render_operator,
    render_text,
    trace_to_json,
    trace_to_text,
)
from .solve import kernel_basis, solve_particular

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 64
EXIT_UNFACTORABLE = 65
EXIT_INTERNAL = 70


class _Failure(Exception):
    """Carries a message and an exit code up to main()."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _failure(exc: Exception) -> tuple:
    """(exit code, message) for an exception out of a command: anything but a
    ParseError or a _Failure is a bug, as the commands check their inputs."""
    if isinstance(exc, ParseError):
        return EXIT_USAGE, str(exc)
    if isinstance(exc, _Failure):
        return exc.code, str(exc)
    if isinstance(exc, InternalInvariantError):
        return EXIT_INTERNAL, str(exc)
    return EXIT_INTERNAL, f"{type(exc).__name__}: {exc}"


def _print_span(err: ParseError) -> None:
    lines = err.source.splitlines() or [""]
    line_text = lines[err.line - 1]
    width = max(1, min(err.end, len(err.source)) - err.start)
    print(f"  {line_text}", file=sys.stderr)
    print("  " + " " * (err.col - 1) + "^" * width, file=sys.stderr)


# A --coeffs value: a literal of the operator grammar with an optional sign
# and an optional integer denominator.
_COEFFICIENT = re.compile(r"([+-]?)([0-9]+(?:\.[0-9]+)?)(?:/([0-9]+))?")


def _coefficient(text: str) -> Fraction:
    """One --coeffs value, each of its literals at most MAX_DIGITS digits."""
    shown = repr(text if len(text) <= 40 else text[:40] + "...")

    def bad(reason: str) -> _Failure:
        return _Failure(EXIT_USAGE, f"bad --coeffs value {shown}: {reason}")

    match = _COEFFICIENT.fullmatch(text.strip())
    if match is None:
        raise bad("expected a number such as 3, -0.25 or 1/2")
    sign, number, denominator = match.groups()
    if max(len(number) - ("." in number), len(denominator or "")) > MAX_DIGITS:
        raise bad(f"longer than {MAX_DIGITS} digits")
    if denominator is not None and not int(denominator):
        raise bad("zero denominator")
    return Fraction(sign + number) / int(denominator or 1)


def _parse_operator_arg(args) -> ParsedOperator:
    if getattr(args, "coeffs", None) is not None:
        parts = args.coeffs.split(",")
        if len(parts) > MAX_DEGREE + 1:
            limit = f"over the limit of {MAX_DEGREE + 1}"
            raise _Failure(EXIT_USAGE, f"--coeffs holds {len(parts)} values, {limit}")
        return ParsedOperator(OperatorPoly([_coefficient(part) for part in parts]), None)
    return parse_operator(args.op)


def _factored_of(parsed: ParsedOperator):
    if parsed.factored is not None:
        return parsed.factored
    try:
        return factor_exact(parsed.poly)
    except UnfactorableOverGaussianRationals as exc:
        raise _Failure(EXIT_UNFACTORABLE, f"operator is not factorable over Q(i): {exc}")


def _render_expr(expr: RealExpr, fmt: str):
    if fmt == "latex":
        return render_latex(expr)
    if fmt == "json":
        return {"text": render_text(expr), "latex": render_latex(expr), "terms": expr_to_json(expr)}
    return render_text(expr)


def _solve_checked(poly: OperatorPoly, rhs: RealExpr):
    if poly.is_zero():
        raise _Failure(EXIT_USAGE, "the zero operator has no particular solutions")
    Y, trace = solve_particular(poly, rhs)
    verdict = check_particular(poly, rhs, Y)
    if not verdict.is_exact:
        raise InternalInvariantError("the computed answer failed its own verification")
    return Y, trace


def _cmd_solve(args) -> int:
    parsed = _parse_operator_arg(args)
    rhs = parse_rhs(args.rhs)
    Y, trace = _solve_checked(parsed.poly, rhs)
    general = []
    if args.general:
        basis = kernel_basis(_factored_of(parsed))
        general = [
            (label, render_text(element) if args.format != "latex" else render_latex(element))
            for label, element in zip(basis.labels, basis.elements)
        ]
    if args.format == "json":
        payload = {"answer": _render_expr(Y, "json"), "verdict": {"status": "exact"}}
        if args.explain:
            payload["trace"] = trace_to_json(trace)
        if args.general:
            payload["general"] = [
                {"label": label, "element": text} for label, text in general
            ]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    answer = _render_expr(Y, args.format)
    if general:
        if args.format == "latex":
            # C_{n} juxtaposed with its element, the sum set tight as render_latex sets it
            plus = "+"
            terms = [f"C_{{{label[1:]}}}" + (text if text != "1" else "") for label, text in general]
        else:
            plus = " + "
            terms = [f"{label}*{text}" for label, text in general]
        answer = plus.join(([answer] if answer != "0" else []) + terms)
    if args.explain:
        print(trace_to_text(trace))
        answer = f"answer: {answer}"
    print(answer)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    parsed = _parse_operator_arg(args)
    if parsed.poly.is_zero():
        raise _Failure(EXIT_USAGE, "the zero operator has no kernel basis")
    factored = _factored_of(parsed)
    basis = kernel_basis(factored)
    if args.format == "json":
        payload = {
            "operator": render_operator(parsed.poly),
            "factored": render_factored(factored),
            "basis": [render_text(element) for element in basis.elements],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    for element in basis.elements:
        print(render_text(element) if args.format == "text" else render_latex(element))
    return EXIT_OK


def _cmd_apply(args) -> int:
    parsed = _parse_operator_arg(args)
    fn = parse_rhs(args.fn)
    result = parsed.poly.apply(fn.to_complex()).to_real()
    out = _render_expr(result, args.format)
    print(json.dumps(out, indent=2) if args.format == "json" else out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    parsed = _parse_operator_arg(args)
    rhs = parse_rhs(args.rhs)
    candidate = parse_rhs(args.candidate)
    verdict = check_particular(parsed.poly, rhs, candidate)
    if args.format == "json":
        out = {"status": verdict.status}
        if verdict.residual is not None:
            out["residual"] = render_text(verdict.residual)
        if verdict.detail:
            out["detail"] = verdict.detail
        print(json.dumps(out, indent=2))
    elif verdict.is_exact:
        print("exact")
    else:
        print(f"residual: {render_text(verdict.residual)}")
    return EXIT_OK if verdict.is_exact else EXIT_RESIDUAL


def _problem_shape_error(problem) -> Optional[str]:
    """What is wrong with the shape of one batch item, or None."""
    if not isinstance(problem, dict):
        return f'must be an object with string "op" and "rhs", not {type(problem).__name__}'
    for field in ("op", "rhs"):
        if field not in problem:
            return f'"{field}" is missing'
        if not isinstance(problem[field], str):
            return f'"{field}" must be a string, not {type(problem[field]).__name__}'
    return None


def _cmd_batch(args) -> int:
    try:
        payload = json.load(sys.stdin)
        problems = payload["problems"]
        if not isinstance(problems, list):
            raise TypeError(f"problems is {type(problems).__name__}, not a list")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_USAGE, f"batch input must be JSON {{\"problems\": [...]}}: {exc}")
    results = []
    for index, problem in enumerate(problems):
        shape = _problem_shape_error(problem)
        if shape is not None:
            results.append({"status": "error", "error": f"problem {index}: {shape}"})
            continue
        try:
            parsed = parse_operator(problem["op"])
            rhs = parse_rhs(problem["rhs"])
            Y, _ = _solve_checked(parsed.poly, rhs)
            results.append(
                {"status": "ok", "answer": render_text(Y), "terms": expr_to_json(Y)}
            )
        except Exception as exc:
            code, message = _failure(exc)
            status = "internal" if code == EXIT_INTERNAL else "error"
            results.append({"status": status, "error": message})
    print(json.dumps(results, indent=2))
    return EXIT_OK


def _add_operator_args(sub, with_coeffs: bool = True):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", help="operator polynomial in D, expanded or factored")
    if with_coeffs:
        group.add_argument(
            "--coeffs", help="comma-separated rational coefficients, a_0 first"
        )


@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="diffop",
        description="Exact particular solutions of P(D) y = g by operator calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find a particular solution of P(D) y = g")
    _add_operator_args(p_solve)
    p_solve.add_argument("--rhs", required=True, help="right-hand side g(x)")
    p_solve.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_solve.add_argument(
        "--general", action="store_true", help="append the kernel with constants C1..Cn"
    )
    p_solve.add_argument(
        "--explain", action="store_true", help="show the worked steps before the answer"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_kernel = sub.add_parser("kernel", help="basis of the homogeneous solutions")
    _add_operator_args(p_kernel)
    p_kernel.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_apply = sub.add_parser("apply", help="apply P(D) to a function of x")
    _add_operator_args(p_apply)
    p_apply.add_argument("--fn", required=True, help="function of x to differentiate")
    p_apply.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", help="check a candidate solution exactly")
    _add_operator_args(p_verify)
    p_verify.add_argument("--rhs", required=True, help="right-hand side g(x)")
    p_verify.add_argument("--candidate", required=True, help="candidate solution Y(x)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_batch = sub.add_parser(
        "batch", help='solve a JSON batch {"problems": [{"op": ..., "rhs": ...}]} from stdin'
    )
    p_batch.set_defaults(func=_cmd_batch)

    return parser


# Flags whose values may start with '-'.  (--format's never do.)
_VALUE_FLAGS = ("--op", "--coeffs", "--rhs", "--candidate", "--fn")


def _merge_flag_values(argv: list) -> list:
    """Join each value flag with its argument so values may start with '-'."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_flag_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # argparse reads a value of exactly "--" as its separator and stores [];
    # the value goes to its own parser as written, to be refused there
    for flag in _VALUE_FLAGS:
        if getattr(args, flag[2:], None) == []:
            setattr(args, flag[2:], "--")
    # answers may print longer ints than CPython allows; parsing caps literals
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except Exception as exc:
        code, message = _failure(exc)
        if code == EXIT_INTERNAL:
            message = f"internal error: {message}; please report this input"
        print(f"error: {message}", file=sys.stderr)
        if isinstance(exc, ParseError):
            _print_span(exc)
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
