"""Command-line front end.

Subcommands: solve, kernel, apply, verify, batch.  Output is plain text by
default; --format latex and --format json are available where rendering
matters.  Every solve result is oracle-checked before printing; an answer
that fails its own verification is a bug and exits 70 rather than being
shown.

Exit codes: 0 success, 1 verification found a residual, 64 usage or parse
error, 65 operator not factorable over Q(i) (kernel and --general), 70
internal invariant violation (an answer failing its own certificate or a
broken conjugate fold).  In ``batch`` an item that hits such a failure gets
status "internal" instead of "error", and the batch itself still exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .checks import check_particular
from .expressions import InternalInvariantError, RealExpr
from .operators import OperatorPoly, UnfactorableOverGaussianRationals
from .parsing import ParsedOperator, ParseError, factor_exact, parse_operator, parse_rhs
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


def _print_parse_error(err: ParseError) -> None:
    print(f"error: {err}", file=sys.stderr)
    lines = err.source.splitlines() or [""]
    line_text = lines[err.line - 1]
    width = max(1, min(err.end, len(err.source)) - err.start)
    print(f"  {line_text}", file=sys.stderr)
    print("  " + " " * (err.col - 1) + "^" * width, file=sys.stderr)


def _parse_operator_arg(args) -> ParsedOperator:
    if getattr(args, "coeffs", None):
        try:
            coeffs = [Fraction(part.strip()) for part in args.coeffs.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise _Failure(EXIT_USAGE, f"bad --coeffs value: {exc}")
        return ParsedOperator(OperatorPoly(coeffs), None)
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
    general = None
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
        if general is not None:
            payload["general"] = [
                {"label": label, "element": text} for label, text in general
            ]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if args.explain:
        print(trace_to_text(trace))
        print(f"answer: {_render_expr(Y, args.format)}")
    else:
        out = _render_expr(Y, args.format)
        if general is not None:
            tail = " + ".join(f"{label}*{text}" for label, text in general)
            out = f"{out} + {tail}" if out != "0" else tail
        print(out)
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


def _cmd_batch(args) -> int:
    try:
        payload = json.load(sys.stdin)
        problems = payload["problems"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_USAGE, f"batch input must be JSON {{\"problems\": [...]}}: {exc}")
    results = []
    for problem in problems:
        try:
            parsed = parse_operator(problem["op"])
            rhs = parse_rhs(problem["rhs"])
            Y, _ = _solve_checked(parsed.poly, rhs)
            results.append(
                {"status": "ok", "answer": render_text(Y), "terms": expr_to_json(Y)}
            )
        except (ParseError, _Failure, KeyError, TypeError, ValueError) as exc:
            results.append({"status": "error", "error": str(exc)})
        except InternalInvariantError as exc:
            results.append({"status": "internal", "error": str(exc)})
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


_VALUE_FLAGS = ("--op", "--coeffs", "--rhs", "--candidate", "--fn", "--format")


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
    # answers may print longer ints than CPython allows; parsing caps literals
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ParseError as err:
        _print_parse_error(err)
        return EXIT_USAGE
    except _Failure as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as err:
        print(f"error: internal error: {err}; please report this input", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
