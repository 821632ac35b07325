"""Text grammars for operators and right-hand sides, and exact factorization."""

import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from diffop import (
    D,
    Factor,
    FactoredOperator,
    GaussianRational,
    OperatorPoly,
    ParseError,
    RealExpr,
    RealTerm,
    UnfactorableOverGaussianRationals,
    factor_exact,
    gauss,
    parse_operator,
    parse_rhs,
)
from diffop.cli import EXIT_OK, EXIT_USAGE, main
from diffop.parsing import (
    MAX_COEFFICIENTS,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_DIGITS,
    _OperatorParser,
    _RhsParser,
)
from genutil import rand_factored, rexpr
from termref import TermSum

F = Fraction


# --- operator grammar -------------------------------------------------------


def test_expanded_operator():
    parsed = parse_operator("2*D^3 + D^2 - 5*D + 3")
    assert parsed.poly == OperatorPoly((3, -5, 1, 2))


def test_single_d():
    parsed = parse_operator("D")
    assert parsed.poly == OperatorPoly((0, 1))
    assert parsed.factored is not None
    assert parsed.factored.factors == (Factor(F(0), F(0), 1),)


def test_factored_structure_retained():
    parsed = parse_operator("(D-1)*(D+5)*(D-2)^3")
    assert parsed.poly == (D - 1) * (D + 5) * (D - 2) ** 3
    assert parsed.factored is not None
    assert [(f.alpha, f.beta, f.mult) for f in parsed.factored.factors] == [
        (F(1), F(0), 1),
        (F(-5), F(0), 1),
        (F(2), F(0), 3),
    ]


def test_quadratic_factors_retained():
    parsed = parse_operator("(D-1)^2*((D+1)^2+4)*(D+4)")
    assert parsed.poly == OperatorPoly((20, -27, 0, 2, 4, 1))
    assert Factor(F(-1), F(2), 1) in parsed.factored.factors


def test_juxtaposition_multiplies():
    assert parse_operator("2D^3+D^2-5D+3").poly == OperatorPoly((3, -5, 1, 2))
    assert parse_operator("3D(D+1)").poly == 3 * D * (D + 1)


def test_irrational_quadratic_loses_factored_form():
    parsed = parse_operator("D^2-2")
    assert parsed.poly == D**2 - 2
    assert parsed.factored is None


def test_leading_scalar_is_kept():
    parsed = parse_operator("-2*(D-1)^2")
    assert parsed.poly == -2 * (D - 1) ** 2
    assert parsed.factored is not None
    assert parsed.factored.leading == F(-2)


def test_power_of_quadratic_block():
    parsed = parse_operator("((D-7)^2+16)^4")
    assert parsed.factored.factors == (Factor(F(7), F(4), 4),)
    assert parsed.poly.degree == 8


def test_operator_rejects_x_and_functions():
    with pytest.raises(ParseError, match="variable x cannot appear"):
        parse_operator("D + x")
    with pytest.raises(ParseError, match="sin cannot appear"):
        parse_operator("sin(D)")


def test_operator_rejects_division():
    with pytest.raises(ParseError, match="division is not allowed"):
        parse_operator("D/2")


def test_operator_rejects_bad_exponents():
    with pytest.raises(ParseError, match="non-negative integer exponent"):
        parse_operator("D^-1")
    with pytest.raises(ParseError, match="must be a non-negative integer"):
        parse_operator("D^1.5")


def test_error_spans_point_into_source():
    src = "(D-1)*(D+"
    with pytest.raises(ParseError) as info:
        parse_operator(src)
    err = info.value
    assert str(err).startswith("1:")
    assert 0 <= err.start <= err.end <= len(src)


def test_error_reports_position_and_token():
    with pytest.raises(ParseError) as info:
        parse_operator("D + * 2")
    assert str(info.value) == "1:5: expected a number, D, or '(', found '*'"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="expected an operator or end of input"):
        parse_operator("D)")


# --- rhs grammar ------------------------------------------------------------


def test_rhs_atoms():
    assert parse_rhs("5*exp(3*x)") == rexpr((5, 0, 3, 0, None))
    assert parse_rhs("3*sin(2*x)") == rexpr((3, 0, 0, 2, "sin"))
    assert parse_rhs("x") == rexpr((1, 1, 0, 0, None))
    assert parse_rhs("7") == rexpr((7, 0, 0, 0, None))
    assert parse_rhs("0") == rexpr()


def test_rhs_polynomial():
    assert parse_rhs("2x^3+4x^2-6x+5") == rexpr(
        (2, 3, 0, 0, None), (4, 2, 0, 0, None), (-6, 1, 0, 0, None), (5, 0, 0, 0, None)
    )


def test_rhs_products():
    assert parse_rhs("(x^2-3)*sin(2*x)") == rexpr((1, 2, 0, 2, "sin"), (-3, 0, 0, 2, "sin"))
    assert parse_rhs("4*exp(3*x)*cos(2*x)") == rexpr((4, 0, 3, 2, "cos"))
    assert parse_rhs("(x-1)(x+1)") == rexpr((1, 2, 0, 0, None), (-1, 0, 0, 0, None))


def test_rhs_three_frequency_group():
    got = parse_rhs("exp(-x)*(3 + 2*sin(x) + 4*x^2*cos(x))")
    assert got == rexpr(
        (3, 0, -1, 0, None), (2, 0, -1, 1, "sin"), (4, 2, -1, 1, "cos")
    )


def test_e_power_synonym():
    assert parse_rhs("e^(3*x)") == parse_rhs("exp(3*x)")
    assert parse_rhs("e^x") == parse_rhs("exp(x)")
    assert parse_rhs("2*e^(-x)") == rexpr((2, 0, -1, 0, None))


def test_negative_trig_rate_normalizes():
    assert parse_rhs("sin(-2*x)") == rexpr((-1, 0, 0, 2, "sin"))
    assert parse_rhs("cos(-2*x)") == rexpr((1, 0, 0, 2, "cos"))


def test_decimal_literals_are_exact():
    assert parse_rhs("0.25*x") == rexpr((F(1, 4), 1, 0, 0, None))
    assert parse_rhs("1.5") == rexpr((F(3, 2), 0, 0, 0, None))


def test_rhs_division_by_rational_constant():
    assert parse_rhs("x/4") == rexpr((F(1, 4), 1, 0, 0, None))
    with pytest.raises(ParseError, match="division by zero"):
        parse_rhs("x/0")
    with pytest.raises(ParseError, match="nonzero rational constant"):
        parse_rhs("1/x")


def test_rhs_rejects_irrational_and_nested_arguments():
    with pytest.raises(ParseError, match="unknown name 'sqrt'"):
        parse_rhs("sin(sqrt(2)*x)")
    with pytest.raises(ParseError, match="rational multiple of x"):
        parse_rhs("sin(sin(x))")
    with pytest.raises(ParseError, match="rational multiple of x"):
        parse_rhs("exp(x^2)")


def test_rhs_rejects_operator_symbol():
    with pytest.raises(ParseError, match="cannot appear in a function of x"):
        parse_rhs("D*x")


def test_rhs_trig_powers_expand():
    # cos(2x)^2 = 1/2 + cos(4x)/2
    assert parse_rhs("cos(2*x)^2") == rexpr(
        (F(1, 2), 0, 0, 0, None), (F(1, 2), 0, 0, 4, "cos")
    )


def test_unexpected_character_is_rejected():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_rhs("3 @ x")


def test_multiline_error_coordinates():
    with pytest.raises(ParseError) as info:
        parse_rhs("x +\n y +")
    assert info.value.line == 2
    assert str(info.value).startswith("2:")


# --- exact factorization ----------------------------------------------------


def test_factor_difference_of_squares():
    f = factor_exact(D**2 - 1)
    assert {(fac.alpha, fac.mult) for fac in f.factors} == {(F(1), 1), (F(-1), 1)}
    assert f.expand() == D**2 - 1


def test_factor_quintic_with_quadratic_part():
    P = OperatorPoly((20, -27, 0, 2, 4, 1))
    f = factor_exact(P)
    assert f.expand() == P
    assert sorted((fac.alpha, fac.beta, fac.mult) for fac in f.factors) == [
        (F(-4), F(0), 1),
        (F(-1), F(2), 1),
        (F(1), F(0), 2),
    ]


def test_factor_strips_derivative_powers():
    f = factor_exact(D**3 + D**5)
    assert Factor(F(0), F(0), 3) in f.factors
    assert f.expand() == D**3 + D**5


def test_factor_keeps_leading_coefficient():
    P = 6 * (D - F(1, 2)) * (D + F(2, 3))
    f = factor_exact(P)
    assert f.expand() == P


def test_factor_rejects_irrational_roots():
    with pytest.raises(UnfactorableOverGaussianRationals):
        factor_exact(D**2 - 2)
    with pytest.raises(UnfactorableOverGaussianRationals):
        factor_exact(D**2 + D + 1)


def test_factor_rejects_degenerate_input():
    with pytest.raises(ValueError):
        factor_exact(OperatorPoly())


def test_factor_round_trips_on_random_operators():
    rng = random.Random(53)
    for _ in range(80):
        f = rand_factored(rng)
        P = f.expand()
        g = factor_exact(P)
        assert g.expand() == P, f


# --- parser values against the term-merge reference --------------------------


def _const_expr(q):
    return TermSum(((GaussianRational(q), 0, gauss(0)),))


_REF_X = TermSum(((gauss(1), 1, gauss(0)),))


class _ReferenceRhs(_RhsParser):
    """The term-merge value algebra of ``termref.TermSum``.

    Only the value hooks are overridden, so tokens, grammar and errors are
    the parser's own; powers are plain repeated products, unchecked against
    the parser's size limits.
    """

    def const(self, q):
        return _const_expr(q)

    def variable(self):
        return _REF_X

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return a.scale(gauss(-1))

    def mul(self, a, b, tok):
        return a * b

    def div(self, a, b, tok):
        if b.is_zero():
            self.fail(tok, "division by zero")
        if len(b.terms) == 1 and b.terms[0].k == 0 and b.terms[0].lam.is_zero():
            return a.scale(b.terms[0].coeff.inverse())
        self.fail(tok, "can only divide by a nonzero rational constant")

    def pow(self, a, n, tok):
        result = _const_expr(F(1))
        for _ in range(n):
            result = result * a
        return result

    def _linear_rate(self, arg, tok):
        if arg.is_zero():
            return F(0)
        if len(arg.terms) == 1:
            t = arg.terms[0]
            if t.k == 1 and t.lam.is_zero() and t.coeff.is_real():
                return t.coeff.re
        self.fail(tok, f"argument of {tok.text} must be a rational multiple of x")

    @staticmethod
    def _exponential(rate):
        return TermSum(((gauss(1), 0, gauss(rate)),))

    @staticmethod
    def _trig(name, rate):
        up, down = gauss(0, rate), gauss(0, -rate)
        if name == "cos":
            half = gauss(F(1, 2))
            return TermSum(((half, 0, up), (half, 0, down)))
        half = gauss(1) / gauss(0, 2)
        return TermSum(((half, 0, up), (-half, 0, down)))


@dataclass(frozen=True)
class _RefOpVal:
    poly: OperatorPoly
    scalar: object
    parts: object

    @staticmethod
    def wrap(poly):
        if poly.degree == 0 and poly.is_real():
            return _RefOpVal(poly, poly.coeffs[0].re, ())
        if poly.is_zero():
            return _RefOpVal(poly, None, None)
        if poly.degree <= 2 and poly.is_real():
            return _RefOpVal(poly, F(1), ((poly, 1),))
        return _RefOpVal(poly, None, None)


class _ReferenceOperator(_OperatorParser):
    """The OperatorPoly value algebra the dense vectors replaced."""

    def const(self, q):
        return _RefOpVal(OperatorPoly((q,)), q, ())

    def variable(self):
        return _RefOpVal(D, F(1), ((D, 1),))

    def add(self, a, b):
        return _RefOpVal.wrap(a.poly + b.poly)

    def sub(self, a, b):
        return _RefOpVal.wrap(a.poly - b.poly)

    def neg(self, a):
        if a.parts is None:
            return _RefOpVal(-a.poly, None, None)
        return _RefOpVal(-a.poly, -a.scalar, a.parts)

    def mul(self, a, b, tok):
        poly = a.poly * b.poly
        if a.parts is None or b.parts is None:
            return _RefOpVal(poly, None, None)
        return _RefOpVal(poly, a.scalar * b.scalar, a.parts + b.parts)

    def pow(self, a, n, tok):
        if n == 0:
            return self.const(F(1))
        poly = OperatorPoly((1,))
        for _ in range(n):
            poly = poly * a.poly
        if a.parts is None:
            return _RefOpVal(poly, None, None)
        return _RefOpVal(poly, a.scalar**n, tuple((base, m * n) for base, m in a.parts))


def _reference_rhs(src):
    return _ReferenceRhs(src).parse().to_real()


def _reference_operator(src):
    value = _ReferenceOperator(src).parse()
    factored = None
    if value.parts is not None and not value.poly.is_zero():
        try:
            factored = FactoredOperator.from_bases(value.scalar, value.parts)
        except UnfactorableOverGaussianRationals:
            factored = None
    return value.poly, factored


def _outcome(parse, src):
    try:
        return parse(src)
    except ParseError as err:
        return ("error", err.start, err.end, str(err))


_RATES = ("x", "-x", "2*x", "-3*x", "x/2", "-2/3*x", "0.5*x", "3x", "(1/3)x", "0", "0*x", "-x/4", "1.25x")
_OPERATOR_CONSTANTS = ("1", "2", "3", "7", "0", "0.5", "1.25", "12")  # no '/' in operators
_CONSTANTS = _OPERATOR_CONSTANTS + ("(2/3)", "(-3/4)")


class _SourceMaker:
    """Random sources over one grammar; at most one power above 3 per source."""

    def __init__(self, rng, operator):
        self.rng = rng
        self.operator = operator
        self.big_power = True

    def atom(self):
        rng = self.rng
        if self.operator:
            return rng.choice(("D", "D", "D^2", "D^3", "2D", rng.choice(_OPERATOR_CONSTANTS), "(D-1)", "(D+2)"))
        name = rng.choice(("x", "x", "x^2", "x^3", "3x", "num", "exp", "sin", "cos", "e"))
        if name == "num":
            return rng.choice(_CONSTANTS)
        if name == "e":
            return rng.choice(("e^x", "e^-x", "e^(-2*x)", "e^(x/3)", f"e^({rng.choice(_RATES)})"))
        if name in ("exp", "sin", "cos"):
            return f"{name}({rng.choice(_RATES)})"
        return name

    def source(self, depth=3):
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return self.atom()
        kind = rng.choice(("sum", "sum", "product", "juxta", "power", "sign", "div"))
        if kind == "sum":
            return f"{self.source(depth - 1)} {rng.choice('+-')} {self.source(depth - 1)}"
        if kind == "product":
            return f"({self.source(depth - 1)})*({self.source(depth - 1)})"
        if kind == "juxta":
            return f"{rng.choice(('2', '3', '0.5'))}({self.source(depth - 1)})({self.source(depth - 1)})"
        if kind == "sign":
            return f"{rng.choice(('-', '+', '--', '-+'))}({self.source(depth - 1)})"
        if kind == "div" and not self.operator:
            return f"({self.source(depth - 1)})/{rng.choice(_CONSTANTS + ('(1-1)', '1.5', '(-2)'))}"
        n = rng.randint(0, 3)
        if self.big_power:
            self.big_power = False
            n = rng.randint(4, 12)
            return f"({self.source(min(depth - 1, 1))})^{n}"
        return f"({self.source(depth - 1)})^{n}"


def test_rhs_parser_matches_canonical_reference():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(400):
        src = _SourceMaker(rng, operator=False).source()
        got = _outcome(parse_rhs, src)
        assert got == _outcome(_reference_rhs, src), src
        errors += isinstance(got, tuple)
    assert 0 < errors < 100  # the sweep also reaches the rejections


def test_operator_parser_matches_canonical_reference():
    rng = random.Random(61018)
    factored = 0
    for _ in range(400):
        src = _SourceMaker(rng, operator=True).source()
        if rng.random() < 0.3:  # a product of powers, maybe with a leading scalar
            bases = ("D-1", "D+2", "D", "2D-3", "D^2+4", "(D-1)^2+9", "D^2-2", "D^2+D+1")
            src = rng.choice(("-2*", "3", "", "0.5")) + "*".join(
                f"({rng.choice(bases)})^{rng.randint(1, 12)}" for _ in range(rng.randint(1, 3))
            )
        parsed = parse_operator(src)
        poly, fact = _reference_operator(src)
        assert parsed.poly == poly, src
        assert parsed.factored == fact, src
        factored += fact is not None
    assert factored > 100


def test_rejections_match_canonical_reference():
    for src in ("1/x", "x/0", "x/(x-x)", "sin(x^2)", "exp(sin(x))", "e^2*x", "e^(x+1)",
                "sin(2*x*x)", "cos(x)/cos(x)", "(x+1", "x)", "D*x", "exp(i*x)", "2 @ x"):
        assert _outcome(parse_rhs, src) == _outcome(_reference_rhs, src), src
        assert isinstance(_outcome(parse_rhs, src), tuple), src


def test_operator_power_is_binomial():
    assert parse_operator("(D+1)^600").poly.coeffs == tuple(
        gauss(math.comb(600, j)) for j in range(601)
    )


def test_rhs_power_is_binomial():
    assert parse_rhs("(x+1)^300*sin(x)") == RealExpr(
        RealTerm(F(math.comb(300, k)), k, F(0), F(1), "sin") for k in range(301)
    )


def test_parser_power_cliffs_stay_fast():
    # dense vectors take about 0.05 s each; canonical-expression products 1.4-1.7 s
    for parse, src in ((parse_operator, "(D+1)^600"), (parse_rhs, "(x+1)^300*sin(x)")):
        t0 = time.perf_counter()
        parse(src)
        assert time.perf_counter() - t0 < 0.5, src


# --- nesting depth ----------------------------------------------------------


def _nested(depth, kind):
    if kind == "paren":
        return "(" * depth + "x" + ")" * depth
    if kind == "sign":
        return "-" * depth + "x"
    if kind == "exp":  # one function level, the rest parentheses
        return "exp(" + "(" * (depth - 1) + "x" + ")" * (depth - 1) + ")"
    return "e^" + "(" * (depth - 1) + "x" + ")" * (depth - 1)


@pytest.mark.parametrize("kind", ["paren", "sign", "exp", "e"])
def test_solve_accepts_depth_100_and_refuses_101(capsys, kind):
    code = main(["solve", "--op", "D-2", "--rhs", _nested(MAX_DEPTH, kind)])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK and out.strip()
    code = main(["solve", "--op", "D-2", "--rhs", _nested(MAX_DEPTH + 1, kind)])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"nesting deeper than {MAX_DEPTH} levels" in err


def test_deep_hostile_inputs_are_parse_errors():
    for src in ("(" * 200 + "x" + ")" * 200, "-" * 1000 + "x", "exp(" * 300 + "x" + ")" * 300,
                "e^" * 300 + "x"):
        with pytest.raises(ParseError, match="nesting deeper than 100 levels") as info:
            parse_rhs(src)
        assert info.value.start < len(src) // 2
    with pytest.raises(ParseError, match="nesting deeper") as info:
        parse_operator("(" * 101 + "D" + ")" * 101)
    assert (info.value.start, info.value.end) == (100, 101)


def test_batch_answers_around_a_too_deep_item(capsys, monkeypatch):
    problems = [
        {"op": "D-2", "rhs": _nested(MAX_DEPTH, "paren")},
        {"op": "D-2", "rhs": _nested(MAX_DEPTH + 1, "sign")},
        {"op": "(" * (MAX_DEPTH + 1) + "D" + ")" * (MAX_DEPTH + 1), "rhs": "x"},
        {"op": "(" * MAX_DEPTH + "D-2" + ")" * MAX_DEPTH, "rhs": _nested(MAX_DEPTH, "exp")},
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problems": problems})))
    assert main(["batch"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in results] == ["ok", "error", "error", "ok"]
    assert results[0]["answer"] == "-1/2*x - 1/4"
    assert results[3]["answer"] == "-exp(x)"
    assert "nesting deeper than 100 levels" in results[1]["error"]


# --- input size budget ------------------------------------------------------


def test_long_literals_are_refused_at_their_span(capsys):
    src = "x + " + "7" * (MAX_DIGITS + 1) + "*x"
    with pytest.raises(ParseError, match=f"numeric literal longer than {MAX_DIGITS} digits") as info:
        parse_rhs(src)
    assert (info.value.start, info.value.end) == (4, 4 + MAX_DIGITS + 1)
    with pytest.raises(ParseError, match="longer than"):
        parse_operator("D + 1." + "5" * MAX_DIGITS)
    assert parse_rhs("9" * MAX_DIGITS) == rexpr((int("9" * MAX_DIGITS), 0, 0, 0, None))
    assert main(["solve", "--op", "D-1", "--rhs", src]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: 1:5: numeric literal longer than {MAX_DIGITS} digits"
    assert err[2] == "      " + "^" * (MAX_DIGITS + 1)


# (parse, source, offending token, message); each once took seconds to minutes
_HOSTILE = (
    (parse_operator, "(D+1)^3000", "^", f"exponent 3000 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "(x+1)^20000", "^", f"exponent 20000 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "x^99999999999", "^", f"exponent 99999999999 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "(exp(x)+1)^100000", "^", f"exponent 100000 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "(exp(x)+1)^1000", "^", f"over the limit of {MAX_COEFFICIENTS}"),
    (parse_operator, "(D^2+1)^501", "^", f"degree 1002 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "x^600*x^401", "*", f"degree 1001 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "(x+1)^600(x-1)^401", "(", f"degree 1001 is over the limit of {MAX_DEGREE}"),
    (parse_rhs, "(exp(x)+sin(x)+cos(2x))^40*sin(x)", "^", f"over the limit of {MAX_COEFFICIENTS}"),
)


@pytest.mark.parametrize("parse, src, token, message", _HOSTILE)
def test_oversized_inputs_fail_fast_at_their_operator(parse, src, token, message):
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=message) as info:
        parse(src)
    assert time.perf_counter() - t0 < 0.1, src
    assert src[info.value.start:info.value.end] == token
    assert src.rfind(token) == info.value.start


def test_inputs_at_the_limits_parse():
    assert parse_operator("D^1000").poly.degree == MAX_DEGREE
    assert parse_rhs("x^500*x^500") == rexpr((1, MAX_DEGREE, 0, 0, None))
    assert len(parse_rhs("(exp(x)+1)^100").terms) == 101
    assert len(parse_rhs("(x+1)^300*sin(x)").terms) == 301


def test_oversized_inputs_exit_64_and_mark_only_their_batch_item(capsys, monkeypatch):
    assert main(["solve", "--op", "(D+1)^3000", "--rhs", "x"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: 1:6: exponent 3000 is over the limit of {MAX_DEGREE}",
        "  (D+1)^3000",
        "       ^",
    ]
    problems = [{"op": "D-2", "rhs": "x"}, {"op": "D-2", "rhs": "(x+1)^20000"}, {"op": "D^2+1", "rhs": "x"}]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problems": problems})))
    assert main(["batch"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in results] == ["ok", "error", "ok"]
    assert results[1]["error"] == f"1:6: exponent 20000 is over the limit of {MAX_DEGREE}"
