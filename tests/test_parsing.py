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
    ComplexExpr,
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
from diffop.expressions import ORIGIN
from diffop.parsing import (
    MAX_BITS,
    MAX_COEFFICIENTS,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_DIGITS,
    Token,
    _literal,
    _OperatorParser,
    _Parser,
    _RhsParser,
)
import diffop
import diffop.expressions
import diffop.factor
import diffop.parsing
import factorref
from genutil import rand_factored, rand_fraction, rexpr
from termref import TermSum
from vecref import power_ref

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


# numbers and signs anywhere in a product of bases: (source, leading, factors)
_CONSTANT_BASES = [
    ("-2*(D-1)^2", F(-2), (Factor(1, 0, 2),)),
    ("-(D-1)*3*(D+2)^2", F(-3), (Factor(1, 0, 1), Factor(-2, 0, 2))),
    ("(D^2+1)*0.5*2", F(1), (Factor(0, 1, 1),)),
    ("-(-(D-1))^3", F(1), (Factor(1, 0, 3),)),
    ("(D-1)^0*(D+1)", F(1), (Factor(-1, 0, 1),)),
    ("-D^2*(-4)", F(4), (Factor(0, 0, 2),)),
    ("(2D-3)^2*-1", F(-4), (Factor(F(3, 2), 0, 2),)),
    ("0.5*3", F(3, 2), ()),
]


@pytest.mark.parametrize("src, leading, factors", _CONSTANT_BASES, ids=[c[0] for c in _CONSTANT_BASES])
def test_leading_scalar_is_kept(src, leading, factors):
    parsed = parse_operator(src)
    assert parsed.factored.leading == leading
    assert parsed.factored.factors == factors
    assert parsed.factored.expand() == parsed.poly
    assert (parsed.poly, parsed.factored) == _reference_operator(src)


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


@pytest.mark.parametrize(
    "text",
    ["0", "7", "007", "10", "0.5", "0.50", "00.25", "123.000", "3.14159", "9" * 60,
     "1." + "0" * 40 + "1", "0.0", "100.001"],
)
def test_literal_values_equal_fraction_of_the_text(text):
    assert _literal(text) == Fraction(text)
    assert parse_rhs(text) == rexpr((Fraction(text), 0, 0, 0, None))


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


# (flag, source, index of the refused character): superscript two and
# Arabic-Indic three are digits to str.isdigit(), but not to the grammar
_NON_ASCII_DIGITS = [
    ("--rhs", "x\u00b2", 1),
    ("--rhs", "x^\u00b2", 2),
    ("--rhs", "\u0663*x", 0),
    ("--op", "D-\u0663", 2),
    ("--op", "D\u00b2+1", 1),
]


@pytest.mark.parametrize("flag, src, at", _NON_ASCII_DIGITS)
def test_non_ascii_digits_are_unexpected_characters(capsys, monkeypatch, flag, src, at):
    with pytest.raises(ParseError) as info:
        (parse_rhs if flag == "--rhs" else parse_operator)(src)
    message = f"1:{at + 1}: unexpected character {src[at]!r}"
    assert (info.value.start, info.value.end, str(info.value)) == (at, at + 1, message)
    problem = {"op": "D-1", "rhs": "x", flag[2:]: src}
    assert main(["solve", "--op", problem["op"], "--rhs", problem["rhs"]]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}", "  " + src, "  " + " " * at + "^"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problems": [problem]})))
    assert main(["batch"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == [{"status": "error", "error": message}]


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


_TALL_PRIMES = [p for p in range(1000, 10000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
_IRREDUCIBLE = (D**2 - 2, D**2 + D + 1, D**3 - 2, D**4 + 1)


def _sweep_operator(rng):
    """A real operator from the families the divisor search covers in
    reasonable time: zero, repeated, tall and rational roots, conjugate pairs
    with denominators, two pairs sharing (e, v), reducible quadratics, odd
    leading coefficients, constants, and one irreducible extra."""
    P = OperatorPoly((rng.choice([1, -1, 2, -3, F(3, 4), F(-5, 2), F(7, 3)]),))
    if rng.random() < 0.05:
        return P
    if rng.random() < 0.3:
        P = P * D ** rng.randint(1, 3)
    if rng.random() < 0.5:
        P = P * (D - F(rng.choice([-1, 1]) * rng.choice(_TALL_PRIMES), rng.randint(1, 3)))
    for _ in range(rng.randint(0, 3)):
        P = P * (D - rand_fraction(rng, 3)) ** rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        alpha = F(rng.randint(-3, 3), rng.randint(1, 2))
        beta = F(rng.randint(1, 3), rng.randint(1, 2))
        P = P * ((D - alpha) ** 2 + beta * beta) ** rng.randint(1, 2)
    if rng.random() < 0.15:
        P = P * (D**2 + 2 * D + 5) * (D**2 - 2 * D + 5)
    if rng.random() < 0.15:
        P = P * (rng.randint(1, 3) * D - rng.randint(-3, 3)) * (D - rng.randint(-3, 3))
    if rng.random() < 0.3:
        P = P * rng.choice(_IRREDUCIBLE)
    return P


def _factor_outcome(factor, P):
    try:
        return factor(P)
    except UnfactorableOverGaussianRationals as exc:
        return str(exc)


def test_factor_exact_is_one_function_under_each_name():
    assert diffop.factor_exact is diffop.parsing.factor_exact is diffop.factor.factor_exact


def test_factor_exact_matches_divisor_search_reference():
    """The modular factorizer gives the divisor search's exact result: the
    leading coefficient, the factors in order with their multiplicities, or
    the same residual message."""
    rng = random.Random(2718)
    outcomes = []
    for _ in range(400):
        P = _sweep_operator(rng)
        got = _factor_outcome(factor_exact, P)
        assert got == _factor_outcome(factorref.factor_exact, P), P
        outcomes.append(got)
    unfactorable = sum(isinstance(o, str) for o in outcomes)
    assert 60 < unfactorable < 200
    assert sum(isinstance(o, FactoredOperator) and len(o.factors) >= 3 for o in outcomes) > 100


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


# --- closed-form powers of single terms -----------------------------------


def _rand_monomial(rng):
    """(a + bi)/d * x^j * e^(lam x) as a ComplexExpr, lam = (p + qi)/s with
    s > 1 allowed, p and q of either sign, and the zero frequency."""
    s = rng.choice((1, 2, 3, 4, 6, 12))
    p, q = (rng.choice((0, rng.randint(-9, 9))) for _ in range(2))
    g = math.gcd(s, p, q)
    a, b = rng.choice((
        (rng.randint(-20, 20) or 1, 0),
        (0, rng.randint(-20, 20) or 1),
        (rng.randint(-20, 20), rng.randint(1, 20) * rng.choice((-1, 1))),
    ))
    d, j = rng.choice((1, 2, 3, 5, 12, 35)), rng.randint(0, 6)
    h = math.gcd(d, a, b)
    vector = (d // h, [0] * j + [a // h], [0] * j + [b // h])
    return ComplexExpr._of({(s // g, p // g, q // g): vector})


def test_monomial_powers_match_square_and_multiply():
    rng = random.Random(20261018)
    tok = Token("op", "^", 0, 1)
    unreduced = 0
    for _ in range(600):
        u, n = _rand_monomial(rng), rng.randint(0, 40)
        key, = u.freqs
        assert _RhsParser("x").raised(u, n, tok).freqs == power_ref(u.freqs, n), (u, n)
        unreduced += n > 1 and math.gcd(key[0], n * key[1], n * key[2]) > 1
    assert unreduced > 50  # keys whose n-th multiple needs reducing are exercised


def _formed_calls(monkeypatch, parse, src):
    calls = []
    formed = _Parser.formed

    def counted(self, u, v, tok):
        calls.append(src)
        return formed(self, u, v, tok)

    monkeypatch.setattr(_Parser, "formed", counted)
    parse(src)
    monkeypatch.setattr(_Parser, "formed", formed)
    return len(calls)


@pytest.mark.parametrize(
    "parse, base, power",
    [
        (parse_rhs, "x", "x^1000"),
        (parse_operator, "D", "D^1000"),
        (parse_rhs, "3*exp(-x/2)", "(3*exp(-x/2))^40"),
    ],
)
def test_single_term_powers_form_no_product(monkeypatch, parse, base, power):
    assert _formed_calls(monkeypatch, parse, power) == _formed_calls(monkeypatch, parse, base)


def test_powers_of_sums_still_form_products(monkeypatch):
    assert _formed_calls(monkeypatch, parse_rhs, "(x+1)") == 0
    assert _formed_calls(monkeypatch, parse_rhs, "(x+1)^300") > 0


def test_products_by_a_number_convolve_nothing(monkeypatch):
    calls = []
    convolved = diffop.expressions._convolved

    def counted(a, b):
        calls.append((a, b))
        return convolved(a, b)

    monkeypatch.setattr(diffop.expressions, "_convolved", counted)
    value = parse_rhs("(x+1)*2 - 1/3*sin(2x)*5 + 0.5*x^7*exp(-x)*4").to_complex()
    number = ComplexExpr._of({ORIGIN: (3, [2], [-1])})  # (2 - i)/3
    assert value * number == number * value == value.scale(GaussianRational(F(2, 3), F(-1, 3)))
    assert -value == value.scale(-1) != value
    assert calls == []
    parse_rhs("(x+1)*(x-1)")
    assert calls  # the counter sees a product of two sums


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
    pytest.param(
        parse_rhs, "(" + "7" * 400 + ")^1000*x", "^", f"over the limit of {MAX_BITS} bits",
        id="400-digit^1000",
    ),
    pytest.param(
        parse_rhs, "*".join(["9" * MAX_DIGITS] * 5), "*", f"over the limit of {MAX_BITS} bits",
        id="five-4300-digit-factors",
    ),
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
    assert parse_operator("(D+1)^1000").poly.coeff(500).re == math.comb(1000, 500)
    big = int("7" * MAX_DIGITS)
    assert parse_rhs(f"({big})^2*x") == rexpr((big * big, 1, 0, 0, None))


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
