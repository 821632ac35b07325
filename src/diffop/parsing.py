"""Text front end: the tokenizer and the two grammars.

Operators are polynomials in D; right-hand sides are functions of x built
from rationals, powers of x, exp/sin/cos with rational rates, and sums,
differences, and products of those.  Both share one precedence core:

    ^   >   unary -   >   * and juxtaposition   >   + and -

Juxtaposition multiplies ("3x", "2D^3", "(x-1)(x+1)").  Exponents are
non-negative integer literals, except that `e^...` takes a rational
multiple of x.  Decimal literals are read exactly ("0.25" is 1/4).
Division is only by nonzero rational constants, and not at all inside
operators.  Nesting (parenthesized groups, function and ``e^`` arguments,
unary signs) is refused past MAX_DEPTH levels; literals longer than
MAX_DIGITS digits, exponents and degrees above MAX_DEGREE, products that
could form more than MAX_COEFFICIENTS coefficients, and products whose
factors hold more than MAX_BITS bits are refused too.  Every rejection
points at a span of the source text.

Both grammars compute on ``ComplexExpr`` values, whose Gaussian-integer
vectors make sums and products plain integer work.  An operator is the
frequency 0 alone, its vector indexed by the power of D; ``OperatorPoly``
wraps that vector of the finished value as it is.  A term costs what its
value costs: a power of a single term (a + bi)/d * x^j * e^(lam x) is formed
in closed form after the same limits are checked, a product by a number
scales the other factor's vector, and only sums of terms are raised by
square-and-multiply.

An operator that is a product of powers of bases of degree <= 2 keeps its
bases (a number is a base of degree 0, a minus sign the base -1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expressions import (
    ORIGIN,
    ComplexExpr,
    InternalInvariantError,
    RealExpr,
    _convolved,
    _reduced,
)
from .factor import FactoredOperator, UnfactorableOverGaussianRationals
# the benchmark's span "parsing.factor_exact" looks the function up here
from .factor import factor_exact  # noqa: F401
from .operators import OperatorPoly
from .rationals import power

_FUNCTIONS = ("sin", "cos", "exp")
_IDENTS = ("D", "x", "e") + _FUNCTIONS
# A numeric literal, a trailing "." included so it can be refused.  ASCII digits
# only: str.isdigit() also admits superscripts and other scripts' digits.
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?")

# Deepest nesting accepted.  The grammar recurses once per level, so this
# keeps hostile input like "(((...x...)))" far below Python's recursion limit.
MAX_DEPTH = 100
# Largest exponent, and largest degree in x or D of a power or product.
MAX_DEGREE = 1000
# Most coefficients a product may hold: pairs of frequencies of its factors
# times its degree plus one.  With MAX_DEGREE it bounds parsing time and memory.
MAX_COEFFICIENTS = 10_000
# Longest numeric literal: CPython's default limit on int/str conversion,
# which the CLI lifts while it runs so that long answers can be printed.
MAX_DIGITS = 4300
# Most bits the factors of a product may hold together, each counted by its
# largest numerator part or denominator (a power u^n counts as n factors u),
# so that no product or power forms coefficients much past 20,000 digits.
# Admits a MAX_DIGITS-digit literal to the fourth power.
MAX_BITS = 65_536


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | lparen | rparen
    text: str
    start: int
    end: int


class ParseError(ValueError):
    """Rejection with a byte span into the source and a line:col prefix."""

    def __init__(self, source: str, start: int, end: int, message: str):
        self.source = source
        self.start = start
        self.end = end
        self.message = message
        self.line = source.count("\n", 0, start) + 1
        self.col = start - source.rfind("\n", 0, start)
        super().__init__(f"{self.line}:{self.col}: {message}")


def _tokenize(src: str) -> list:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = _NUMBER.match(src, i).end()
            if src[j - 1] == ".":
                raise ParseError(src, i, j, "malformed decimal literal")
            if j - i - ("." in src[i:j]) > MAX_DIGITS:
                raise ParseError(src, i, j, f"numeric literal longer than {MAX_DIGITS} digits")
            tokens.append(Token("number", src[i:j], i, j))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            tokens.append(Token("ident", src[i:j], i, j))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, i, i + 1))
            i += 1
            continue
        if c == "(":
            tokens.append(Token("lparen", c, i, i + 1))
            i += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", c, i, i + 1))
            i += 1
            continue
        raise ParseError(src, i, i + 1, f"unexpected character {c!r}")
    return tokens


class _Parser:
    """Shared mechanics and the checked algebra of ComplexExpr values;
    subclasses supply the atoms (``const``, ``ident``) and ``div``."""

    atom_set = "a value"

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    @staticmethod
    def describe(tok: Optional[Token]) -> str:
        return f"'{tok.text}'" if tok is not None else "end of input"

    def fail(self, tok: Optional[Token], message: str):
        if tok is None:
            at = len(self.src)
            raise ParseError(self.src, at, at, message)
        raise ParseError(self.src, tok.start, tok.end, message)

    def fail_expected(self, expected: str):
        tok = self.peek()
        self.fail(tok, f"expected {expected}, found {self.describe(tok)}")

    def expect_rparen(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "rparen":
            self.fail_expected("')'")
        return self.advance()

    def descend(self, tok: Token) -> None:
        """Enter the nesting level tok opens; the caller leaves it by depth -= 1."""
        if self.depth == MAX_DEPTH:
            self.fail(tok, f"nesting deeper than {MAX_DEPTH} levels")
        self.depth += 1

    # -- grammar ----------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            self.fail(tok, f"expected an operator or end of input, found {self.describe(tok)}")
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = self.add(value, rhs) if tok.text == "+" else self.sub(value, rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = self.mul(value, self.factor(), tok)
            elif tok.kind == "op" and tok.text == "/":
                self.advance()
                value = self.div(value, self.factor(), tok)
            elif tok.kind in ("number", "ident", "lparen"):
                # juxtaposition: same binding as '*'
                value = self.mul(value, self.power(), tok)
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.advance()
            self.descend(tok)
            value = self.factor()
            self.depth -= 1
            return self.neg(value) if tok.text == "-" else value
        return self.power()

    def power(self):
        value = self.primary()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.advance()
            return self.pow(value, self.integer_exponent(), tok)
        return value

    def integer_exponent(self) -> int:
        tok = self.peek()
        if tok is None or tok.kind != "number":
            self.fail_expected("a non-negative integer exponent")
        if "." in tok.text:
            self.fail(tok, "exponent must be a non-negative integer")
        self.advance()
        return int(tok.text)

    def primary(self):
        tok = self.peek()
        if tok is None:
            self.fail_expected(self.atom_set)
        if tok.kind == "number":
            self.advance()
            return self.const(_literal(tok.text))
        if tok.kind == "lparen":
            self.advance()
            self.descend(tok)
            value = self.expr()
            self.expect_rparen()
            self.depth -= 1
            return value
        if tok.kind == "ident":
            self.advance()
            return self.ident(tok)
        self.fail_expected(self.atom_set)

    # -- value algebra on ComplexExpr, with the size limits -------------

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def product(self, u: ComplexExpr, v: ComplexExpr, tok: Token) -> ComplexExpr:
        """u * v, refused at tok before it is formed when its factors hold more
        than MAX_BITS bits together, or when ``formed`` refuses it."""
        self.bounded(_bits(u) + _bits(v), tok)
        return self.formed(u, v, tok)

    def formed(self, u: ComplexExpr, v: ComplexExpr, tok: Token) -> ComplexExpr:
        """u * v, refused at tok past MAX_DEGREE, or before it is formed when its
        pairs of frequencies could hold more than MAX_COEFFICIENTS coefficients."""
        degree = _degree(u) + _degree(v)
        if degree > MAX_DEGREE:
            self.fail(tok, f"degree {degree} is over the limit of {MAX_DEGREE}")
        size = len(u.freqs) * len(v.freqs) * (degree + 1)
        if size > MAX_COEFFICIENTS:
            self.fail(tok, f"product of {size} coefficients is over the limit of {MAX_COEFFICIENTS}")
        return u * v

    def raised(self, u: ComplexExpr, n: int, tok: Token) -> ComplexExpr:
        """u^n, refused up front past MAX_DEGREE or when n factors u would hold
        more than MAX_BITS bits.  A monomial (a + bi)/d * x^j * e^(lam x) is
        raised in closed form, (a + bi)^n/d^n * x^(jn) * e^(n lam x); any
        other u by square-and-multiply, each product checked as in ``formed``
        (whose coefficient limit no monomial's squarings could reach)."""
        if n > MAX_DEGREE:
            self.fail(tok, f"exponent {n} is over the limit of {MAX_DEGREE}")
        if n * _degree(u) > MAX_DEGREE:
            self.fail(tok, f"degree {n * _degree(u)} is over the limit of {MAX_DEGREE}")
        self.bounded(n * _bits(u), tok)
        if len(u.freqs) == 1:
            ((s, p, q), (d, re, im)), = u.freqs.items()
            if not any(re[:-1]) and not any(im[:-1]):
                a, b = _gaussian_power(re[-1], im[-1], n)
                g = math.gcd(s, n * p, n * q)
                zeros = [0] * (n * (len(re) - 1))
                return ComplexExpr._of({
                    (s // g, n * p // g, n * q // g): _reduced(d**n, zeros + [a], zeros + [b])
                })
        return power(u, n, _ONE, lambda a, b: self.formed(a, b, tok))

    def bounded(self, bits: int, tok: Token) -> None:
        if bits > MAX_BITS:
            self.fail(tok, f"{bits}-bit coefficients are over the limit of {MAX_BITS} bits")

    mul, pow = product, raised  # the operator grammar wraps them


# -- values ------------------------------------------------------------------


def _literal(text: str):
    """The exact value of a numeric literal: an int, or a Fraction for "a.b"."""
    whole, dot, tail = text.partition(".")
    return Fraction(int(whole + tail), 10 ** len(tail)) if dot else int(text)


def _constant(q: Fraction) -> ComplexExpr:
    return ComplexExpr._of({ORIGIN: (q.denominator, [q.numerator], [0])} if q else {})


_ONE = _constant(Fraction(1))
_MINUS_ONE = -_ONE
_VARIABLE = ComplexExpr._of({ORIGIN: (1, [0, 1], [0, 0])})  # x in a function, D in an operator


def _gaussian_power(a: int, b: int, n: int) -> tuple:
    """(a + bi)^n as a pair of ints."""
    if not b:
        return a**n, 0

    def times(z, w):
        return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]

    return power((a, b), n, (1, 0), times)


def _degree(value: ComplexExpr) -> int:
    return max((len(re) for _, re, _ in value.freqs.values()), default=1) - 1


def _bits(value: ComplexExpr) -> int:
    """Bit length of the largest denominator or numerator part in value."""
    top = 0
    for d, re, im in value.freqs.values():
        top = max(top, d, max(re), -min(re), max(im), -min(im))
    return top.bit_length()


# -- right-hand sides -------------------------------------------------------


class _RhsParser(_Parser):
    atom_set = "a number, x, sin, cos, exp, e, or '('"

    def const(self, q):
        return _constant(q)

    def variable(self):
        return _VARIABLE

    def div(self, a, b, tok):
        if not b.freqs:
            self.fail(tok, "division by zero")
        v = b.freqs.get(ORIGIN) if len(b.freqs) == 1 else None
        if v is None or len(v[1]) != 1:
            self.fail(tok, "can only divide by a nonzero rational constant")
        # a real function's frequency-0 part is real, so b = v[1][0] / v[0]
        return a * _constant(Fraction(v[0], v[1][0]))

    def ident(self, tok):
        if tok.text == "x":
            return self.variable()
        if tok.text in _FUNCTIONS:
            opening = self.peek()
            if opening is None or opening.kind != "lparen":
                self.fail_expected(f"'(' after {tok.text}")
            self.advance()
            self.descend(tok)
            arg = self.expr()
            self.expect_rparen()
            self.depth -= 1
            rate = self._linear_rate(arg, tok)
            return self._exponential(rate) if tok.text == "exp" else self._trig(tok.text, rate)
        if tok.text == "e":
            caret = self.peek()
            if caret is None or caret.kind != "op" or caret.text != "^":
                self.fail_expected("'^' after e")
            self.advance()
            self.descend(tok)
            arg = self.factor()
            self.depth -= 1
            rate = self._linear_rate(arg, tok)
            return self._exponential(rate)
        if tok.text == "D":
            self.fail(tok, "the operator symbol D cannot appear in a function of x")
        self.fail(tok, f"unknown name {tok.text!r}")

    def _linear_rate(self, arg: ComplexExpr, tok: Token) -> Fraction:
        """The rational c with arg = c*x; anything else is outside the family."""
        if not arg.freqs:
            return Fraction(0)
        v = arg.freqs.get(ORIGIN) if len(arg.freqs) == 1 else None
        if v is not None:
            d, re, im = v
            if len(re) == 2 and not re[0] and not any(im):
                return Fraction(re[1], d)
        self.fail(tok, f"argument of {tok.text} must be a rational multiple of x")

    @staticmethod
    def _exponential(rate: Fraction) -> ComplexExpr:
        return ComplexExpr._of({(rate.denominator, rate.numerator, 0): (1, [1], [0])})

    @staticmethod
    def _trig(name: str, rate: Fraction) -> ComplexExpr:
        """cos = (e^(i rate x) + e^(-i rate x)) / 2, sin = (e^(i rate x) - e^(-i rate x)) / 2i."""
        up, down = (rate.denominator, 0, rate.numerator), (rate.denominator, 0, -rate.numerator)
        if name == "cos":
            return ComplexExpr._of({up: (2, [1], [0])}) + ComplexExpr._of({down: (2, [1], [0])})
        return ComplexExpr._of({up: (2, [0], [-1])}) + ComplexExpr._of({down: (2, [0], [1])})


def parse_rhs(src: str) -> RealExpr:
    """Parse a function of x; the result is exact and conjugation-symmetric."""
    return _RhsParser(src).parse().to_real()


# -- operators ---------------------------------------------------------------


@dataclass(frozen=True)
class _OpVal:
    """Operator value plus the bases of degree <= 2 it is a product of, each a
    ComplexExpr with its multiplicity (a number is a base of degree 0); parts
    is None once the value is no such product."""

    poly: ComplexExpr
    parts: Optional[tuple]

    @staticmethod
    def wrap(poly: ComplexExpr) -> "_OpVal":
        """Re-derive factor structure from a finished polynomial."""
        if poly.freqs and len(poly.freqs[ORIGIN][1]) <= 3:
            return _OpVal(poly, ((poly, 1),))
        return _OpVal(poly, None)


@dataclass(frozen=True)
class ParsedOperator:
    """Expanded operator plus the factored form when one was recoverable."""

    poly: OperatorPoly
    factored: Optional[FactoredOperator]


class _OperatorParser(_Parser):
    atom_set = "a number, D, or '('"

    def const(self, q):
        value = _constant(q)
        return _OpVal(value, ((value, 1),))

    def variable(self):
        return _OpVal(_VARIABLE, ((_VARIABLE, 1),))

    def ident(self, tok):
        if tok.text == "D":
            return self.variable()
        if tok.text == "x":
            self.fail(tok, "the variable x cannot appear inside an operator")
        if tok.text in _FUNCTIONS or tok.text == "e":
            self.fail(tok, f"{tok.text} cannot appear inside an operator")
        self.fail(tok, f"unknown name {tok.text!r}")

    def add(self, a, b):
        return _OpVal.wrap(a.poly + b.poly)

    def sub(self, a, b):
        return _OpVal.wrap(a.poly - b.poly)

    def neg(self, a):
        return _OpVal(-a.poly, None if a.parts is None else a.parts + ((_MINUS_ONE, 1),))

    def mul(self, a, b, tok):
        poly = self.product(a.poly, b.poly, tok)
        return _OpVal(poly, None if a.parts is None or b.parts is None else a.parts + b.parts)

    def div(self, a, b, tok):
        self.fail(tok, "division is not allowed inside an operator")

    def pow(self, a, n, tok):
        if n == 0:
            return self.const(Fraction(1))
        poly = self.raised(a.poly, n, tok)
        return _OpVal(poly, None if a.parts is None else tuple((base, m * n) for base, m in a.parts))


def parse_operator(src: str) -> ParsedOperator:
    """Parse an operator polynomial, keeping factored structure if present.

    The factored form survives a top-level product of powers of degree <= 2
    polynomials whose roots are expressible over Q(i); otherwise only the
    expansion is returned.
    """
    value = _OperatorParser(src).parse()
    poly = OperatorPoly._of(value.poly.freqs.get(ORIGIN))
    if value.parts is None or poly.is_zero():
        return ParsedOperator(poly, None)
    bases = [(OperatorPoly._of(base.freqs[ORIGIN]), m) for base, m in value.parts]
    try:
        return ParsedOperator(poly, FactoredOperator.from_bases(1, bases))
    except UnfactorableOverGaussianRationals:
        return ParsedOperator(poly, None)
