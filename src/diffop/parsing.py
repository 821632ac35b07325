"""Text front end: tokenizer, the two grammars, and exact factorization.

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
MAX_DIGITS digits, exponents and degrees above MAX_DEGREE, and products
that could form more than MAX_COEFFICIENTS coefficients are refused too.
Every rejection points at a span of the source text.

Both grammars compute on ``ComplexExpr`` values, whose Gaussian-integer
vectors make sums and products plain integer work.  An operator is the
frequency 0 alone, its vector indexed by the power of D; ``OperatorPoly``
is built once, from the finished value.

``factor_exact`` splits a real-rational operator into rational linear
factors and irreducible quadratics (D-a)^2 + b^2 with rational a and b:
rational-root search over divisor candidates, then a bounded search over
primitive integer quadratic divisors.  Roots outside Q(i) raise
UnfactorableOverGaussianRationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expressions import ORIGIN, ComplexExpr, RealExpr
from .operators import (
    D,
    FactoredOperator,
    OperatorPoly,
    UnfactorableOverGaussianRationals,
)
from .rationals import power

_FUNCTIONS = ("sin", "cos", "exp")
_IDENTS = ("D", "x", "e") + _FUNCTIONS

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
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                if j + 1 >= n or not src[j + 1].isdigit():
                    raise ParseError(src, i, j + 1, "malformed decimal literal")
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
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
            return self.const(Fraction(tok.text))
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
        """u^n by square-and-multiply, each product checked as in ``product``."""
        if n > MAX_DEGREE:
            self.fail(tok, f"exponent {n} is over the limit of {MAX_DEGREE}")
        if n * _degree(u) > MAX_DEGREE:
            self.fail(tok, f"degree {n * _degree(u)} is over the limit of {MAX_DEGREE}")
        return power(u, n, _ONE, lambda a, b: self.product(a, b, tok))

    mul, pow = product, raised  # the operator grammar wraps them


# -- values ------------------------------------------------------------------


def _constant(q: Fraction) -> ComplexExpr:
    return ComplexExpr._of({ORIGIN: (q.denominator, [q.numerator], [0])} if q else {})


_ONE = _constant(Fraction(1))
_VARIABLE = ComplexExpr._of({ORIGIN: (1, [0, 1], [0, 0])})  # x in a function, D in an operator


def _degree(value: ComplexExpr) -> int:
    return max((len(re) for _, re, _ in value.freqs.values()), default=1) - 1


def _operator(value: ComplexExpr) -> OperatorPoly:
    """The operator whose coefficients are the frequency-0 vector, indexed by the power of D."""
    if not value.freqs:
        return OperatorPoly()
    d, re, _ = value.freqs[ORIGIN]
    return OperatorPoly(Fraction(x, d) for x in re)


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
    """Operator value plus the factored structure seen so far, if any.

    poly and the bases in parts are ComplexExpr values.  parts is None once the
    shape stops being a scalar times a product of low-degree polynomials;
    scalar is meaningful only when parts is not None.
    """

    poly: ComplexExpr
    scalar: Optional[Fraction]
    parts: Optional[tuple]

    @staticmethod
    def wrap(poly: ComplexExpr) -> "_OpVal":
        """Re-derive factor structure from a finished polynomial."""
        if not poly.freqs:
            return _OpVal(poly, None, None)
        d, re, _ = poly.freqs[ORIGIN]
        if len(re) == 1:
            return _OpVal(poly, Fraction(re[0], d), ())
        if len(re) <= 3:
            return _OpVal(poly, Fraction(1), ((poly, 1),))
        return _OpVal(poly, None, None)


@dataclass(frozen=True)
class ParsedOperator:
    """Expanded operator plus the factored form when one was recoverable."""

    poly: OperatorPoly
    factored: Optional[FactoredOperator]


class _OperatorParser(_Parser):
    atom_set = "a number, D, or '('"

    def const(self, q):
        return _OpVal(_constant(q), q, ())

    def variable(self):
        return _OpVal(_VARIABLE, Fraction(1), ((_VARIABLE, 1),))

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
        if a.parts is None:
            return _OpVal(-a.poly, None, None)
        return _OpVal(-a.poly, -a.scalar, a.parts)

    def mul(self, a, b, tok):
        poly = self.product(a.poly, b.poly, tok)
        if a.parts is None or b.parts is None:
            return _OpVal(poly, None, None)
        return _OpVal(poly, a.scalar * b.scalar, a.parts + b.parts)

    def div(self, a, b, tok):
        self.fail(tok, "division is not allowed inside an operator")

    def pow(self, a, n, tok):
        if n == 0:
            return self.const(Fraction(1))
        poly = self.raised(a.poly, n, tok)
        if a.parts is None:
            return _OpVal(poly, None, None)
        return _OpVal(poly, a.scalar**n, tuple((base, m * n) for base, m in a.parts))


def parse_operator(src: str) -> ParsedOperator:
    """Parse an operator polynomial, keeping factored structure if present.

    The factored form survives a top-level product of powers of degree <= 2
    polynomials whose roots are expressible over Q(i); otherwise only the
    expansion is returned.
    """
    value = _OperatorParser(src).parse()
    poly = _operator(value.poly)
    factored = None
    if value.parts is not None and not poly.is_zero():
        try:
            factored = FactoredOperator.from_bases(
                value.scalar, [(_operator(base), m) for base, m in value.parts]
            )
        except UnfactorableOverGaussianRationals:
            factored = None
    return ParsedOperator(poly, factored)


# -- exact factorization over Q(i) -------------------------------------------


def _divisors(n: int) -> list:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _integerize(coeffs: list) -> list:
    """Scale rational coefficients to a primitive integer vector."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = math.gcd(*(abs(v) for v in ints))
    return [v // content for v in ints]

def _eval_frac(coeffs: list, r: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _divmod_monic(num: list, den: list):
    """Long division by a monic polynomial, both lists low to high."""
    num = list(num)
    d = len(den) - 1
    quot = [Fraction(0)] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        q = num[i]
        if not q:
            continue
        quot[i - d] = q
        for j in range(d + 1):
            num[i - d + j] -= q * den[j]
    rem = num[:d]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _find_rational_root(work: list) -> Optional[Fraction]:
    """First root p/q with p | trailing and q | leading of the primitive form."""
    ints = _integerize(work)
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if _eval_frac(work, r) == 0:
                    return r
    return None


def _find_rational_quadratic(work: list) -> Optional[tuple]:
    """Monic (c0, c1) with D^2 + c1 D + c0 dividing work, roots in Q(i).

    A primitive integer divisor e D^2 + u D + v must have e | leading and
    v | trailing; complex-conjugate roots force e, v the same sign, and the
    imaginary part is rational exactly when 4ev - u^2 is a perfect square.
    """
    ints = _integerize(work)
    for e in _divisors(ints[-1]):
        for v in _divisors(ints[0]):
            u_limit = math.isqrt(4 * e * v - 1)
            for u in range(-u_limit, u_limit + 1):
                d = 4 * e * v - u * u
                s = math.isqrt(d)
                if s * s != d:
                    continue
                c1, c0 = Fraction(u, e), Fraction(v, e)
                _, rem = _divmod_monic(work, [c0, c1, Fraction(1)])
                if not rem:
                    return c0, c1
    return None


def factor_exact(P: OperatorPoly) -> FactoredOperator:
    """Complete factorization over Q(i), or UnfactorableOverGaussianRationals.

    Output factors are rational linear terms and irreducible quadratics
    (D-a)^2 + b^2; conjugate Gaussian-rational root pairs appear as the
    latter.  The expansion of the result reproduces P exactly.
    """
    if P.is_zero():
        raise ValueError("cannot factor the zero operator")
    if not P.is_real():
        raise ValueError("factorization expects real coefficients")
    coeffs = [c.re for c in P.coeffs]
    leading = coeffs[-1]
    work = [c / leading for c in coeffs]
    bases = []
    k = 0
    while work[k] == 0:
        k += 1
    if k:
        bases.append((D, k))
        work = work[k:]
    while len(work) > 1:
        root = _find_rational_root(work)
        if root is not None:
            base = [-root, Fraction(1)]
            mult = 0
            while True:
                quot, rem = _divmod_monic(work, base)
                if rem:
                    break
                work = quot
                mult += 1
            bases.append((OperatorPoly(base), mult))
            continue
        if len(work) > 2:
            quad = _find_rational_quadratic(work)
            if quad is not None:
                c0, c1 = quad
                base = [c0, c1, Fraction(1)]
                mult = 0
                while True:
                    quot, rem = _divmod_monic(work, base)
                    if rem:
                        break
                    work = quot
                    mult += 1
                bases.append((OperatorPoly(base), mult))
                continue
        residual = " + ".join(
            f"({c})*D^{j}" if j else f"({c})"
            for j, c in enumerate(work)
            if c
        )
        raise UnfactorableOverGaussianRationals(
            f"no further factor with roots in Q(i) divides {residual}"
        )
    return FactoredOperator.from_bases(leading, bases)
