"""Text front end: tokenizer, the two grammars, and exact factorization.

Operators are polynomials in D; right-hand sides are functions of x built
from rationals, powers of x, exp/sin/cos with rational rates, and sums,
differences, and products of those.  Both share one precedence core:

    ^   >   unary -   >   * and juxtaposition   >   + and -

Juxtaposition multiplies ("3x", "2D^3", "(x-1)(x+1)").  Exponents are
non-negative integer literals, except that `e^...` takes a rational
multiple of x.  Decimal literals are read exactly ("0.25" is 1/4).
Division is only by nonzero rational constants, and not at all inside
operators.  Every rejection points at a span of the source text.

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

from .expressions import ComplexExpr, RealExpr
from .operators import (
    D,
    FactoredOperator,
    OperatorPoly,
    UnfactorableOverGaussianRationals,
)
from .rationals import GaussianRational, gauss, power

_FUNCTIONS = ("sin", "cos", "exp")
_IDENTS = ("D", "x", "e") + _FUNCTIONS


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
    """Shared mechanics; subclasses supply the value algebra and atoms."""

    atom_set = "a value"

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

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
                value = self.mul(value, self.factor())
            elif tok.kind == "op" and tok.text == "/":
                self.advance()
                value = self.div(value, self.factor(), tok)
            elif tok.kind in ("number", "ident", "lparen"):
                # juxtaposition: same binding as '*'
                value = self.mul(value, self.power())
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.advance()
            return self.neg(self.factor())
        if tok is not None and tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        value = self.primary()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.advance()
            return self.pow(value, self.integer_exponent())
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
            value = self.expr()
            self.expect_rparen()
            return value
        if tok.kind == "ident":
            self.advance()
            return self.ident(tok)
        self.fail_expected(self.atom_set)

    # -- value algebra, supplied by subclasses --------------------------

    def const(self, q: Fraction):
        raise NotImplementedError

    def ident(self, tok: Token):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b, tok: Token):
        raise NotImplementedError

    def pow(self, a, n: int):
        raise NotImplementedError


# -- right-hand sides -------------------------------------------------------


def _const_expr(q: Fraction) -> ComplexExpr:
    return ComplexExpr(((GaussianRational(q), 0, gauss(0)),))


_X = ComplexExpr(((gauss(1), 1, gauss(0)),))
_ONE = _const_expr(Fraction(1))


class _RhsParser(_Parser):
    atom_set = "a number, x, sin, cos, exp, e, or '('"

    def const(self, q):
        return _const_expr(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return a.scale(gauss(-1))

    def mul(self, a, b):
        return a * b

    def div(self, a, b, tok):
        if b.is_zero():
            self.fail(tok, "division by zero")
        if len(b.terms) == 1 and b.terms[0].k == 0 and b.terms[0].lam.is_zero():
            return a.scale(b.terms[0].coeff.inverse())
        self.fail(tok, "can only divide by a nonzero rational constant")

    def pow(self, a, n):
        return power(a, n, _ONE)

    def ident(self, tok):
        if tok.text == "x":
            return _X
        if tok.text in _FUNCTIONS:
            opening = self.peek()
            if opening is None or opening.kind != "lparen":
                self.fail_expected(f"'(' after {tok.text}")
            self.advance()
            arg = self.expr()
            self.expect_rparen()
            rate = self._linear_rate(arg, tok)
            return self._exponential(rate) if tok.text == "exp" else self._trig(tok.text, rate)
        if tok.text == "e":
            caret = self.peek()
            if caret is None or caret.kind != "op" or caret.text != "^":
                self.fail_expected("'^' after e")
            self.advance()
            arg = self.factor()
            rate = self._linear_rate(arg, tok)
            return self._exponential(rate)
        if tok.text == "D":
            self.fail(tok, "the operator symbol D cannot appear in a function of x")
        self.fail(tok, f"unknown name {tok.text!r}")

    def _linear_rate(self, arg: ComplexExpr, tok: Token) -> Fraction:
        """The rational c with arg = c*x; anything else is outside the family."""
        if arg.is_zero():
            return Fraction(0)
        if len(arg.terms) == 1:
            t = arg.terms[0]
            if t.k == 1 and t.lam.is_zero() and t.coeff.is_real():
                return t.coeff.re
        self.fail(tok, f"argument of {tok.text} must be a rational multiple of x")

    @staticmethod
    def _exponential(rate: Fraction) -> ComplexExpr:
        return ComplexExpr(((gauss(1), 0, gauss(rate)),))

    @staticmethod
    def _trig(name: str, rate: Fraction) -> ComplexExpr:
        up = gauss(0, rate)
        down = gauss(0, -rate)
        if name == "cos":
            half = gauss(Fraction(1, 2))
            return ComplexExpr(((half, 0, up), (half, 0, down)))
        half = gauss(1) / gauss(0, 2)
        return ComplexExpr(((half, 0, up), (-half, 0, down)))


def parse_rhs(src: str) -> RealExpr:
    """Parse a function of x; the result is exact and conjugation-symmetric."""
    return _RhsParser(src).parse().to_real()


# -- operators ---------------------------------------------------------------


@dataclass(frozen=True)
class _OpVal:
    """Operator value plus the factored structure seen so far, if any.

    parts is None once the shape stops being a scalar times a product of
    low-degree polynomials; scalar is meaningful only when parts is not None.
    """

    poly: OperatorPoly
    scalar: Optional[Fraction]
    parts: Optional[tuple]

    @staticmethod
    def wrap(poly: OperatorPoly) -> "_OpVal":
        """Re-derive factor structure from a finished polynomial."""
        if poly.degree == 0 and poly.is_real():
            return _OpVal(poly, poly.coeffs[0].re, ())
        if poly.is_zero():
            return _OpVal(poly, None, None)
        if poly.degree <= 2 and poly.is_real():
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
        return _OpVal(OperatorPoly((q,)), q, ())

    def ident(self, tok):
        if tok.text == "D":
            return _OpVal(D, Fraction(1), ((D, 1),))
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

    def mul(self, a, b):
        poly = a.poly * b.poly
        if a.parts is None or b.parts is None:
            return _OpVal(poly, None, None)
        return _OpVal(poly, a.scalar * b.scalar, a.parts + b.parts)

    def div(self, a, b, tok):
        self.fail(tok, "division is not allowed inside an operator")

    def pow(self, a, n):
        if n == 0:
            return self.const(Fraction(1))
        poly = a.poly**n
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
    factored = None
    if value.parts is not None and not value.poly.is_zero():
        try:
            factored = FactoredOperator.from_bases(value.scalar, value.parts)
        except UnfactorableOverGaussianRationals:
            factored = None
    return ParsedOperator(value.poly, factored)


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
