"""Canonical forms for forcing terms and solutions.

Everything the engine touches is a finite sum of terms

    c * x^k * e^(lam*x)          with c, lam in Q(i), k >= 0,

held in ``ComplexExpr``.  Real inputs with sines and cosines are folded into
this form through Euler's formula, which turns trig bookkeeping into plain
field arithmetic in the exponent.  A real value is the conjugation-symmetric
``ComplexExpr`` it equals, held by ``RealExpr``.  Its fold reads each group
x^k * e^(a*x) * {1, cos(b*x), sin(b*x)}, rational a and b >= 0, straight off
one vector as integer numerators over its denominator; ``terms`` flattens
the fold into terms with rational coefficients, once, when first read.

A ``ComplexExpr`` is dense by frequency: each lam holds the polynomial that
multiplies e^(lam x) as Gaussian-integer coefficient vectors over one common
denominator.  Sums, differences and products are then integer vector work
with one gcd per result vector (the fraction-free scheme of von zur Gathen
and Gerhard, *Modern Computer Algebra*, ch. 5), and so are the parser, the
solver's per-frequency steps and ``OperatorPoly``, whose coefficients are
one such vector and whose ``apply`` is D on them, which all use the vector
helpers defined here.

Becoming real doubles as an internal consistency check: an expression
produced from real data must be fixed by conjugation, so ``to_real``
verifies the coefficient of e^((a-bi)x) is the conjugate of the coefficient
of e^((a+bi)x) and raises ``ConjugateSymmetryError`` otherwise.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Optional

from .rationals import ZERO, GaussianRational, Record

_F0 = Fraction(0)


class InternalInvariantError(Exception):
    """An invariant of the engine broke: a bug in diffop, never bad input."""


class ConjugateSymmetryError(InternalInvariantError):
    """A supposedly real expression was not conjugation-symmetric."""


# -- Gaussian-integer vectors --------------------------------------------------
#
# A vector (d, re, im) stands for the coefficients (re[k] + im[k] i) / d,
# k = 0, 1, ...; a frequency key (s, p, q) stands for lam = (p + qi) / s over
# the least s, so keys hash and add as plain ints.


def _integer_parts(values) -> tuple:
    """(d, re, im) with values[j] = (re[j] + im[j] i) / d over the least d."""
    d = 1
    for z in values:
        d = math.lcm(d, z.re.denominator, z.im.denominator)
    re = [z.re.numerator * (d // z.re.denominator) for z in values]
    im = [z.im.numerator * (d // z.im.denominator) for z in values]
    return d, re, im


def _reduced(d: int, re: list, im: list) -> Optional[tuple]:
    """(d, re, im) without trailing zero entries and divided by its gcd; None if zero."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return None
    if n < len(re):
        re, im = re[:n], im[:n]
    g = math.gcd(d, *re, *im)
    if g != 1:
        d, re, im = d // g, [x // g for x in re], [y // g for y in im]
    return d, re, im


def _summed(u: tuple, v: tuple) -> tuple:
    """u + v over the least common denominator, not reduced."""
    if len(u[1]) < len(v[1]):
        u, v = v, u
    (du, ur, ui), (dv, vr, vi) = u, v
    d = math.lcm(du, dv)
    su, sv = d // du, d // dv
    re = [su * x for x in ur]
    im = [su * y for y in ui]
    for k, (x, y) in enumerate(zip(vr, vi)):
        re[k] += sv * x
        im[k] += sv * y
    return d, re, im


def _total(signed) -> "ComplexExpr":
    """The sum of sign * value over (sign, value) pairs, sign 1 or -1: per
    frequency one common denominator, one integer vector and one ``_reduced``
    however many terms there are, where a pairwise fold reduces every
    partial sum."""
    groups: dict = {}
    for sign, value in signed:
        for key, v in value.freqs.items():
            groups.setdefault(key, []).append((sign, v))
    freqs = {}
    for key, vs in groups.items():
        if len(vs) == 1:  # a frequency of one term: its vector, already reduced
            sign, (d, re, im) = vs[0]
            freqs[key] = (d, re, im) if sign > 0 else (d, [-x for x in re], [-y for y in im])
            continue
        d = math.lcm(*(v[0] for _, v in vs))
        n = max(len(v[1]) for _, v in vs)
        re, im = [0] * n, [0] * n
        for sign, (dv, vr, vi) in vs:
            m = sign * (d // dv)
            for k, (x, y) in enumerate(zip(vr, vi)):
                if x or y:
                    re[k] += m * x
                    im[k] += m * y
        v = _reduced(d, re, im)
        if v is not None:
            freqs[key] = v
    return ComplexExpr._of(freqs)


def _convolved(a: list, b: list) -> list:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    if any(b):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return out


def _product(u: tuple, v: tuple) -> tuple:
    """u * v over the product of the denominators, not reduced.

    When either vector has one entry a + bi, the other's entries are scaled
    by it directly; otherwise the product takes four convolutions.
    """
    if len(v[1]) == 1:
        u, v = v, u
    (du, ur, ui), (dv, vr, vi) = u, v
    if len(ur) == 1:
        a, b = ur[0], ui[0]
        pairs = list(zip(vr, vi))
        return du * dv, [a * x - b * y for x, y in pairs], [a * y + b * x for x, y in pairs]
    re = [x - y for x, y in zip(_convolved(ur, vr), _convolved(ui, vi))]
    im = [x + y for x, y in zip(_convolved(ur, vi), _convolved(ui, vr))]
    return du * dv, re, im


def _frequency_sum(lam: tuple, mu: tuple) -> tuple:
    """The key of lam + mu."""
    (s, p, q), (t, u, v) = lam, mu
    if not (u or v):
        return lam
    if not (p or q):
        return mu
    d, re, im = s * t, p * t + u * s, q * t + v * s
    g = math.gcd(d, re, im)
    return d // g, re // g, im // g


ORIGIN = (1, 0, 0)  # the key of the frequency 0


def _key(lam: GaussianRational) -> tuple:
    s, (p,), (q,) = _integer_parts((lam,))
    return s, p, q


def _scalar(triple: tuple) -> GaussianRational:
    """(p + qi)/s from a key (s, p, q), or a coefficient from (d, re[k], im[k])."""
    s, p, q = triple
    return GaussianRational._raw(Fraction(p, s), Fraction(q, s))


def _ordered(freqs: dict) -> list:
    """The keys of freqs, by real then imaginary part of the frequency: over a
    common denominator m, by (p m/s, q m/s)."""
    m = math.lcm(*(s for s, _, _ in freqs))
    return sorted(freqs, key=lambda key: (key[1] * (m // key[0]), key[2] * (m // key[0])))


def _collected(triples) -> dict:
    """Reduced vectors from (coeff, k, key) triples; repeats add, zeros drop."""
    polys: dict = {}
    for c, k, key in triples:
        poly = polys.setdefault(key, {})
        poly[k] = poly.get(k, ZERO) + c
    freqs = {}
    for key, poly in polys.items():
        v = _reduced(*_integer_parts([poly.get(k, ZERO) for k in range(max(poly) + 1)]))
        if v is not None:
            freqs[key] = v
    return freqs


class ComplexTerm(Record):
    """One monomial c * x^k * e^(lam*x)."""

    __slots__ = ("coeff", "k", "lam")

    def __init__(self, coeff: GaussianRational, k: int, lam: GaussianRational):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)


class ComplexExpr:
    """Immutable sum of complex-exponential monomials, kept canonical.

    ``freqs`` maps the key of each frequency lam to the reduced vector (see
    ``_reduced``) of the polynomial multiplying e^(lam x); a frequency whose
    polynomial vanishes has no entry, so zero is {} and equal expressions
    have equal ``freqs``.  ``terms`` lists the nonzero monomials ordered by
    (lam.re, lam.im, k).  No vector changes once built.
    """

    __slots__ = ("freqs",)

    def __init__(self, terms: Iterable = ()):
        triples = []
        for t in terms:
            coeff, k, lam = (t.coeff, t.k, t.lam) if isinstance(t, ComplexTerm) else t
            if k < 0:
                raise ValueError(f"negative power of x: {k}")
            triples.append((coeff, k, _key(lam)))
        self.freqs = _collected(triples)

    @staticmethod
    def _of(freqs: dict) -> "ComplexExpr":
        """The expression with these keys and reduced vectors, taken as they are."""
        expr = object.__new__(ComplexExpr)
        expr.freqs = freqs
        return expr

    @property
    def terms(self) -> tuple:
        out = []
        for key in _ordered(self.freqs):
            lam, (d, re, im) = _scalar(key), self.freqs[key]
            for k, (x, y) in enumerate(zip(re, im)):
                if x or y:
                    out.append(ComplexTerm(_scalar((d, x, y)), k, lam))
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.freqs

    def __eq__(self, other):
        if not isinstance(other, ComplexExpr):
            return NotImplemented
        return self.freqs == other.freqs

    def __hash__(self):
        return hash(frozenset((key, d, *re, *im) for key, (d, re, im) in self.freqs.items()))

    def __repr__(self):
        inner = " + ".join(f"({t.coeff})x^{t.k}e^[({t.lam})x]" for t in self.terms)
        return f"ComplexExpr({inner or '0'})"

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "ComplexExpr") -> "ComplexExpr":
        return _total(((1, self), (1, other)))

    def __sub__(self, other: "ComplexExpr") -> "ComplexExpr":
        return _total(((1, self), (-1, other)))

    def __neg__(self) -> "ComplexExpr":
        return ComplexExpr._of({
            key: (d, [-x for x in re], [-y for y in im]) for key, (d, re, im) in self.freqs.items()
        })

    def __mul__(self, other: "ComplexExpr") -> "ComplexExpr":
        acc: dict = {}
        for lam, u in self.freqs.items():
            for mu, v in other.freqs.items():
                w = _product(u, v)
                nu = _frequency_sum(lam, mu)
                acc[nu] = _summed(acc[nu], w) if nu in acc else w
        freqs = {}
        for nu, w in acc.items():
            w = _reduced(*w)
            if w is not None:
                freqs[nu] = w
        return ComplexExpr._of(freqs)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: float) -> complex:
        total = 0j
        for t in self.terms:
            total += t.coeff.to_complex() * x**t.k * cmath.exp(t.lam.to_complex() * x)
        return total

    # -- realification ----------------------------------------------------

    def to_real(self) -> "RealExpr":
        """This value as a RealExpr, once it is checked to be real.

        Requires the expression to be conjugation-symmetric; raises
        ConjugateSymmetryError when a real frequency has a coefficient with
        an imaginary part, or a frequency with im != 0 lacks its mirror.
        """
        for key in _ordered(self.freqs):
            (s, p, q), (d, re, im) = key, self.freqs[key]
            if not q and any(im):
                raise ConjugateSymmetryError(
                    f"a coefficient of e^({_scalar(key).pretty()}x) is not real"
                )
            if q and self.freqs.get((s, p, -q)) != (d, re, [-y for y in im]):
                raise ConjugateSymmetryError(
                    f"terms of e^(({_scalar(key).pretty()})x) have no conjugate partners"
                )
        return RealExpr._of(self)


class RealTerm(Record):
    """One real monomial c * x^k * e^(alpha*x) * {1, cos(beta*x), sin(beta*x)}.

    trig is None exactly when beta == 0.  beta is kept positive: the parser
    and the folding code normalize cos(-bx) = cos(bx), sin(-bx) = -sin(bx).
    """

    __slots__ = ("coeff", "k", "alpha", "beta", "trig")

    def __init__(self, coeff: Fraction, k: int, alpha: Fraction, beta: Fraction, trig: Optional[str]):
        object.__setattr__(self, "coeff", Fraction(coeff))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha", Fraction(alpha))
        object.__setattr__(self, "beta", Fraction(beta))
        object.__setattr__(self, "trig", trig)
        if (trig is None) != (self.beta == 0):
            raise ValueError("trig factor present iff beta is nonzero")
        if self.beta < 0:
            raise ValueError("beta must be normalized to be positive")
        if self.trig not in (None, "cos", "sin"):
            raise ValueError(f"unknown trig tag {self.trig!r}")

    def evaluate(self, x: float) -> float:
        value = float(self.coeff) * x**self.k * math.exp(float(self.alpha) * x)
        if self.trig == "cos":
            value *= math.cos(float(self.beta) * x)
        elif self.trig == "sin":
            value *= math.sin(float(self.beta) * x)
        return value


class RealExpr:
    """A real value, held as the conjugation-symmetric ComplexExpr it equals.

    ``==``, ``hash``, ``-`` and ``to_complex`` use that value; ``_folded``
    reads its cos/sin groups off the vectors, and ``terms`` is that fold
    flattened into RealTerms, made on first read.  The constructor
    Euler-expands RealTerms, which may repeat or cancel.
    """

    __slots__ = ("_value", "_terms")

    def __init__(self, terms: Iterable[RealTerm] = ()):
        # c cos(bx) = (c/2) e^(ibx) + conj, c sin(bx) = (-ic/2) e^(ibx) + conj
        raw = GaussianRational._raw
        out = []
        for t in terms:
            s, p, q = up = _key(raw(t.alpha, t.beta))
            if t.trig is None:
                out.append((raw(t.coeff, _F0), t.k, up))
                continue
            half = raw(t.coeff / 2, _F0) if t.trig == "cos" else raw(_F0, -t.coeff / 2)
            out += [(half, t.k, up), (half.conjugate(), t.k, (s, p, -q))]
        self._value, self._terms = ComplexExpr._of(_collected(out)), None

    @staticmethod
    def _of(value: ComplexExpr) -> "RealExpr":
        """The real expression equal to value, which must be conjugation-symmetric."""
        expr = object.__new__(RealExpr)
        expr._value, expr._terms = value, None
        return expr

    def _folded(self) -> list:
        """(alpha, beta, d, parts) per frequency alpha + i beta with beta >= 0,
        by alpha then beta.  parts holds (trig, {k: numerator}) for the
        nonempty plain-or-cos part, then the sin part, all over d: the fold
        c e^(ibx) + conj(c) e^(-ibx) = 2 Re(c) cos(bx) - 2 Im(c) sin(bx)."""
        out = []
        freqs = self._value.freqs
        for key in _ordered(freqs):
            (s, p, q), (d, re, im) = key, freqs[key]
            if q < 0:
                continue
            # a real frequency has im == 0 and only a plain part
            tagged = [("cos", 2, re), ("sin", -2, im)] if q else [(None, 1, re)]
            parts = [(trig, {k: m * x for k, x in enumerate(v) if x}) for trig, m, v in tagged]
            out.append((Fraction(p, s), Fraction(q, s), d, [part for part in parts if part[1]]))
        return out

    def _flattened(self):
        """(alpha, beta, k, numerator, d, trig) by (alpha, beta, k), cos before sin."""
        for alpha, beta, d, parts in self._folded():
            for k in range(1 + max(max(poly) for _, poly in parts)):
                for trig, poly in parts:
                    if k in poly:
                        yield alpha, beta, k, poly[k], d, trig

    @property
    def terms(self) -> tuple:
        """The fold flattened into RealTerms."""
        if self._terms is None:
            self._terms = tuple(
                RealTerm(Fraction(n, d), k, alpha, beta, trig)
                for alpha, beta, k, n, d, trig in self._flattened()
            )
        return self._terms

    def is_zero(self) -> bool:
        return self._value.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RealExpr):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return f"RealExpr({len(self.terms)} terms)"

    def evaluate(self, x: float) -> float:
        return sum(t.evaluate(x) for t in self.terms)

    def __sub__(self, other: "RealExpr") -> "RealExpr":
        return RealExpr._of(self._value - other._value)

    def to_complex(self) -> ComplexExpr:
        return self._value
