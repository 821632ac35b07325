"""Canonical forms for forcing terms and solutions.

Everything the engine touches is a finite sum of terms

    c * x^k * e^(lam*x)          with c, lam in Q(i), k >= 0,

held in ``ComplexExpr``.  Real inputs with sines and cosines are folded into
this form through Euler's formula, which turns trig bookkeeping into plain
field arithmetic in the exponent.  ``RealExpr`` is the presentation form on
the way back out: terms c * x^k * e^(a*x) * {1, cos(b*x), sin(b*x)} with
rational c, a, b and b > 0.

A ``ComplexExpr`` is dense by frequency: each lam holds the polynomial that
multiplies e^(lam x) as Gaussian-integer coefficient vectors over one common
denominator.  Sums, products, scaling and D are then integer vector work
with one gcd per result vector (the fraction-free scheme of von zur Gathen
and Gerhard, *Modern Computer Algebra*, ch. 5), and so are the parser, the
solver's per-frequency steps and ``OperatorPoly.apply``, which all use the
vector helpers defined here.

The fold back to real coefficients doubles as an internal consistency check:
an expression produced from real data must be fixed by conjugation, so
``to_real`` verifies the coefficient of e^((a-bi)x) is the conjugate of the
coefficient of e^((a+bi)x) and raises ``ConjugateSymmetryError`` otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .rationals import Fraction as _F
from .rationals import ZERO, GaussianRational

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
    """u * v over the product of the denominators, not reduced."""
    (du, ur, ui), (dv, vr, vi) = u, v
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
    """The keys of freqs, by real then imaginary part of the frequency."""
    return sorted(freqs, key=lambda key: (Fraction(key[1], key[0]), Fraction(key[2], key[0])))


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


@dataclass(frozen=True)
class ComplexTerm:
    """One monomial c * x^k * e^(lam*x)."""

    coeff: GaussianRational
    k: int
    lam: GaussianRational

    def sort_key(self):
        return (self.lam.re, self.lam.im, self.k)


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
        freqs = dict(self.freqs)
        for key, v in other.freqs.items():
            if key in freqs:
                v = _reduced(*_summed(freqs[key], v))
                if v is None:
                    del freqs[key]
                    continue
            freqs[key] = v
        return ComplexExpr._of(freqs)

    def __sub__(self, other: "ComplexExpr") -> "ComplexExpr":
        return self + (-other)

    def __neg__(self) -> "ComplexExpr":
        return self.scale(-1)

    def scale(self, c: GaussianRational) -> "ComplexExpr":
        return self * ComplexExpr._of({ORIGIN: _integer_parts((GaussianRational._coerce(c),))})

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

    def differentiate(self) -> "ComplexExpr":
        """Apply D once: D(u e^(lam x)) = (u' + lam u) e^(lam x), which with
        lam = (p + qi)/s is s u' + (p + qi) u over s times the denominator."""
        freqs = {}
        for (s, p, q), (d, re, im) in self.freqs.items():
            nre = [p * x - q * y for x, y in zip(re, im)]
            nim = [p * y + q * x for x, y in zip(re, im)]
            for k in range(1, len(re)):
                nre[k - 1] += s * k * re[k]
                nim[k - 1] += s * k * im[k]
            v = _reduced(d * s, nre, nim)
            if v is not None:
                freqs[s, p, q] = v
        return ComplexExpr._of(freqs)

    # -- structure ------------------------------------------------------

    def frequencies(self) -> list:
        return [_scalar(key) for key in _ordered(self.freqs)]

    def poly_at(self, lam: GaussianRational) -> tuple:
        """Coefficients (low to high in x) of the polynomial multiplying e^(lam x)."""
        d, re, im = self.freqs.get(_key(GaussianRational._coerce(lam)), (1, [], []))
        return tuple(_scalar((d, x, y)) for x, y in zip(re, im))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: float) -> complex:
        total = 0j
        for t in self.terms:
            total += t.coeff.to_complex() * x**t.k * cmath.exp(t.lam.to_complex() * x)
        return total

    # -- realification ----------------------------------------------------

    def to_real(self) -> "RealExpr":
        """Fold conjugate frequency pairs into cos/sin terms.

        Requires the expression to be conjugation-symmetric; raises
        ConjugateSymmetryError when a real frequency has a coefficient with
        an imaginary part, or a frequency with im != 0 lacks its mirror.
        """
        out = []
        for key in _ordered(self.freqs):
            (s, p, q), (d, re, im) = key, self.freqs[key]
            alpha = Fraction(p, s)
            if not q and any(im):
                raise ConjugateSymmetryError(
                    f"a coefficient of e^({_scalar(key).pretty()}x) is not real"
                )
            if q and self.freqs.get((s, p, -q)) != (d, re, [-y for y in im]):
                raise ConjugateSymmetryError(
                    f"terms of e^(({_scalar(key).pretty()})x) have no conjugate partners"
                )
            if not q:
                out += [RealTerm(Fraction(x, d), k, alpha, _F0, None) for k, x in enumerate(re) if x]
            elif q > 0:
                # c e^(i b x) + conj(c) e^(-i b x) = 2 Re(c) cos(bx) - 2 Im(c) sin(bx)
                beta = Fraction(q, s)
                for k, (x, y) in enumerate(zip(re, im)):
                    if x:
                        out.append(RealTerm(Fraction(2 * x, d), k, alpha, beta, "cos"))
                    if y:
                        out.append(RealTerm(Fraction(-2 * y, d), k, alpha, beta, "sin"))
        return RealExpr(out)


@dataclass(frozen=True)
class RealTerm:
    """One real monomial c * x^k * e^(alpha*x) * {1, cos(beta*x), sin(beta*x)}.

    trig is None exactly when beta == 0.  beta is kept positive: the parser
    and the folding code normalize cos(-bx) = cos(bx), sin(-bx) = -sin(bx).
    """

    coeff: Fraction
    k: int
    alpha: Fraction
    beta: Fraction
    trig: Optional[str]

    def __post_init__(self):
        object.__setattr__(self, "coeff", _F(self.coeff))
        object.__setattr__(self, "alpha", _F(self.alpha))
        object.__setattr__(self, "beta", _F(self.beta))
        if (self.trig is None) != (self.beta == 0):
            raise ValueError("trig factor present iff beta is nonzero")
        if self.beta < 0:
            raise ValueError("beta must be normalized to be positive")
        if self.trig not in (None, "cos", "sin"):
            raise ValueError(f"unknown trig tag {self.trig!r}")

    def sort_key(self):
        trig_rank = 0 if self.trig in (None, "cos") else 1
        return (self.alpha, self.beta, self.k, trig_rank)

    def evaluate(self, x: float) -> float:
        value = float(self.coeff) * x**self.k * math.exp(float(self.alpha) * x)
        if self.trig == "cos":
            value *= math.cos(float(self.beta) * x)
        elif self.trig == "sin":
            value *= math.sin(float(self.beta) * x)
        return value


class RealExpr:
    """Immutable sum of real terms in canonical order."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[RealTerm] = ()):
        merged: dict = {}
        for t in terms:
            key = (t.alpha, t.beta, t.k, t.trig)
            merged[key] = merged.get(key, Fraction(0)) + t.coeff
        kept = [
            RealTerm(c, k, alpha, beta, trig)
            for (alpha, beta, k, trig), c in merged.items()
            if c
        ]
        kept.sort(key=RealTerm.sort_key)
        object.__setattr__(self, "_terms", tuple(kept))

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, RealExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        return f"RealExpr({len(self._terms)} terms)"

    def evaluate(self, x: float) -> float:
        return sum(t.evaluate(x) for t in self._terms)

    def __sub__(self, other: "RealExpr") -> "RealExpr":
        return RealExpr(
            self._terms
            + tuple(RealTerm(-t.coeff, t.k, t.alpha, t.beta, t.trig) for t in other._terms)
        )

    def to_complex(self) -> ComplexExpr:
        """Euler expansion: cos and sin become half-sums of e^(+-i beta x).

        c cos(bx) = (c/2) e^(ibx) + (c/2) e^(-ibx) and
        c sin(bx) = (-ic/2) e^(ibx) + (ic/2) e^(-ibx).
        """
        raw = GaussianRational._raw
        out = []
        for t in self._terms:
            s, p, q = up = _key(raw(t.alpha, t.beta))
            half = t.coeff / 2
            if t.trig is None:
                out.append((raw(t.coeff, _F0), t.k, up))
            elif t.trig == "cos":
                out += [(raw(half, _F0), t.k, up), (raw(half, _F0), t.k, (s, p, -q))]
            else:
                out += [(raw(_F0, -half), t.k, up), (raw(_F0, half), t.k, (s, p, -q))]
        return ComplexExpr._of(_collected(out))
