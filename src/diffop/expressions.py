"""Canonical forms for forcing terms and solutions.

Everything the engine touches is a finite sum of terms

    c * x^k * e^(lam*x)          with c, lam in Q(i), k >= 0,

held in ``ComplexExpr``.  Real inputs with sines and cosines are folded into
this form through Euler's formula, which turns trig bookkeeping into plain
field arithmetic in the exponent.  ``RealExpr`` is the presentation form on
the way back out: terms c * x^k * e^(a*x) * {1, cos(b*x), sin(b*x)} with
rational c, a, b and b > 0.

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
from .rationals import GaussianRational, gauss

_F0 = Fraction(0)


class InternalInvariantError(Exception):
    """An invariant of the engine broke: a bug in diffop, never bad input."""


class ConjugateSymmetryError(InternalInvariantError):
    """A supposedly real expression was not conjugation-symmetric."""


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

    Canonical means: at most one term per (k, lam) pair, zero coefficients
    dropped, terms ordered by (lam.re, lam.im, k).  The zero expression has
    no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        merged: dict = {}
        for t in terms:
            if not isinstance(t, ComplexTerm):
                coeff, k, lam = t
                t = ComplexTerm(coeff, k, lam)
            if t.k < 0:
                raise ValueError(f"negative power of x: {t.k}")
            key = (t.lam, t.k)
            merged[key] = merged.get(key, gauss(0)) + t.coeff
        kept = [
            ComplexTerm(c, k, lam) for (lam, k), c in merged.items() if not c.is_zero()
        ]
        kept.sort(key=ComplexTerm.sort_key)
        object.__setattr__(self, "_terms", tuple(kept))

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, ComplexExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        inner = " + ".join(
            f"({t.coeff})x^{t.k}e^[({t.lam})x]" for t in self._terms
        )
        return f"ComplexExpr({inner or '0'})"

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "ComplexExpr") -> "ComplexExpr":
        return ComplexExpr(self._terms + other._terms)

    def __sub__(self, other: "ComplexExpr") -> "ComplexExpr":
        return self + (-other)

    def __neg__(self) -> "ComplexExpr":
        return self.scale(gauss(-1))

    def scale(self, c: GaussianRational) -> "ComplexExpr":
        return ComplexExpr(
            ComplexTerm(t.coeff * c, t.k, t.lam) for t in self._terms
        )

    def __mul__(self, other: "ComplexExpr") -> "ComplexExpr":
        out = []
        for a in self._terms:
            for b in other._terms:
                out.append(ComplexTerm(a.coeff * b.coeff, a.k + b.k, a.lam + b.lam))
        return ComplexExpr(out)

    def differentiate(self) -> "ComplexExpr":
        """Apply D once: D(x^k e^(lam x)) = k x^(k-1) e^(lam x) + lam x^k e^(lam x)."""
        out = []
        for t in self._terms:
            if t.k > 0:
                out.append(ComplexTerm(t.coeff * t.k, t.k - 1, t.lam))
            if not t.lam.is_zero():
                out.append(ComplexTerm(t.coeff * t.lam, t.k, t.lam))
        return ComplexExpr(out)

    # -- structure ------------------------------------------------------

    def frequencies(self) -> list:
        seen = []
        for t in self._terms:
            if t.lam not in seen:
                seen.append(t.lam)
        return seen

    def poly_at(self, lam: GaussianRational) -> tuple:
        """Coefficients (low to high in x) of the polynomial multiplying e^(lam x)."""
        degree = -1
        for t in self._terms:
            if t.lam == lam:
                degree = max(degree, t.k)
        coeffs = [gauss(0)] * (degree + 1)
        for t in self._terms:
            if t.lam == lam:
                coeffs[t.k] = t.coeff
        return tuple(coeffs)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: float) -> complex:
        total = 0j
        for t in self._terms:
            total += t.coeff.to_complex() * x**t.k * cmath.exp(t.lam.to_complex() * x)
        return total

    # -- realification ----------------------------------------------------

    def to_real(self) -> "RealExpr":
        """Fold conjugate frequency pairs into cos/sin terms.

        Requires the expression to be conjugation-symmetric; raises
        ConjugateSymmetryError when a real coefficient has an imaginary part
        or a frequency with im != 0 lacks its mirror term.
        """
        table = {(t.lam, t.k): t.coeff for t in self._terms}
        out = []
        for t in self._terms:
            lam, k, c = t.lam, t.k, t.coeff
            if lam.is_real():
                if not c.is_real():
                    raise ConjugateSymmetryError(
                        f"coefficient of x^{k} e^({lam.pretty()}x) is not real: {c.pretty()}"
                    )
                out.append(RealTerm(c.re, k, lam.re, Fraction(0), None))
                continue
            if lam.im < 0:
                partner = table.get((lam.conjugate(), k))
                if partner is None or partner != c.conjugate():
                    raise ConjugateSymmetryError(
                        f"term x^{k} e^(({lam.pretty()})x) has no conjugate partner"
                    )
                continue
            partner = table.get((lam.conjugate(), k))
            if partner is None or partner != c.conjugate():
                raise ConjugateSymmetryError(
                    f"term x^{k} e^(({lam.pretty()})x) has no conjugate partner"
                )
            # c e^(i b x) + conj(c) e^(-i b x) = 2 Re(c) cos(bx) - 2 Im(c) sin(bx)
            alpha, beta = lam.re, lam.im
            if c.re:
                out.append(RealTerm(2 * c.re, k, alpha, beta, "cos"))
            if c.im:
                out.append(RealTerm(-2 * c.im, k, alpha, beta, "sin"))
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
            up = raw(t.alpha, t.beta)
            if t.trig is None:
                out.append(ComplexTerm(raw(t.coeff, _F0), t.k, up))
                continue
            down = raw(t.alpha, -t.beta)
            half = t.coeff / 2
            if t.trig == "cos":
                out.append(ComplexTerm(raw(half, _F0), t.k, up))
                out.append(ComplexTerm(raw(half, _F0), t.k, down))
            else:
                out.append(ComplexTerm(raw(_F0, -half), t.k, up))
                out.append(ComplexTerm(raw(_F0, half), t.k, down))
        return ComplexExpr(out)
