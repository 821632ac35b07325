"""Polynomials in the differentiation operator D.

An operator P(D) = a_n D^n + ... + a_1 D + a_0 acts on an expression as the
linear combination of its derivatives.  Because the coefficients are
constants, operators multiply like ordinary polynomials and commute with
each other.

Three identities carry all the weight.  Exponentials are eigenfunctions of
D, so

    P(D) e^(lam x) = P(lam) e^(lam x);

conjugating by an exponential translates the argument of the polynomial,

    P(D) [e^(lam x) f(x)] = e^(lam x) [P(D + lam) f(x)];

and on one frequency D acts on the polynomial part alone,

    D (u(x) e^(lam x)) = (u'(x) + lam u(x)) e^(lam x).

``evaluate`` and ``shift`` implement the first two exactly, which is what
lets the solver replace calculus with arithmetic in Q(i).  ``apply`` runs
Horner's rule on the third, frequency by frequency, directly on the
Gaussian-integer vectors a ``ComplexExpr`` holds, and returns one.  It is
the certificate's path and must not go through ``shift``, so the two stay
independent.

An operator is held as one reduced Gaussian-integer vector (d, re, im),
the form of one frequency of a ``ComplexExpr`` (the fraction-free scheme of
von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).  Its ring
operations, ``shift`` and ``apply`` run on plain ints with the vector
helpers of ``expressions``, and each result is reduced by one gcd.  A real
operator has zero imaginary parts, so shifting by a complex frequency keeps
the representation; the zero operator is (1, [], []).  ``coeffs`` and
``coeff`` build ``GaussianRational`` values only for the API, the trace
and rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .expressions import ComplexExpr, _integer_parts, _key, _product, _reduced, _scalar, _summed
from .rationals import GaussianRational, gauss, power, scalar_from_json, scalar_to_json


class UnfactorableOverGaussianRationals(ValueError):
    """The operator has a root outside Q(i); no exact factorization exists here."""


def _to_gauss(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


class OperatorPoly:
    """Dense operator polynomial: coefficient j is (re[j] + im[j] i)/d for its
    reduced vector (d, re, im), low to high, the top one nonzero."""

    __slots__ = ("_v",)

    def __init__(self, coeffs: Iterable = ()):
        self._v = _reduced(*_integer_parts([_to_gauss(c) for c in coeffs])) or _ZERO

    @staticmethod
    def _of(v: Optional[tuple]) -> "OperatorPoly":
        """The operator with this reduced vector, taken as it is; None is zero."""
        op = object.__new__(OperatorPoly)
        op._v = v or _ZERO
        return op

    @property
    def coeffs(self) -> tuple:
        d, re, im = self._v
        return tuple(_scalar((d, x, y)) for x, y in zip(re, im))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero operator."""
        return len(self._v[1]) - 1

    def is_zero(self) -> bool:
        return not self._v[1]

    def is_real(self) -> bool:
        return not any(self._v[2])

    def coeff(self, j: int) -> GaussianRational:
        d, re, im = self._v
        if 0 <= j < len(re):
            return _scalar((d, re[j], im[j]))
        return gauss(0)

    # -- polynomial ring ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "OperatorPoly | None":
        if isinstance(other, OperatorPoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return OperatorPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return OperatorPoly._of(_reduced(*_summed(self._v, other._v)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        d, re, im = self._v
        return OperatorPoly._of((d, [-x for x in re], [-y for y in im]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return OperatorPoly._of(None)
        return OperatorPoly._of(_reduced(*_product(self._v, other._v)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, IDENTITY_OP)

    def scale(self, c) -> "OperatorPoly":
        return self * OperatorPoly((c,))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        d, re, im = self._v
        return hash((d, *re, *im))

    def __repr__(self):
        return f"OperatorPoly({[c.pretty() for c in self.coeffs]})"

    # -- the operator calculus ------------------------------------------

    def evaluate(self, lam: GaussianRational) -> GaussianRational:
        """P(lam) by Horner's scheme; equals the eigenvalue on e^(lam x)."""
        lam = _to_gauss(lam)
        acc = gauss(0)
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def shift(self, lam: GaussianRational) -> "OperatorPoly":
        """The translated polynomial P(D + lam), exactly.

        With lam = (p + qi)/s and coefficients n_j/d, the integer poly
        R(E) = sum n_j s^(top-j) E^j in E = sD is Taylor-shifted by p + qi
        with Horner passes on plain ints (no gcd per step), and P(D + lam)
        reads off as b_j / (d s^(top-j)) = b_j s^j / (d s^top), reduced once.
        """
        s, p, q = _key(_to_gauss(lam))
        d, re, im = self._v
        n = len(re)
        if n == 0 or not (p or q):
            return self
        top = n - 1
        spow = [1] * n
        for i in range(1, n):
            spow[i] = spow[i - 1] * s
        wre = [c * spow[top - j] for j, c in enumerate(re)]
        wim = [c * spow[top - j] for j, c in enumerate(im)]
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                a, b = wre[j + 1], wim[j + 1]
                wre[j] += p * a - q * b
                wim[j] += p * b + q * a
        out = [x * t for x, t in zip(wre, spow)], [y * t for y, t in zip(wim, spow)]
        return OperatorPoly._of(_reduced(d * spow[top], *out))

    def apply(self, f: ComplexExpr) -> ComplexExpr:
        """P(D) f, by Horner's rule run separately on each frequency of f.

        On one frequency D(u e^(lam x)) = (u' + lam u) e^(lam x), so
        P(D)(u e^(lam x)) = r_0 e^(lam x) with r_n = a_n u and
        r_j = r_(j+1)' + lam r_(j+1) + a_j u.  With a_j = A_j/da,
        lam = (p + qi)/s and u = U/du the scaled R_j = da du s^(n-j) r_j obey

            R_n = A_n U,   R_j = s R_(j+1)' + (p + qi) R_(j+1) + s^(n-j) A_j U

        on the Gaussian-integer vectors of ``f.freqs``, and r_0 = R_0 / (da du s^n)
        is reduced once per frequency.  No step goes through ``shift``.
        """
        da, are, aim = self._v
        n = len(are) - 1
        if n < 0:
            return ComplexExpr._of({})
        freqs = {}
        for lam, (du, ure, uim) in f.freqs.items():
            s, p, q = lam
            a, b = are[n], aim[n]
            rre = [a * u - b * v for u, v in zip(ure, uim)]
            rim = [a * v + b * u for u, v in zip(ure, uim)]
            spow = 1
            for j in range(n - 1, -1, -1):
                spow *= s
                a, b = are[j] * spow, aim[j] * spow
                nre = [
                    p * x - q * y + a * u - b * v
                    for x, y, u, v in zip(rre, rim, ure, uim)
                ]
                nim = [
                    p * y + q * x + a * v + b * u
                    for x, y, u, v in zip(rre, rim, ure, uim)
                ]
                for k in range(1, len(rre)):
                    nre[k - 1] += s * k * rre[k]
                    nim[k - 1] += s * k * rim[k]
                rre, rim = nre, nim
            v = _reduced(da * du * spow, rre, rim)
            if v is not None:
                freqs[lam] = v
        return ComplexExpr._of(freqs)

    def formal_derivative(self) -> "OperatorPoly":
        """dP/dD by the power rule (a polynomial in D, not an action on f)."""
        d, re, im = self._v
        js = range(1, len(re))
        return OperatorPoly._of(_reduced(d, [j * re[j] for j in js], [j * im[j] for j in js]))

    def multiplicity_at(self, lam: GaussianRational) -> int:
        """Largest k with (D - lam)^k dividing P.

        Shifting moves lam to the origin, where the multiplicity is visible
        as the run of vanishing low-order coefficients.
        """
        return self.shift(lam).valuation()

    def valuation(self) -> int:
        """Largest k with D^k dividing P: the index of the lowest nonzero coefficient."""
        if self.is_zero():
            raise ValueError("multiplicity is undefined for the zero operator")
        return next(k for k, (x, y) in enumerate(zip(*self._v[1:])) if x or y)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coeffs]

    @staticmethod
    def from_json(obj: list) -> "OperatorPoly":
        return OperatorPoly(scalar_from_json(c) for c in obj)


_ZERO = (1, [], [])  # the vector of the zero operator

D = OperatorPoly((0, 1))
IDENTITY_OP = OperatorPoly((1,))


@dataclass(frozen=True)
class Factor:
    """One real factor of an operator, to a power.

    beta == 0 encodes the linear factor (D - alpha); beta > 0 encodes the
    irreducible quadratic (D - alpha)^2 + beta^2, whose complex roots are
    alpha +- i beta.
    """

    alpha: Fraction
    beta: Fraction
    mult: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.mult < 1:
            raise ValueError("multiplicity must be positive")

    @property
    def degree(self) -> int:
        return 1 if self.beta == 0 else 2

    def base(self) -> OperatorPoly:
        if self.beta == 0:
            return OperatorPoly((-self.alpha, 1))
        return OperatorPoly(
            (self.alpha * self.alpha + self.beta * self.beta, -2 * self.alpha, 1)
        )


@dataclass(frozen=True)
class FactoredOperator:
    """Product form leading * prod base_i^mult_i with rational factor data."""

    leading: Fraction
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "leading", Fraction(self.leading))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.leading:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return sum(f.degree * f.mult for f in self.factors)

    def expand(self) -> OperatorPoly:
        result = OperatorPoly((self.leading,))
        for f in self.factors:
            result = result * f.base() ** f.mult
        return result

    @staticmethod
    def from_bases(leading: Fraction, bases: Iterable) -> "FactoredOperator":
        """Normalize (base polynomial, multiplicity) pairs into rational factors.

        Roots are read off each base's integer vector c, low to high: -c0/c1
        for a linear base.  A quadratic's integer discriminant
        c1^2 - 4 c0 c2 gives a double root if zero, two rational roots
        (larger first) if a positive square, the pair
        -c1/(2 c2) +- i sqrt(-disc)/(2 |c2|) if minus a square, and
        UnfactorableOverGaussianRationals otherwise.  Base leading
        coefficients multiply into ``leading``, and repeated root data merge
        in the order of first appearance.
        """
        leading = Fraction(leading)
        merged: dict = {}
        for base, mult in bases:
            d, c, im = base._v
            if not c:
                raise ValueError("zero polynomial cannot be a factor")
            if any(im):
                raise ValueError("factor bases must have real coefficients")
            if len(c) > 3:
                raise ValueError(f"factor base of degree {base.degree} not supported")
            leading *= Fraction(c[-1], d) ** mult
            if len(c) == 1:
                continue
            if len(c) == 2:
                roots = [(Fraction(-c[0], c[1]), 0, mult)]
            else:
                c0, c1, c2 = c
                disc = c1 * c1 - 4 * c0 * c2
                root = math.isqrt(abs(disc))
                if root * root != abs(disc):
                    raise UnfactorableOverGaussianRationals(
                        f"quadratic factor D^2 + ({Fraction(c1, c2)})D + ({Fraction(c0, c2)})"
                        " has irrational roots"
                    )
                u, half = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)
                if disc == 0:
                    roots = [(Fraction(u, half), 0, 2 * mult)]
                elif disc > 0:
                    roots = [(Fraction(u + root, half), 0, mult), (Fraction(u - root, half), 0, mult)]
                else:
                    roots = [(Fraction(u, half), Fraction(root, half), mult)]
            for alpha, beta, m in roots:
                if m < 1:  # as Factor would, before a merge can hide it
                    raise ValueError("multiplicity must be positive")
                merged[alpha, beta] = merged.get((alpha, beta), 0) + m
        return FactoredOperator(leading, (Factor(a, b, m) for (a, b), m in merged.items()))
