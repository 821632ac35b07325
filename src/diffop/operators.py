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

Both ``shift`` and ``apply`` scale the operator's coefficients to Gaussian
integers over a common denominator first (the fraction-free scheme of von
zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5, with the vector
helpers of ``expressions``): the inner loops then run on plain ints, and
each result is reduced by one gcd at the end.

Coefficients are stored as GaussianRational throughout, even for operators
built from real input: shifting by a complex frequency must not change the
representation.  The zero operator is the empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .expressions import ComplexExpr, _integer_parts, _reduced
from .rationals import GaussianRational, gauss, power, rat_sqrt, scalar_from_json, scalar_to_json


class UnfactorableOverGaussianRationals(ValueError):
    """The operator has a root outside Q(i); no exact factorization exists here."""


def _to_gauss(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


class OperatorPoly:
    """Dense operator polynomial, coefficients low to high, top one nonzero."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_to_gauss(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero operator."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_real(self) -> bool:
        return all(c.is_real() for c in self._coeffs)

    def coeff(self, j: int) -> GaussianRational:
        if 0 <= j < len(self._coeffs):
            return self._coeffs[j]
        return gauss(0)

    # -- polynomial ring ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "OperatorPoly | None":
        if isinstance(other, OperatorPoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return OperatorPoly((_to_gauss(other),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return OperatorPoly(self.coeff(j) + other.coeff(j) for j in range(n))

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
        return OperatorPoly(-c for c in self._coeffs)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return OperatorPoly()
        out = [gauss(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] = out[i + j] + a * b
        return OperatorPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, IDENTITY_OP)

    def scale(self, c) -> "OperatorPoly":
        c = _to_gauss(c)
        return OperatorPoly(a * c for a in self._coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"OperatorPoly({[c.pretty() for c in self._coeffs]})"

    # -- the operator calculus ------------------------------------------

    def evaluate(self, lam: GaussianRational) -> GaussianRational:
        """P(lam) by Horner's scheme; equals the eigenvalue on e^(lam x)."""
        lam = _to_gauss(lam)
        acc = gauss(0)
        for c in reversed(self._coeffs):
            acc = acc * lam + c
        return acc

    def shift(self, lam: GaussianRational) -> "OperatorPoly":
        """The translated polynomial P(D + lam), exactly.

        Everything is scaled to Gaussian integers first so the Horner
        passes run on plain ints (no gcd per step), then normalized once:
        with lam = (p + qi)/s and coefficients n_j/d, the integer poly
        R(E) = sum n_j s^(top-j) E^j in E = sD is Taylor-shifted by p + qi,
        and P(D + lam) reads off as b_j / (d s^(top-j)).
        """
        lam = _to_gauss(lam)
        n = len(self._coeffs)
        if n == 0 or lam.is_zero():
            return self
        s, (p,), (q,) = _integer_parts((lam,))
        d, cre, cim = _integer_parts(self._coeffs)
        top = n - 1
        spow = [1] * n
        for i in range(1, n):
            spow[i] = spow[i - 1] * s
        wre = [c * spow[top - j] for j, c in enumerate(cre)]
        wim = [c * spow[top - j] for j, c in enumerate(cim)]
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                a, b = wre[j + 1], wim[j + 1]
                wre[j] += p * a - q * b
                wim[j] += p * b + q * a
        out = [
            GaussianRational(
                Fraction(wre[j], d * spow[top - j]),
                Fraction(wim[j], d * spow[top - j]),
            )
            for j in range(n)
        ]
        return OperatorPoly(out)

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
        n = len(self._coeffs) - 1
        if n < 0:
            return ComplexExpr._of({})
        da, are, aim = _integer_parts(self._coeffs)
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
        return OperatorPoly(
            self._coeffs[j] * j for j in range(1, len(self._coeffs))
        )

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
        return next(k for k, c in enumerate(self._coeffs) if not c.is_zero())

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self._coeffs]

    @staticmethod
    def from_json(obj: list) -> "OperatorPoly":
        return OperatorPoly(scalar_from_json(c) for c in obj)


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

        Bases are made monic, reducible quadratics are split into their
        rational linear factors, and anything with a root outside Q(i)
        (or with irrational alpha/beta) raises
        UnfactorableOverGaussianRationals.
        """
        leading = Fraction(leading)
        factors = []
        for base, mult in bases:
            if base.is_zero():
                raise ValueError("zero polynomial cannot be a factor")
            if not base.is_real():
                raise ValueError("factor bases must have real coefficients")
            lead = base.coeffs[-1].re
            leading *= lead**mult
            monic = [c.re / lead for c in base.coeffs]
            if base.degree == 0:
                continue
            if base.degree == 1:
                factors.append(Factor(-monic[0], Fraction(0), mult))
                continue
            if base.degree == 2:
                q, p = monic[0], monic[1]
                disc = p * p - 4 * q
                if disc == 0:
                    factors.append(Factor(-p / 2, Fraction(0), 2 * mult))
                    continue
                root = rat_sqrt(abs(disc))
                if root is None:
                    raise UnfactorableOverGaussianRationals(
                        f"quadratic factor D^2 + ({p})D + ({q}) has irrational roots"
                    )
                if disc > 0:
                    factors.append(Factor((-p + root) / 2, Fraction(0), mult))
                    factors.append(Factor((-p - root) / 2, Fraction(0), mult))
                else:
                    factors.append(Factor(-p / 2, root / 2, mult))
                continue
            raise ValueError(f"factor base of degree {base.degree} not supported")
        return FactoredOperator(leading, tuple(_merge_factors(factors)))


def _merge_factors(factors: list) -> list:
    """Combine repeats of the same root data, keeping first-appearance order."""
    order = []
    total: dict = {}
    for f in factors:
        key = (f.alpha, f.beta)
        if key not in total:
            order.append(key)
            total[key] = 0
        total[key] += f.mult
    return [Factor(a, b, total[(a, b)]) for a, b in order]
