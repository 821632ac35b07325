"""Reference operator algebra: coefficients held as ``GaussianRational``s.

``OpRef`` is the operator polynomial diffop used before ``OperatorPoly``
became one Gaussian-integer vector: a tuple of ``GaussianRational``
coefficients, low to high, top one nonzero, with schoolbook ``+ - *`` in
``Fraction`` arithmetic and the fraction-free Taylor shift.  ``series_ref``
is the O(m * deg R) convolution recurrence the solver used before Newton
iteration:

    s_0 = 1/r_0,    s_j = -(r_1 s_{j-1} + ... + r_j s_0)/r_0.

``OpRef.apply`` is the Horner recurrence ``OperatorPoly.apply`` ran at every
frequency, frequency 0 included, before frequency 0 became a correlation.

Neither shares code with ``diffop.operators`` or ``diffop.solve`` (the
integer-parts helper is a local copy), so tests can hold the two against
each other coefficient by coefficient.
"""

import math
from fractions import Fraction
from typing import Iterable

from diffop import ComplexExpr, GaussianRational, gauss
from diffop.rationals import power


def _to_gauss(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


def _integer_parts(values) -> tuple:
    """(d, re, im) with values[j] = (re[j] + im[j] i) / d over the least d."""
    d = 1
    for z in values:
        d = math.lcm(d, z.re.denominator, z.im.denominator)
    re = [z.re.numerator * (d // z.re.denominator) for z in values]
    im = [z.im.numerator * (d // z.im.denominator) for z in values]
    return d, re, im


class OpRef:
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
    def _coerce(other) -> "OpRef | None":
        if isinstance(other, OpRef):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return OpRef((_to_gauss(other),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return OpRef(self.coeff(j) + other.coeff(j) for j in range(n))

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
        return OpRef(-c for c in self._coeffs)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return OpRef()
        out = [gauss(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] = out[i + j] + a * b
        return OpRef(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, OpRef((1,)))

    def scale(self, c) -> "OpRef":
        c = _to_gauss(c)
        return OpRef(a * c for a in self._coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"OpRef({[c.pretty() for c in self._coeffs]})"

    # -- the operator calculus ------------------------------------------

    def evaluate(self, lam: GaussianRational) -> GaussianRational:
        """P(lam) by Horner's scheme; equals the eigenvalue on e^(lam x)."""
        lam = _to_gauss(lam)
        acc = gauss(0)
        for c in reversed(self._coeffs):
            acc = acc * lam + c
        return acc

    def shift(self, lam: GaussianRational) -> "OpRef":
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
        return OpRef(out)

    def apply(self, f: ComplexExpr) -> ComplexExpr:
        """P(D) f by Horner's rule on each frequency's Gaussian-integer vector:
        with lam = (p + qi)/s, R_n = A_n W and
        R_j = s R_(j+1)' + (p + qi) R_(j+1) + s^(n-j) A_j W, and the image
        is R_0 / (da du s^n)."""
        if self.is_zero():
            return ComplexExpr()
        da, are, aim = _integer_parts(self._coeffs)
        n = self.degree
        terms = []
        for (s, p, q), (du, ure, uim) in f.freqs.items():
            a, b = are[n], aim[n]
            rre = [a * u - b * v for u, v in zip(ure, uim)]
            rim = [a * v + b * u for u, v in zip(ure, uim)]
            spow = 1
            for j in range(n - 1, -1, -1):
                spow *= s
                a, b = are[j] * spow, aim[j] * spow
                nre = [p * x - q * y + a * u - b * v for x, y, u, v in zip(rre, rim, ure, uim)]
                nim = [p * y + q * x + a * v + b * u for x, y, u, v in zip(rre, rim, ure, uim)]
                for k in range(1, len(rre)):
                    nre[k - 1] += s * k * rre[k]
                    nim[k - 1] += s * k * rim[k]
                rre, rim = nre, nim
            lam, den = GaussianRational(Fraction(p, s), Fraction(q, s)), da * du * spow
            terms += [
                (GaussianRational(Fraction(x, den), Fraction(y, den)), k, lam)
                for k, (x, y) in enumerate(zip(rre, rim))
            ]
        return ComplexExpr(terms)

    def formal_derivative(self) -> "OpRef":
        """dP/dD by the power rule (a polynomial in D, not an action on f)."""
        return OpRef(self._coeffs[j] * j for j in range(1, len(self._coeffs)))

    def multiplicity_at(self, lam: GaussianRational) -> int:
        """Largest k with (D - lam)^k dividing P."""
        return self.shift(lam).valuation()

    def valuation(self) -> int:
        """Largest k with D^k dividing P: the index of the lowest nonzero coefficient."""
        if self.is_zero():
            raise ValueError("multiplicity is undefined for the zero operator")
        return next(k for k, c in enumerate(self._coeffs) if not c.is_zero())


def series_ref(R: OpRef, m: int) -> tuple:
    """Coefficients s_0..s_m of the truncated inverse of R, R(0) != 0."""
    r0 = R.coeff(0)
    if r0.is_zero():
        raise ValueError("series inversion needs a nonzero constant coefficient")
    inv_r0 = r0.inverse()
    s = [inv_r0]
    for j in range(1, m + 1):
        acc = gauss(0)
        for i in range(1, min(j, R.degree) + 1):
            acc = acc + R.coeff(i) * s[j - i]
        s.append(-acc * inv_r0)
    return tuple(s)
