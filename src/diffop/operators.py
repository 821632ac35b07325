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

``shift`` implements the second exactly, and the constant term of
P(D + lam) is the P(lam) of the first, which is what lets the solver
replace calculus with arithmetic in Q(i).  ``apply`` runs
Horner's rule on the third, frequency by frequency, directly on the
Gaussian-integer vectors a ``ComplexExpr`` holds, and returns one.  At
frequency 0, where the solver applies its series, D only differentiates and
``apply`` is one correlation in the factorial basis; elsewhere lam ties
every power of D to every entry, and Horner stays.  It is the certificate's
path and must not go through ``shift``, so the two stay independent.

An operator is held as one reduced Gaussian-integer vector (d, re, im),
the form of one frequency of a ``ComplexExpr`` (the fraction-free scheme of
von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).  ``shift``
and ``apply`` run on plain ints with the vector helpers of ``expressions``,
and each result is reduced by one gcd.  An operator has no ring operations
of its own: the parser forms sums, products and powers as values at
frequency 0, and ``FactoredOperator.expand`` multiplies out bases on the
vectors.  A real operator has zero imaginary parts, so shifting by a
complex frequency keeps the representation; the zero operator is
(1, [], []).  ``coeffs`` and ``coeff`` build ``GaussianRational`` values
only for the API, the trace and rendering.  The factored form of an
operator is ``factor``'s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Optional

from .expressions import ComplexExpr, _integer_parts, _key, _reduced, _scalar
from .rationals import GaussianRational, gauss, scalar_to_json


def _to_gauss(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


def _correlated(a: list, w: list) -> list:
    """sum_j a_j w_(k+j) for each k < len(w), skipped when a or w is all zeros."""
    if not (any(a) and any(w)):
        return [0] * len(w)
    return [sum(map(mul, a, w[k:])) for k in range(len(w))]


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

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        d, re, im = self._v
        return hash((d, *re, *im))

    def __repr__(self):
        return f"OperatorPoly({[c.pretty() for c in self.coeffs]})"

    # -- the operator calculus ------------------------------------------

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
        """P(D) f, frequency by frequency of f, for a_j = A_j/da and u = W/du.

        At frequency 0, D^j x^i = i!/(i-j)! x^(i-j), so with U_i = i! u_i the
        image is the correlation k! (P(D)u)_k = sum_j a_j U_(k+j), and each
        term of sum_j A_j (k+j)! W_(k+j) is divisible by k!.  A correlation with
        an all-zero real or imaginary part, as when P or u is real, is skipped.

        Elsewhere D(u e^(lam x)) = (u' + lam u) e^(lam x) mixes lam into every
        entry, so Horner's rule runs: P(D)(u e^(lam x)) = r_0 e^(lam x) with
        r_n = a_n u and r_j = r_(j+1)' + lam r_(j+1) + a_j u.  With
        lam = (p + qi)/s the scaled R_j = da du s^(n-j) r_j obey

            R_n = A_n W,   R_j = s R_(j+1)' + (p + qi) R_(j+1) + s^(n-j) A_j W

        and r_0 = R_0 / (da du s^n).  Each step is one comprehension per part,
        with s R' folded in.  The result is reduced once per frequency, and no
        step goes through ``shift``.
        """
        da, are, aim = self._v
        n = len(are) - 1
        if n < 0:
            return ComplexExpr._of({})
        freqs = {}
        for lam, (du, ure, uim) in f.freqs.items():
            s, p, q = lam
            spow = 1
            if not (p or q):  # frequency 0
                fac = list(accumulate(range(1, len(ure)), mul, initial=1))
                wre, wim = list(map(mul, fac, ure)), list(map(mul, fac, uim))
                rre = [x - y for x, y in zip(_correlated(are, wre), _correlated(aim, wim))]
                rim = [x + y for x, y in zip(_correlated(are, wim), _correlated(aim, wre))]
                rre = [x // c for x, c in zip(rre, fac)]
                rim = [y // c for y, c in zip(rim, fac)]
            else:
                a, b = are[n], aim[n]
                rre = [a * u - b * v for u, v in zip(ure, uim)]
                rim = [a * v + b * u for u, v in zip(ure, uim)]
                sk = [*range(s, s * len(ure), s), 0]  # the weights of s R', 0 past its end
                for j in range(n - 1, -1, -1):
                    spow *= s
                    a, b = are[j] * spow, aim[j] * spow
                    r = zip(rre, rim, ure, uim, sk, rre[1:] + [0])
                    i = zip(rre, rim, ure, uim, sk, rim[1:] + [0])
                    rre = [p * x - q * y + a * u - b * v + c * z for x, y, u, v, c, z in r]
                    rim = [p * y + q * x + a * v + b * u + c * z for x, y, u, v, c, z in i]
            v = _reduced(da * du * spow, rre, rim)
            if v is not None:
                freqs[lam] = v
        return ComplexExpr._of(freqs)

    def valuation(self) -> int:
        """Largest k with D^k dividing P: the index of the lowest nonzero coefficient."""
        if self.is_zero():
            raise ValueError("multiplicity is undefined for the zero operator")
        return next(k for k, (x, y) in enumerate(zip(*self._v[1:])) if x or y)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coeffs]


_ZERO = (1, [], [])  # the vector of the zero operator

D = OperatorPoly((0, 1))
