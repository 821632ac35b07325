"""Reference factorizer over Q(i): rational-root and quadratic-divisor search.

This is the trial-division search diffop used before its modular factorizer:
candidate roots p/q with p dividing the trailing and q the leading
coefficient, then every primitive integer quadratic e D^2 + u D + v with
e | leading, v | trailing and 4ev - u^2 a positive square.  It shares no code
with ``diffop.factor.factor_exact`` beyond ``FactoredOperator``, so tests can
hold the two against each other: same factors in the same order, same
multiplicities, same residual message.  It is exponential in the size of the
coefficients, so tests keep them small.
"""

import math
from fractions import Fraction
from typing import Optional

from diffop import D, FactoredOperator, OperatorPoly, UnfactorableOverGaussianRationals


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
