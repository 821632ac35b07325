"""Reference factored form: root data read in ``Fraction`` arithmetic.

``from_bases_ref`` is the ``FactoredOperator.from_bases`` diffop used before
it read roots off the integer vectors: each base is made monic in
``Fraction``s, a quadratic's discriminant p^2 - 4q is a ``Fraction`` whose
square root comes from ``rat_sqrt``, and repeats are merged afterwards by
``_merge_factors``.  ``render_factored_ref`` is the renderer of the same
time, which spelled D - alpha separately for linear and quadratic factors.

Both work on plain data: a base is a list of ``GaussianRational``
coefficients, low to high, and a factored operator is
(leading, ((alpha, beta, mult), ...)).  Neither shares code with
``diffop.factor`` or ``diffop.render``, so tests can hold the two against
each other, exception messages included.
"""

import math
from fractions import Fraction

from diffop import UnfactorableOverGaussianRationals


def rat_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def _factor(alpha: Fraction, beta: Fraction, mult: int) -> tuple:
    # the checks of Factor.__post_init__
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if mult < 1:
        raise ValueError("multiplicity must be positive")
    return Fraction(alpha), Fraction(beta), mult


def _merge_factors(factors: list) -> list:
    """Combine repeats of the same root data, keeping first-appearance order."""
    order = []
    total: dict = {}
    for alpha, beta, mult in factors:
        key = (alpha, beta)
        if key not in total:
            order.append(key)
            total[key] = 0
        total[key] += mult
    return [_factor(a, b, total[(a, b)]) for a, b in order]


def from_bases_ref(leading, bases) -> tuple:
    """(leading, factors) of (coefficient list, multiplicity) pairs."""
    leading = Fraction(leading)
    factors = []
    for coeffs, mult in bases:
        coeffs = list(coeffs)
        while coeffs and not (coeffs[-1].re or coeffs[-1].im):
            coeffs.pop()
        if not coeffs:
            raise ValueError("zero polynomial cannot be a factor")
        if any(c.im for c in coeffs):
            raise ValueError("factor bases must have real coefficients")
        re = [c.re for c in coeffs]
        degree = len(re) - 1
        leading *= re[-1] ** mult
        monic = [x / re[-1] for x in re]
        if degree == 0:
            continue
        if degree == 1:
            factors.append(_factor(-monic[0], Fraction(0), mult))
            continue
        if degree == 2:
            q, p = monic[0], monic[1]
            disc = p * p - 4 * q
            if disc == 0:
                factors.append(_factor(-p / 2, Fraction(0), 2 * mult))
                continue
            root = rat_sqrt(abs(disc))
            if root is None:
                raise UnfactorableOverGaussianRationals(
                    f"quadratic factor D^2 + ({p})D + ({q}) has irrational roots"
                )
            if disc > 0:
                factors.append(_factor((-p + root) / 2, Fraction(0), mult))
                factors.append(_factor((-p - root) / 2, Fraction(0), mult))
            else:
                factors.append(_factor(-p / 2, root / 2, mult))
            continue
        raise ValueError(f"factor base of degree {degree} not supported")
    factors = tuple(_merge_factors(factors))
    if not leading:  # the check of FactoredOperator.__post_init__
        raise ValueError("leading coefficient must be nonzero")
    return leading, factors


def render_factored_ref(leading: Fraction, factors) -> str:
    bits = []
    if leading == -1:
        prefix = "-"
    elif leading != 1:
        prefix = ""
        bits.append(str(leading))
    else:
        prefix = ""
    for alpha, beta, mult in factors:
        if beta == 0:
            if alpha == 0:
                base = "D"
            elif alpha > 0:
                base = f"(D-{alpha})"
            else:
                base = f"(D+{-alpha})"
        else:
            inner = "D^2" if alpha == 0 else (
                f"(D-{alpha})^2" if alpha > 0 else f"(D+{-alpha})^2"
            )
            base = f"({inner}+{beta * beta})"
        bits.append(base + (f"^{mult}" if mult > 1 else ""))
    if not bits:
        bits.append(str(leading))
        prefix = ""
    return prefix + "*".join(bits)
