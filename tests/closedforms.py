"""Closed-form particular solutions, kept as cross-checks on the pipeline.

``exponential_input`` is the A x^k e^(a x) / P^(k)(a) formula and
``resonant_trig_solution`` the resonant cos/sin answer under powers of
D^2 + b^2.  Neither uses ``solve_particular``, its shift or its series (the
multiplicity, derivatives and values of P are ``OpRef``'s), so agreeing with
the pipeline up to a kernel element is evidence, not circularity.
"""

import math
from fractions import Fraction

from diffop import ComplexExpr, GaussianRational, OperatorPoly, RealExpr, RealTerm
from opref import OpRef


def exponential_input(P: OperatorPoly, A: GaussianRational, alpha: GaussianRational) -> ComplexExpr:
    """Closed form for P(D) y = A e^(alpha x): Y = A x^k e^(alpha x) / P^(k)(alpha).

    k is the multiplicity of alpha as a root of P; the k-th derivative of P
    cannot vanish there, so the division is always legal.
    """
    if P.is_zero():
        raise ValueError("cannot solve against the zero operator")
    ref = OpRef(P.coeffs)
    k = ref.multiplicity_at(alpha)
    deriv = ref
    for _ in range(k):
        deriv = deriv.formal_derivative()
    denom = deriv.evaluate(alpha)
    return ComplexExpr((((A / denom), k, alpha),))


def resonant_trig_solution(beta: Fraction, k: int, trig: str) -> RealExpr:
    """Particular solution of (D^2 + beta^2)^k y = cos(beta x) or sin(beta x).

    The magnitude is always x^k / (k! (2 beta)^k).  For even k the trig
    function survives with sign (-1)^(k/2); for odd k = 2p+1 it swaps, with
    sign (-1)^p going cos -> sin and (-1)^(p+1) going sin -> cos.
    """
    beta = Fraction(beta)
    if beta <= 0 or k < 1 or trig not in ("cos", "sin"):
        raise ValueError("need beta > 0, k >= 1, trig in {cos, sin}")
    magnitude = Fraction(1, math.factorial(k)) / (2 * beta) ** k
    if k % 2 == 0:
        sign = -1 if (k // 2) % 2 else 1
        out_trig = trig
    else:
        p = (k - 1) // 2
        if trig == "cos":
            sign = -1 if p % 2 else 1
            out_trig = "sin"
        else:
            sign = -1 if (p + 1) % 2 else 1
            out_trig = "cos"
    return RealExpr([RealTerm(sign * magnitude, k, Fraction(0), beta, out_trig)])
