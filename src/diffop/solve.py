"""Particular solutions of P(D) y = g by inverting the operator.

The right-hand side is a finite sum of terms q(x) e^(lam x) with polynomial
q and lam in Q(i) (real trig input arrives here already complexified).  For
each frequency lam the exponential shift rule turns

    P(D) y = q(x) e^(lam x)    into    P(D + lam) u = q(x),   y = e^(lam x) u,

so only polynomial right-hand sides remain.  Write P(D + lam) = D^k R(D)
with R(0) != 0; k is the resonance order, the multiplicity of lam as a root
of P.  On polynomials of degree <= m the inverse of R is the truncated
series S(D) = s_0 + s_1 D + ... + s_m D^m fixed by the convolution equations

    s_0 = 1/r_0,    s_j = -(r_1 s_{j-1} + ... + r_j s_0)/r_0,

because every D^j with j > m annihilates the polynomial.  The leftover D^k
is undone by antidifferentiating k times with all integration constants
zero, which pins one canonical particular solution.  Summing the per
frequency pieces and folding conjugate pairs back to cos/sin gives a real
answer whenever the problem was real; the fold itself re-checks conjugation
symmetry, so a symmetry bug cannot slip through silently.

Two independent closed forms are implemented alongside the pipeline as
cross-checks: ``exponential_input`` (the A x^k e^(a x) / P^(k)(a) formula)
and ``resonant_trig_solution`` (resonant cos/sin under powers of D^2 + b^2).
They are deliberately not used by ``solve_particular``; agreeing with it up
to a kernel element is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .expressions import ORIGIN, ComplexExpr, RealExpr, RealTerm, _ordered, _reduced, _scalar
from .operators import FactoredOperator, OperatorPoly
from .rationals import GaussianRational, gauss


@dataclass(frozen=True)
class InverseSeries:
    """Truncated inverse 1/R(D) valid on polynomials of degree <= order."""

    coefficients: tuple
    source: OperatorPoly
    order: int


def series_invert(R: OperatorPoly, m: int) -> InverseSeries:
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
    return InverseSeries(tuple(s), R, m)


def antidifferentiate(p: ComplexExpr, k: int) -> ComplexExpr:
    """k-fold antiderivative of a pure polynomial, integration constants zero.

    Each monomial maps by x^j -> x^(j+k) * j!/(j+k)!, on the vector as the
    integer (m+k)! j!/(j+k)! over (m+k)! for a polynomial of degree m.
    """
    if k < 0:
        raise ValueError("negative antidifferentiation order")
    if any(key != ORIGIN for key in p.freqs):
        raise ValueError("antidifferentiate expects a polynomial (lam = 0)")
    if p.is_zero():
        return p
    d, re, im = p.freqs[ORIGIN]
    whole = math.factorial(len(re) - 1 + k)
    scale = [whole // math.perm(j + k, k) for j in range(len(re))]
    nre = [0] * k + [f * x for f, x in zip(scale, re)]
    nim = [0] * k + [f * y for f, y in zip(scale, im)]
    return ComplexExpr._of({ORIGIN: _reduced(d * whole, nre, nim)})


@dataclass(frozen=True)
class FrequencyStep:
    """Everything the pipeline did for one frequency group."""

    lam: GaussianRational
    rhs_poly: ComplexExpr
    shifted: OperatorPoly
    resonance: int
    series: InverseSeries
    series_applied: ComplexExpr
    integrated: ComplexExpr
    contribution: ComplexExpr


@dataclass(frozen=True)
class SolveTrace:
    operator: OperatorPoly
    rhs_complex: ComplexExpr
    steps: tuple


def solve_particular(P: OperatorPoly, g: RealExpr) -> Tuple[RealExpr, SolveTrace]:
    """One particular solution Y of P(D) y = g, with the worked steps.

    Raises ValueError on the zero operator.  A ConjugateSymmetryError out of
    the final fold means an internal bug, never bad input.
    """
    if P.is_zero():
        raise ValueError("cannot solve against the zero operator")
    gc = g.to_complex()
    steps = []
    total = {}
    for key in _ordered(gc.freqs):
        lam = _scalar(key)
        poly = ComplexExpr._of({ORIGIN: gc.freqs[key]})
        shifted = P.shift(lam)
        k = shifted.valuation()
        stripped = OperatorPoly(shifted.coeffs[k:])
        series = series_invert(stripped, len(gc.freqs[key][1]) - 1)
        applied = OperatorPoly(series.coefficients).apply(poly)
        integrated = antidifferentiate(applied, k) if k else applied
        total[key] = integrated.freqs[ORIGIN]
        contribution = ComplexExpr._of({key: total[key]})
        steps.append(
            FrequencyStep(lam, poly, shifted, k, series, applied, integrated, contribution)
        )
    Y = ComplexExpr._of(total).to_real()
    return Y, SolveTrace(P, gc, tuple(steps))


def exponential_input(P: OperatorPoly, A: GaussianRational, alpha: GaussianRational) -> ComplexExpr:
    """Closed form for P(D) y = A e^(alpha x): Y = A x^k e^(alpha x) / P^(k)(alpha).

    k is the multiplicity of alpha as a root of P; the k-th derivative of P
    cannot vanish there, so the division is always legal.
    """
    if P.is_zero():
        raise ValueError("cannot solve against the zero operator")
    k = P.multiplicity_at(alpha)
    deriv = P
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


@dataclass(frozen=True)
class KernelBasis:
    """Ordered basis of the solution space of P(D) y = 0."""

    elements: tuple
    labels: tuple

    def __len__(self) -> int:
        return len(self.elements)


def kernel_basis(F: FactoredOperator) -> KernelBasis:
    """Basis functions read off the factored form, in factor order.

    (D - r)^m contributes x^j e^(rx) for j < m; ((D-a)^2 + b^2)^m
    contributes x^j e^(ax) cos(bx) and x^j e^(ax) sin(bx) for j < m,
    cos before sin within each j.
    """
    elements = []
    for f in F.factors:
        for j in range(f.mult):
            if f.beta == 0:
                elements.append(RealExpr([RealTerm(1, j, f.alpha, 0, None)]))
            else:
                elements.append(RealExpr([RealTerm(1, j, f.alpha, f.beta, "cos")]))
                elements.append(RealExpr([RealTerm(1, j, f.alpha, f.beta, "sin")]))
    labels = tuple(f"C{i + 1}" for i in range(len(elements)))
    return KernelBasis(tuple(elements), labels)
