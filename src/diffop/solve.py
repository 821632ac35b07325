"""Particular solutions of P(D) y = g by inverting the operator.

The right-hand side is a finite sum of terms q(x) e^(lam x) with polynomial
q and lam in Q(i) (real trig input arrives here already complexified).  For
each frequency lam the exponential shift rule turns

    P(D) y = q(x) e^(lam x)    into    P(D + lam) u = q(x),   y = e^(lam x) u,

so only polynomial right-hand sides remain.  Write P(D + lam) = D^k R(D)
with R(0) != 0; k is the resonance order, the multiplicity of lam as a root
of P.  On polynomials of degree <= m the inverse of R is the truncated
series S(D) = s_0 + s_1 D + ... + s_m D^m with R S = 1 mod D^(m+1), because
every D^j with j > m annihilates the polynomial.  Newton iteration finds it
from s_0 = 1/r_0 on Gaussian-integer vectors, each step S <- S (2 - R S)
doubling the number of exact coefficients.  The leftover D^k is undone by
antidifferentiating k times with all integration constants zero, which pins
one canonical particular solution.  Summing the per frequency pieces and
folding conjugate pairs back to cos/sin gives a real answer whenever the
problem was real; the fold itself re-checks conjugation symmetry, so a
symmetry bug cannot slip through silently.

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

from .expressions import (
    ORIGIN, ComplexExpr, RealExpr, RealTerm, _ordered, _product, _reduced, _scalar, _summed
)
from .operators import FactoredOperator, OperatorPoly
from .rationals import GaussianRational


@dataclass(frozen=True)
class InverseSeries:
    """Truncated inverse 1/R(D) valid on polynomials of degree <= order."""

    operator: OperatorPoly
    source: OperatorPoly
    order: int

    @property
    def coefficients(self) -> tuple:  # s_0..s_order, trailing zeros included
        return tuple(self.operator.coeff(j) for j in range(self.order + 1))


def series_invert(R: OperatorPoly, m: int) -> InverseSeries:
    """The inverse S of R mod D^(m+1), R(0) != 0, by Newton iteration (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, ch. 9): when R S = 1 mod D^k,
    S + S (1 - R S) is right mod D^2k, and 1 - R S has only entries k..2k-1.
    Each step is one gcd reduction of Gaussian-integer vectors."""
    d, rre, rim = R._v
    if not (rre and (rre[0] or rim[0])):
        raise ValueError("series inversion needs a nonzero constant coefficient")
    a, b = rre[0], rim[0]
    S = _reduced(a * a + b * b, [d * a], [-d * b])  # 1/r_0 = d (a - bi) / (a^2 + b^2)
    k = 1
    while k <= m:
        n = min(2 * k, m + 1)
        dt, tre, tim = _product((d, rre[:n], rim[:n]), S)
        error = (dt, [-x for x in tre[k:n]], [-y for y in tim[k:n]])
        de, ere, eim = _product((S[0], S[1][: n - k], S[2][: n - k]), error)
        S = _reduced(*_summed(S, (de, [0] * k + ere[: n - k], [0] * k + eim[: n - k])))
        k = n
    return InverseSeries(OperatorPoly._of(S), R, m)


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
        d, re, im = shifted._v
        series = series_invert(OperatorPoly._of((d, re[k:], im[k:])), len(gc.freqs[key][1]) - 1)
        applied = series.operator.apply(poly)
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
