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
one canonical particular solution.  Summing the per frequency pieces gives
a real answer whenever the problem was real.  The sum becomes a ``RealExpr``
only through a conjugation symmetry check, so a symmetry bug cannot slip
through silently; its cos/sin terms are folded out when it is rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .expressions import (
    ORIGIN, ComplexExpr, RealExpr, _key, _ordered, _product, _reduced, _scalar, _summed
)
from .factor import FactoredOperator
from .operators import OperatorPoly
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
        s, p, q = _key(GaussianRational._raw(f.alpha, f.beta))
        for j in range(f.mult):
            zero, one = [0] * (j + 1), [0] * j + [1]
            if not q:  # x^j e^(ax)
                parts = [{(s, p, 0): (1, one, zero)}]
            else:  # cos(bx) is 1/2 at a +- bi; sin(bx) is -i/2 at a + bi and i/2 at a - bi
                cos = {(s, p, q): (2, one, zero), (s, p, -q): (2, one, zero)}
                parts = [cos, {(s, p, q): (2, zero, [0] * j + [-1]), (s, p, -q): (2, zero, one)}]
            elements += [RealExpr._of(ComplexExpr._of(freqs)) for freqs in parts]
    labels = tuple(f"C{i + 1}" for i in range(len(elements)))
    return KernelBasis(tuple(elements), labels)
