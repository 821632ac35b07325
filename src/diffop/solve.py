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
one canonical particular solution.  For a real P the piece at conj(lam) is
the conjugate of the piece at lam, so each conjugate pair is solved once, at
Im lam > 0, and its partner mirrored.  The sum of the pieces becomes a
``RealExpr`` only through a conjugation symmetry check, so a symmetry bug
cannot slip through silently; the certificate checks the answer's symmetry
again before it applies P at half of the frequencies.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .expressions import (
    ORIGIN, ComplexExpr, RealExpr, _key, _ordered, _product, _reduced, _scalar, _summed
)
from .factor import FactoredOperator
from .operators import OperatorPoly
from .rationals import GaussianRational, Record


class InverseSeries(NamedTuple):
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


class FrequencyStep(NamedTuple):
    """Everything the pipeline did for one frequency group."""

    lam: GaussianRational
    rhs_poly: ComplexExpr
    shifted: OperatorPoly
    resonance: int
    series: InverseSeries
    series_applied: ComplexExpr
    integrated: ComplexExpr
    contribution: ComplexExpr


class SolveTrace(NamedTuple):
    operator: OperatorPoly
    rhs_complex: ComplexExpr
    steps: tuple


def _conjugate(v: tuple) -> tuple:
    """(d, re, im) -> (d, re, -im), the vector of the conjugate coefficients."""
    return v[0], v[1], [-y for y in v[2]]


def _mirrored(step: FrequencyStep) -> FrequencyStep:
    """The step at conj(lam) for a real operator and right-hand side: every
    field of the step at lam, conjugated."""
    op = lambda Q: OperatorPoly._of(_conjugate(Q._v))
    at = lambda f: ComplexExpr._of({(s, p, -q): _conjugate(v) for (s, p, q), v in f.freqs.items()})
    series = InverseSeries(op(step.series.operator), op(step.series.source), step.series.order)
    return FrequencyStep(
        step.lam.conjugate(), at(step.rhs_poly), op(step.shifted), step.resonance, series,
        at(step.series_applied), at(step.integrated), at(step.contribution),
    )


def solve_particular(P: OperatorPoly, g: RealExpr) -> Tuple[RealExpr, SolveTrace]:
    """One particular solution Y of P(D) y = g, with the worked steps.

    For a real P the step at a - bi, b > 0, is the conjugate of the step at
    a + bi, so only frequencies with b >= 0 are solved and the rest mirrored.
    Raises ValueError on the zero operator.  A ConjugateSymmetryError, from
    g's symmetry check before mirroring or from the final fold, means an
    internal bug, never bad input.
    """
    if P.is_zero():
        raise ValueError("cannot solve against the zero operator")
    gc = g.to_complex()
    keys = _ordered(gc.freqs)
    mirror = P.is_real()
    if mirror:
        gc.to_real()  # every mirrored key has its partner in g
    solved = {}
    for key in keys:
        if mirror and key[2] < 0:
            continue
        lam, poly = _scalar(key), ComplexExpr._of({ORIGIN: gc.freqs[key]})
        shifted = P.shift(lam)
        k = shifted.valuation()
        d, re, im = shifted._v
        series = series_invert(OperatorPoly._of((d, re[k:], im[k:])), len(gc.freqs[key][1]) - 1)
        applied = series.operator.apply(poly)
        integrated = antidifferentiate(applied, k) if k else applied
        contribution = ComplexExpr._of({key: integrated.freqs[ORIGIN]})
        solved[key] = FrequencyStep(lam, poly, shifted, k, series, applied, integrated, contribution)
    steps = tuple(solved.get(key) or _mirrored(solved[key[0], key[1], -key[2]]) for key in keys)
    Y = ComplexExpr._of({key: step.contribution.freqs[key] for key, step in zip(keys, steps)})
    return Y.to_real(), SolveTrace(P, gc, steps)


class KernelBasis(Record):
    """Ordered basis of the solution space of P(D) y = 0."""

    __slots__ = ("elements", "labels")

    def __init__(self, elements: tuple, labels: tuple):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

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
