"""Answer verification, independent of how the answer was produced.

The primary check is exact: apply the operator to the candidate and compare
with the right-hand side in canonical form, where equality is structural.
The numeric spot check is a defense against a systematically wrong
canonical form, evaluating the two sides through different code paths
(complex exponentials via cmath against real trig terms via math).  No CLI
command calls it; the tests and ``scripts/worked_examples.py`` run it
beside the exact check.
"""

from __future__ import annotations

import math
from typing import Optional

from .expressions import ComplexExpr, RealExpr
from .operators import OperatorPoly
from .rationals import Record
from .solve import KernelBasis

STANDARD_POINTS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.3, -1.3, 2.7)


class Verdict(Record):
    __slots__ = ("status", "residual", "detail")

    def __init__(self, status: str, residual: Optional[RealExpr] = None, detail: str = ""):
        object.__setattr__(self, "status", status)  # "exact" or "residual"
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "detail", detail)

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"


EXACT = Verdict("exact")


def real_image(P: OperatorPoly, Y: RealExpr) -> RealExpr:
    """P(D)Y, checked real.  Y's symmetry is re-checked in linear time, so a real
    P is applied at the frequencies a + bi with b >= 0 only and each b > 0 image
    is mirrored to a - bi; a complex P is applied at every frequency."""
    value, real = Y.to_complex(), P.is_real()
    value.to_real()
    half = {key: v for key, v in value.freqs.items() if key[2] >= 0 or not real}
    image = P.apply(ComplexExpr._of(half)).freqs
    if real:
        image.update({(s, p, -q): (d, re, [-y for y in im])
                      for (s, p, q), (d, re, im) in image.items() if q > 0})
    return ComplexExpr._of(image).to_real()


def check_particular(P: OperatorPoly, g: RealExpr, Y: RealExpr) -> Verdict:
    """Exact symbolic residual P(D)Y - g; empty means Y solves the equation.

    ``real_image`` checks Y and the image P(D)Y conjugation-symmetric
    (ConjugateSymmetryError otherwise), and the image is compared with g as
    values: both are canonical vectors, so equality is structural and no
    real term is built.
    """
    image = real_image(P, Y)
    if image == g:
        return EXACT
    return Verdict("residual", image - g)


def check_kernel(P: OperatorPoly, basis: KernelBasis) -> Verdict:
    """Exact iff the basis has degree(P) elements and P kills each one."""
    if len(basis) != P.degree:
        return Verdict(
            "residual",
            None,
            f"basis has {len(basis)} elements but the operator has degree {P.degree}",
        )
    for label, element in zip(basis.labels, basis.elements):
        image = real_image(P, element)
        if not image.is_zero():
            return Verdict("residual", image, f"{label} is not annihilated")
    return EXACT


def numeric_spot_check(
    P: OperatorPoly, g: RealExpr, Y: RealExpr, points=STANDARD_POINTS
) -> float:
    """Max relative deviation |P(D)Y - g| / (1 + |g|) over the points.

    P(D)Y is applied exactly but evaluated through the complex path, while
    g is evaluated through the real path, so the comparison crosses both
    representations.  A point where either side overflows a float (say
    exp(1000 x) at x = 1) counts as math.inf: the identity could not be
    confirmed there, so the result fails any tolerance.
    """
    applied = P.apply(Y.to_complex())
    worst = 0.0
    for x in points:
        try:
            gx = g.evaluate(x)
            deviation = abs(applied.evaluate(x) - gx) / (1.0 + abs(gx))
        except OverflowError:
            return math.inf
        if not math.isfinite(deviation):  # inf, or nan from inf - inf
            return math.inf
        worst = max(worst, deviation)
    return worst
