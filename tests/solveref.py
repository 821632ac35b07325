"""Reference solve: every frequency solved in full, conjugate pairs included.

``solve_ref`` is the loop ``solve_particular`` ran before it mirrored the
step at a - bi from the step at a + bi for a real operator: one ``shift``,
one ``series_invert``, one series ``apply`` and one antidifferentiation at
each frequency of g, in ``_ordered`` order.  It builds the same
``FrequencyStep``s and ``SolveTrace``, so tests can hold the two solves
against each other step by step.
"""

from diffop.expressions import ORIGIN, ComplexExpr, _ordered, _scalar
from diffop.operators import OperatorPoly
from diffop.solve import FrequencyStep, SolveTrace, antidifferentiate, series_invert


def solve_ref(P: OperatorPoly, g):
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
