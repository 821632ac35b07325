"""Presentation layer: plain text, LaTeX, and JSON for every value type.

Display walks RealExpr's fold, one group per frequency (alpha, beta).  It
pulls out a transcendental group's content, the gcd of its integer
numerators over their denominator, and the lowest power of x of each
cos/sin/exp part, so answers read the way they are written by hand:
`3/677*(26*cos(2*x) - sin(2*x))`, `-1/9*x^2*(2*x + 1)*exp(2*x)`.  Pure
polynomial groups print plainly.

Text and LaTeX are one layout walk (``_layout``) in two spellings: a
``_Spelling`` says how to write a rational, a power of x, a trig or exp
leaf, a product and a bracketed group, and nothing else.  So every layout
decision (grouping, common factor, lowest power, signs) is made once and
both formats agree on structure by construction.  Text output always
reparses to the same expression; LaTeX uses amsmath-safe macros only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .expressions import ComplexExpr, RealExpr
from .factor import FactoredOperator
from .operators import OperatorPoly
from .rationals import GaussianRational, rat_to_json, scalar_to_json


def _fmt_q_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _xpow(k: int) -> str:
    if k == 0:
        return ""
    return "x" if k == 1 else f"x^{k}"


def _xpow_latex(k: int) -> str:
    return f"x^{{{k}}}" if k >= 10 else _xpow(k)


class _Spelling(NamedTuple):
    """How one output format writes the pieces the layout walk places."""

    rational: Callable[[Fraction], str]
    xpow: Callable[[int], str]
    times: str  # multiplication joiner
    trig: str  # format of cos/sin(rate x), fields trig and arg
    exp: str  # format of e^(rate x), field arg
    group: str  # format of a bracketed sum of trig parts, field body


_TEXT = _Spelling(str, _xpow, "*", "{trig}({arg})", "exp({arg})", "({body})")
_LATEX = _Spelling(
    _fmt_q_latex, _xpow_latex, "", "\\{trig} {arg}", "e^{{{arg}}}", "\\left[{body}\\right]"
)


def _join_signed(pieces: list) -> str:
    """pieces are (sign, text); renders the signed sum."""
    out = []
    for i, (sign, text) in enumerate(pieces):
        if i == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append((" - " if sign < 0 else " + ") + text)
    return "".join(out)


def _rate_x(rate: Fraction, sp: _Spelling) -> str:
    if rate == 1:
        return "x"
    if rate == -1:
        return "-x"
    return f"{sp.rational(rate)}{sp.times}x"


def _monomial(c: Fraction, k: int, sp: _Spelling) -> str:
    if k == 0:
        return sp.rational(c)
    return sp.xpow(k) if c == 1 else f"{sp.rational(c)}{sp.times}{sp.xpow(k)}"


def _monomials(poly: dict, sp: _Spelling) -> list:
    """(sign, text) of each monomial of {k: coeff}, highest power first."""
    return [
        (1 if poly[k] > 0 else -1, _monomial(abs(poly[k]), k, sp))
        for k in sorted(poly, reverse=True)
    ]


def _part(poly: dict, leaf, sp: _Spelling) -> tuple:
    """(sign, text) of one plain/cos/sin part, lowest x power factored out."""
    m = min(poly)
    sign = 1 if poly[max(poly)] > 0 else -1
    shifted = {k - m: c * sign for k, c in poly.items()}
    if len(shifted) == 1:
        pieces = [_monomial(shifted[0], m, sp)]
    else:
        body = _join_signed(_monomials(shifted, sp))
        pieces = [sp.xpow(m), f"({body})"]
    pieces = [p for p in (*pieces, leaf) if p and p != "1"]
    return sign, sp.times.join(pieces) or "1"


def _layout(expr: RealExpr, sp: _Spelling) -> str:
    """The one layout walk behind render_text and render_latex.

    One group per frequency of RealExpr's fold.  A pure polynomial group
    prints as its monomials.  Any other group pulls out its content g/d, g the
    gcd of its numerators signed so the first part leads positive, then its
    exponential, and lays out its parts, each divided exactly by g, with _part.
    """
    pieces = []
    for alpha, beta, d, polys in expr._folded():
        if not alpha and not beta:
            (_, poly), = polys
            pieces += _monomials({k: Fraction(n, d) for k, n in poly.items()}, sp)
            continue
        first = polys[0][1]
        g = math.gcd(*(n for _, poly in polys for n in poly.values()))
        g = g if first[max(first)] > 0 else -g
        parts = [
            _part(
                {k: n // g for k, n in poly.items()},
                trig and sp.trig.format(trig=trig, arg=_rate_x(beta, sp)),
                sp,
            )
            for trig, poly in polys
        ]
        content = abs(Fraction(g, d))
        bits = [sp.rational(content)] if content != 1 else []
        exp = [sp.exp.format(arg=_rate_x(alpha, sp))] if alpha else []
        if len(parts) == 1:
            # the part's sign is +1 by the choice of g's sign
            bits += exp if parts[0][1] == "1" else [parts[0][1], *exp]
        else:
            bits += [*exp, sp.group.format(body=_join_signed(parts))]
        pieces.append((1 if g > 0 else -1, sp.times.join(bits)))
    return _join_signed(pieces) or "0"


def render_text(expr: RealExpr) -> str:
    return _layout(expr, _TEXT)


def render_latex(expr: RealExpr) -> str:
    # the walk spells every sum with spaced signs; LaTeX sets them tight
    return _layout(expr, _LATEX).replace(" - ", "-").replace(" + ", "+")


# -- JSON ---------------------------------------------------------------------


def expr_to_json(expr: RealExpr) -> list:
    """The terms of ``RealExpr.terms``, read straight off the fold."""
    return [
        {
            "coeff": rat_to_json(Fraction(n, d)),
            "k": k,
            "alpha": rat_to_json(alpha),
            "beta": rat_to_json(beta),
            "trig": trig,
        }
        for alpha, beta, k, n, d, trig in expr._flattened()
    ]


# -- operators ----------------------------------------------------------------


def _coeff_pieces(c: GaussianRational, j: int) -> tuple:
    dpow = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
    if c.is_real():
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        if not dpow:
            return sign, str(mag)
        if mag == 1:
            return sign, dpow
        return sign, f"{mag}*{dpow}"
    body = f"({c.pretty()})"
    return 1, f"{body}*{dpow}" if dpow else body


def render_operator(P: OperatorPoly) -> str:
    if P.is_zero():
        return "0"
    pieces = []
    for j in range(P.degree, -1, -1):
        c = P.coeff(j)
        if not c.is_zero():
            pieces.append(_coeff_pieces(c, j))
    return _join_signed(pieces)


def _d_minus(alpha: Fraction) -> str:
    """D - alpha, bracketed unless alpha is 0."""
    return "D" if alpha == 0 else f"(D-{alpha})" if alpha > 0 else f"(D+{-alpha})"


def render_factored(F: FactoredOperator) -> str:
    bits = [
        (_d_minus(f.alpha) if f.beta == 0 else f"({_d_minus(f.alpha)}^2+{f.beta * f.beta})")
        + (f"^{f.mult}" if f.mult > 1 else "")
        for f in F.factors
    ]
    if not bits:
        return str(F.leading)
    prefix = "-" if F.leading == -1 else "" if F.leading == 1 else f"{F.leading}*"
    return prefix + "*".join(bits)


# -- complex expressions and traces (explain output) --------------------------


def render_complex_text(expr: ComplexExpr) -> str:
    if expr.is_zero():
        return "0"
    bits = []
    for t in expr.terms:
        factors = [f"({t.coeff.pretty()})"]
        if t.k:
            factors.append(_xpow(t.k))
        if not t.lam.is_zero():
            factors.append(f"e^(({t.lam.pretty()})x)")
        bits.append("*".join(factors))
    return " + ".join(bits)


def trace_to_json(trace) -> dict:
    """JSON form of a solve.SolveTrace: one object per frequency step."""
    steps = []
    for step in trace.steps:
        steps.append(
            {
                "frequency": step.lam.to_json(),
                "frequency_text": step.lam.pretty(),
                "rhs_polynomial": render_complex_text(step.rhs_poly),
                "shifted_operator": render_operator(step.shifted),
                "resonance_order": step.resonance,
                "series": [scalar_to_json(s) for s in step.series.coefficients],
                "series_text": [s.pretty() for s in step.series.coefficients],
                "after_series": render_complex_text(step.series_applied),
                "after_integration": render_complex_text(step.integrated),
                "contribution": render_complex_text(step.contribution),
            }
        )
    return {"operator": trace.operator.to_json(), "steps": steps}


def trace_to_text(trace) -> str:
    """The worked steps of a solve.SolveTrace, one indented block per frequency."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        lines.append(f"step {i}: frequency lambda = {step.lam.pretty()}")
        lines.append(f"  polynomial part: {render_complex_text(step.rhs_poly)}")
        lines.append(f"  shifted operator P(D+lambda): {render_operator(step.shifted)}")
        lines.append(f"  resonance order k: {step.resonance}")
        series = " + ".join(
            f"({s.pretty()})*D^{j}" if j else f"({s.pretty()})"
            for j, s in enumerate(step.series.coefficients)
        )
        lines.append(f"  truncated inverse series: {series}")
        lines.append(f"  series applied: {render_complex_text(step.series_applied)}")
        if step.resonance:
            lines.append(
                f"  after D^-{step.resonance} (constants zero): {render_complex_text(step.integrated)}"
            )
        lines.append(f"  contribution: {render_complex_text(step.contribution)}")
    return "\n".join(lines)
