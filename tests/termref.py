"""Reference algebra for sums of c x^k e^(lam x): the term-merge forms.

A ``TermSum`` is a tuple of ``ComplexTerm``s, at most one per (lam, k), zero
coefficients dropped, ordered by (lam.re, lam.im, k), and every operation
rebuilds it by merging terms one by one in ``GaussianRational`` arithmetic.
A ``RealRef`` is the same for real values: a tuple of plain
(coeff, k, alpha, beta, trig) tuples of ``Fraction``s, at most one per
(alpha, beta, k, trig), ordered by (alpha, beta, k, cos before sin).  Both
share no code with diffop's dense ``ComplexExpr`` and ``RealExpr`` (no
integer vectors, no frequency keys), so tests can hold the two against each
other.
"""

import math
from fractions import Fraction

from diffop import ComplexExpr, ComplexTerm, ConjugateSymmetryError, RealExpr, RealTerm, gauss


def sort_key(t: ComplexTerm) -> tuple:
    """A term's place in a TermSum: by (lam.re, lam.im, k)."""
    return (t.lam.re, t.lam.im, t.k)


class TermSum:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for t in terms:
            coeff, k, lam = (t.coeff, t.k, t.lam) if isinstance(t, ComplexTerm) else t
            merged[(lam, k)] = merged.get((lam, k), gauss(0)) + coeff
        kept = [ComplexTerm(c, k, lam) for (lam, k), c in merged.items() if not c.is_zero()]
        kept.sort(key=sort_key)
        self.terms = tuple(kept)

    @staticmethod
    def from_real(r: RealExpr) -> "TermSum":
        """Euler expansion of a real expression's terms."""
        return RealRef((t.coeff, t.k, t.alpha, t.beta, t.trig) for t in r.terms).to_complex()

    def expr(self) -> ComplexExpr:
        return ComplexExpr(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return TermSum(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(gauss(-1))

    def scale(self, c):
        return TermSum((t.coeff * c, t.k, t.lam) for t in self.terms)

    def __mul__(self, other):
        return TermSum(
            (a.coeff * b.coeff, a.k + b.k, a.lam + b.lam) for a in self.terms for b in other.terms
        )

    def differentiate(self):
        out = []
        for t in self.terms:
            if t.k:
                out.append((t.coeff * t.k, t.k - 1, t.lam))
            out.append((t.coeff * t.lam, t.k, t.lam))
        return TermSum(out)

    def frequencies(self) -> list:
        seen = []
        for t in self.terms:
            if t.lam not in seen:
                seen.append(t.lam)
        return seen

    def poly_at(self, lam) -> tuple:
        mine = {t.k: t.coeff for t in self.terms if t.lam == lam}
        return tuple(mine.get(k, gauss(0)) for k in range(max(mine, default=-1) + 1))

    def to_real(self) -> RealExpr:
        return RealRef.fold(self).expr()


class RealRef:
    """A real value as merged (coeff, k, alpha, beta, trig) terms, beta >= 0."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for c, k, alpha, beta, trig in terms:
            key = (Fraction(alpha), Fraction(beta), k, trig)
            merged[key] = merged.get(key, Fraction(0)) + Fraction(c)
        kept = [(c, k, alpha, beta, trig) for (alpha, beta, k, trig), c in merged.items() if c]
        kept.sort(key=lambda t: (t[2], t[3], t[1], t[4] == "sin"))
        self.terms = tuple(kept)

    @staticmethod
    def fold(ts: TermSum) -> "RealRef":
        """The real form of a conjugation-symmetric TermSum."""
        table = {(t.lam, t.k): t.coeff for t in ts.terms}
        out = []
        for t in ts.terms:
            lam, k, c = t.lam, t.k, t.coeff
            if lam.is_real():
                if not c.is_real():
                    raise ConjugateSymmetryError(
                        f"coefficient of x^{k} e^({lam.pretty()}x) is not real: {c.pretty()}"
                    )
                out.append((c.re, k, lam.re, Fraction(0), None))
                continue
            if table.get((lam.conjugate(), k)) != c.conjugate():
                raise ConjugateSymmetryError(
                    f"term x^{k} e^(({lam.pretty()})x) has no conjugate partner"
                )
            if lam.im > 0:
                out.append((2 * c.re, k, lam.re, lam.im, "cos"))
                out.append((-2 * c.im, k, lam.re, lam.im, "sin"))
        return RealRef(out)

    def expr(self) -> RealExpr:
        return RealExpr(RealTerm(*t) for t in self.terms)

    def to_complex(self) -> TermSum:
        """Euler expansion: cos and sin become half-sums of e^(+-i beta x)."""
        out = []
        for c, k, alpha, beta, trig in self.terms:
            up, down = gauss(alpha, beta), gauss(alpha, -beta)
            if trig is None:
                out.append((gauss(c), k, up))
            elif trig == "cos":
                out += [(gauss(c / 2), k, up), (gauss(c / 2), k, down)]
            else:
                out += [(gauss(0, -c / 2), k, up), (gauss(0, c / 2), k, down)]
        return TermSum(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, RealRef) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __sub__(self, other):
        return RealRef(self.terms + tuple((-c, *rest) for c, *rest in other.terms))

    def evaluate(self, x: float) -> float:
        total = 0
        for c, k, alpha, beta, trig in self.terms:
            value = float(c) * x**k * math.exp(float(alpha) * x)
            if trig is not None:
                value *= (math.cos if trig == "cos" else math.sin)(float(beta) * x)
            total += value
        return total
