"""Reference algebra for sums of c x^k e^(lam x): the term-merge form.

A ``TermSum`` is a tuple of ``ComplexTerm``s, at most one per (lam, k), zero
coefficients dropped, ordered by (lam.re, lam.im, k), and every operation
rebuilds it by merging terms one by one in ``GaussianRational`` arithmetic.
It shares no code with diffop's dense ``ComplexExpr`` (no integer vectors,
no frequency keys), so tests can hold the two against each other.
"""

from fractions import Fraction

from diffop import ComplexExpr, ComplexTerm, ConjugateSymmetryError, RealExpr, RealTerm, gauss


class TermSum:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for t in terms:
            coeff, k, lam = (t.coeff, t.k, t.lam) if isinstance(t, ComplexTerm) else t
            merged[(lam, k)] = merged.get((lam, k), gauss(0)) + coeff
        kept = [ComplexTerm(c, k, lam) for (lam, k), c in merged.items() if not c.is_zero()]
        kept.sort(key=ComplexTerm.sort_key)
        self.terms = tuple(kept)

    @staticmethod
    def from_real(r: RealExpr) -> "TermSum":
        """Euler expansion of a real expression."""
        out = []
        for t in r.terms:
            up, down = gauss(t.alpha, t.beta), gauss(t.alpha, -t.beta)
            if t.trig is None:
                out.append((gauss(t.coeff), t.k, up))
            elif t.trig == "cos":
                out += [(gauss(t.coeff / 2), t.k, up), (gauss(t.coeff / 2), t.k, down)]
            else:
                out += [(gauss(0, -t.coeff / 2), t.k, up), (gauss(0, t.coeff / 2), t.k, down)]
        return TermSum(out)

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
        table = {(t.lam, t.k): t.coeff for t in self.terms}
        out = []
        for t in self.terms:
            lam, k, c = t.lam, t.k, t.coeff
            if lam.is_real():
                if not c.is_real():
                    raise ConjugateSymmetryError(
                        f"coefficient of x^{k} e^({lam.pretty()}x) is not real: {c.pretty()}"
                    )
                out.append(RealTerm(c.re, k, lam.re, Fraction(0), None))
                continue
            if table.get((lam.conjugate(), k)) != c.conjugate():
                raise ConjugateSymmetryError(
                    f"term x^{k} e^(({lam.pretty()})x) has no conjugate partner"
                )
            if lam.im > 0:
                if c.re:
                    out.append(RealTerm(2 * c.re, k, lam.re, lam.im, "cos"))
                if c.im:
                    out.append(RealTerm(-2 * c.im, k, lam.re, lam.im, "sin"))
        return RealExpr(out)
