"""Shared builders for randomized tests.

Seeded random.Random generators (not hypothesis) drive the large counted
property suites so their case counts are exact and reproducible; hypothesis
covers the open-ended algebraic laws in the unit modules.
"""

from __future__ import annotations

import random
from fractions import Fraction

from diffop import (
    ComplexExpr,
    Factor,
    FactoredOperator,
    GaussianRational,
    OperatorPoly,
    RealExpr,
    RealTerm,
    gauss,
    parse_operator,
)


def op(source: str) -> OperatorPoly:
    """The operator a literal spells, through the parser."""
    return parse_operator(source).poly


def rexpr(*terms) -> RealExpr:
    """RealExpr from (coeff, k, alpha, beta, trig) tuples."""
    return RealExpr(
        RealTerm(Fraction(c), k, Fraction(a), Fraction(b), trig)
        for c, k, a, b, trig in terms
    )


def cexpr(*terms) -> ComplexExpr:
    """ComplexExpr from (coeff, k, lam) tuples; scalars coerce to gauss."""
    out = []
    for c, k, lam in terms:
        if not isinstance(c, GaussianRational):
            c = gauss(Fraction(c))
        if not isinstance(lam, GaussianRational):
            lam = gauss(Fraction(lam))
        out.append((c, k, lam))
    return ComplexExpr(out)


def rand_fraction(rng: random.Random, height: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if q or not nonzero:
            return q


def rand_gauss(rng: random.Random, height: int, nonzero: bool = False) -> GaussianRational:
    while True:
        z = gauss(rand_fraction(rng, height), rand_fraction(rng, height))
        if z or not nonzero:
            return z


def rand_complex_expr(
    rng: random.Random, max_terms: int = 3, max_k: int = 3, height: int = 3
) -> ComplexExpr:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append(
            (
                rand_gauss(rng, height),
                rng.randint(0, max_k),
                rand_gauss(rng, height),
            )
        )
    return ComplexExpr(terms)


def rand_operator(
    rng: random.Random, max_degree: int = 4, height: int = 4, real: bool = False
) -> OperatorPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [
        gauss(rand_fraction(rng, height)) if real else rand_gauss(rng, height)
        for _ in range(degree)
    ]
    lead = rand_gauss(rng, height, nonzero=True)
    if real:
        lead = gauss(rand_fraction(rng, height, nonzero=True))
    coeffs.append(lead)
    return OperatorPoly(coeffs)


def rand_rooted_operator(rng: random.Random, max_roots: int = 4, height: int = 5):
    """Real operator with planted roots in Q(i); returns (P, roots).

    Complex roots are planted together with their conjugates so the
    expansion stays real.  roots lists one representative per planted root
    (the one with non-negative imaginary part).
    """
    roots = []
    leading = rand_fraction(rng, 3, nonzero=True)
    factors = []
    for _ in range(rng.randint(1, max_roots)):
        mult = rng.randint(1, 3)
        if rng.random() < 0.5:
            r = gauss(rand_fraction(rng, height))
            factors.append(Factor(r.re, Fraction(0), mult))
        else:
            alpha = rand_fraction(rng, height)
            beta = abs(rand_fraction(rng, height, nonzero=True))
            r = gauss(alpha, beta)
            factors.append(Factor(alpha, beta, mult))
        roots.append((r, mult))
    P = FactoredOperator(leading, tuple(factors)).expand()
    return P, roots


def rand_real_rhs(
    rng: random.Random,
    max_atoms: int = 3,
    max_degree: int = 4,
    height: int = 3,
    forced_lam: GaussianRational | None = None,
) -> RealExpr:
    """Sum of up to max_atoms terms poly * exp * trig with rational data.

    When forced_lam is given, one atom is planted exactly at that frequency
    to force resonance against an operator having it as a root.
    """
    terms = []
    n_atoms = rng.randint(1, max_atoms)
    for i in range(n_atoms):
        if forced_lam is not None and i == 0:
            alpha, beta = forced_lam.re, forced_lam.im
        else:
            alpha = rand_fraction(rng, height)
            beta = abs(rand_fraction(rng, height)) if rng.random() < 0.5 else Fraction(0)
        degree = rng.randint(0, max_degree)
        coeff = rand_fraction(rng, height, nonzero=True)
        if beta > 0:
            trig = rng.choice(("cos", "sin"))
        else:
            trig = None
        terms.append(RealTerm(coeff, degree, alpha, beta, trig))
    return RealExpr(terms)


def trig_route_real(P: OperatorPoly, coeff: Fraction, beta: Fraction, trig: str) -> RealExpr:
    """Independent route for P(D) y = coeff * trig(beta x), non-resonant case.

    Splits P into even and odd parts, substitutes D^2 = -beta^2 so the
    operator collapses to a + b D, then rationalizes 1/(a + b D) against the
    conjugate.  Never touches shift or series code, so it can cross-check
    the main pipeline.
    """
    d2 = -beta * beta
    a = Fraction(0)
    b = Fraction(0)
    j = 0
    while j <= P.degree:
        c = P.coeff(j)
        assert c.im == 0, "real operators only"
        if j % 2 == 0:
            a += c.re * d2 ** (j // 2)
        else:
            b += c.re * d2 ** ((j - 1) // 2)
        j += 1
    den = a * a + b * b * beta * beta
    if den == 0:
        raise ValueError("resonant: i*beta is a root of P")
    # (a - bD) trig, divided by den
    if trig == "sin":
        terms = [
            RealTerm(coeff * a / den, 0, Fraction(0), beta, "sin"),
            RealTerm(-coeff * b * beta / den, 0, Fraction(0), beta, "cos"),
        ]
    else:
        terms = [
            RealTerm(coeff * a / den, 0, Fraction(0), beta, "cos"),
            RealTerm(coeff * b * beta / den, 0, Fraction(0), beta, "sin"),
        ]
    return RealExpr(terms)


def rand_factored(
    rng: random.Random, max_factors: int = 3, height: int = 3, max_mult: int = 3
) -> FactoredOperator:
    """Random factored operator with distinct rational factor data."""
    seen = set()
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        mult = rng.randint(1, max_mult)
        if rng.random() < 0.5:
            alpha, beta = rand_fraction(rng, height), Fraction(0)
        else:
            alpha = rand_fraction(rng, height)
            beta = abs(rand_fraction(rng, height, nonzero=True))
        if (alpha, beta) in seen:
            continue
        seen.add((alpha, beta))
        factors.append(Factor(alpha, beta, mult))
    if not factors:
        factors.append(Factor(Fraction(1), Fraction(0), 1))
    leading = rand_fraction(rng, height, nonzero=True)
    return FactoredOperator(leading, tuple(factors))
