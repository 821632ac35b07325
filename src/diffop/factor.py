"""The factored form of an operator, and exact factorization over Q(i).

``factor_exact`` splits a real-rational operator into rational linear
factors and irreducible quadratics (D-a)^2 + b^2 with rational a and b,
by modular roots rather than a search (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 5, 14, 15).  It takes the square-free part g of the
integer polynomial f (f itself when gcd(f, f') = 1 modulo the least prime
p = 1 mod 4 that spares its leading coefficient, else by a remainder
sequence over Z) and finds its roots modulo the least prime p = 1 mod 4
that keeps g square-free (so that i exists mod p): by evaluating g at every
residue while p * deg g is small, else as gcd(g, x^p - x) split by
equal-degree splitting.  It Newton-lifts them, each with the inverse of g'
there, modulo a power of p large enough for the bounds on root height.
Rational roots and conjugate pairs are then read off the lifted roots, and
each candidate is kept only if it divides exactly over Z, so the modular
side never decides the answer.  Roots outside Q(i) raise
UnfactorableOverGaussianRationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .expressions import InternalInvariantError, _convolved, _product, _reduced
from .operators import D, OperatorPoly
from .rationals import Record, power


class UnfactorableOverGaussianRationals(ValueError):
    """The operator has a root outside Q(i); no exact factorization exists here."""


class Factor(Record):
    """One real factor of an operator, to a power.

    beta == 0 encodes the linear factor (D - alpha); beta > 0 encodes the
    irreducible quadratic (D - alpha)^2 + beta^2, whose complex roots are
    alpha +- i beta.
    """

    __slots__ = ("alpha", "beta", "mult")

    def __init__(self, alpha: Fraction, beta: Fraction, mult: int):
        object.__setattr__(self, "alpha", Fraction(alpha))
        object.__setattr__(self, "beta", Fraction(beta))
        object.__setattr__(self, "mult", mult)
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if mult < 1:
            raise ValueError("multiplicity must be positive")

    @property
    def degree(self) -> int:
        return 1 if self.beta == 0 else 2

    def base(self) -> OperatorPoly:
        if self.beta == 0:
            return OperatorPoly((-self.alpha, 1))
        return OperatorPoly(
            (self.alpha * self.alpha + self.beta * self.beta, -2 * self.alpha, 1)
        )


class FactoredOperator(Record):
    """Product form leading * prod base_i^mult_i with rational factor data."""

    __slots__ = ("leading", "factors")

    def __init__(self, leading: Fraction, factors: tuple):
        object.__setattr__(self, "leading", Fraction(leading))
        object.__setattr__(self, "factors", tuple(factors))
        if not self.leading:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return sum(f.degree * f.mult for f in self.factors)

    def expand(self) -> OperatorPoly:
        """leading * prod base^mult on the reduced vectors, one base at a time:
        a base has at most three entries, so each product is linear work."""
        v = (self.leading.denominator, [self.leading.numerator], [0])
        for f in self.factors:
            base = f.base()._v
            for _ in range(f.mult):
                v = _reduced(*_product(v, base))
        return OperatorPoly._of(v)

    @staticmethod
    def from_bases(leading: Fraction, bases: Iterable) -> "FactoredOperator":
        """Normalize (base polynomial, multiplicity) pairs into rational factors.

        Roots are read off each base's integer vector c, low to high: -c0/c1
        for a linear base.  A quadratic's integer discriminant
        c1^2 - 4 c0 c2 gives a double root if zero, two rational roots
        (larger first) if a positive square, the pair
        -c1/(2 c2) +- i sqrt(-disc)/(2 |c2|) if minus a square, and
        UnfactorableOverGaussianRationals otherwise.  Base leading
        coefficients multiply into ``leading``, and repeated root data merge
        in the order of first appearance.
        """
        leading = Fraction(leading)
        merged: dict = {}
        for base, mult in bases:
            d, c, im = base._v
            if not c:
                raise ValueError("zero polynomial cannot be a factor")
            if any(im):
                raise ValueError("factor bases must have real coefficients")
            if len(c) > 3:
                raise ValueError(f"factor base of degree {base.degree} not supported")
            leading *= Fraction(c[-1], d) ** mult
            if len(c) == 1:
                continue
            if len(c) == 2:
                roots = [(Fraction(-c[0], c[1]), 0, mult)]
            else:
                c0, c1, c2 = c
                disc = c1 * c1 - 4 * c0 * c2
                root = math.isqrt(abs(disc))
                if root * root != abs(disc):
                    raise UnfactorableOverGaussianRationals(
                        f"quadratic factor D^2 + ({Fraction(c1, c2)})D + ({Fraction(c0, c2)})"
                        " has irrational roots"
                    )
                u, half = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)
                if disc == 0:
                    roots = [(Fraction(u, half), 0, 2 * mult)]
                elif disc > 0:
                    roots = [(Fraction(u + root, half), 0, mult), (Fraction(u - root, half), 0, mult)]
                else:
                    roots = [(Fraction(u, half), Fraction(root, half), mult)]
            for alpha, beta, m in roots:
                if m < 1:  # as Factor would, before a merge can hide it
                    raise ValueError("multiplicity must be positive")
                merged[alpha, beta] = merged.get((alpha, beta), 0) + m
        return FactoredOperator(leading, (Factor(a, b, m) for (a, b), m in merged.items()))


# -- exact factorization over Q(i) -------------------------------------------


def _trimmed(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _derivative(f: list) -> list:
    return [j * c for j, c in enumerate(f)][1:]


def _exact_quotient(f: list, d: list) -> Optional[list]:
    """f / d when the integer polynomial d divides f over Z, else None."""
    if d[0] and f[0] % d[0]:  # then d(0) does not divide f(0): a cheap early no
        return None
    r, n = list(f), len(d) - 1
    q = [0] * (len(f) - n)
    for i in range(len(q) - 1, -1, -1):
        q[i], rest = divmod(r[i + n], d[-1])
        if rest:
            return None
        for j in range(n):
            r[i + j] -= q[i] * d[j]
    return None if any(r[:n]) else q


def _pseudo_remainder(a: list, b: list) -> list:
    """The remainder of lc(b)^(deg a - deg b + 1) * a by b over Z."""
    r, n = list(a), len(b) - 1
    while len(r) > n:
        c = r.pop()
        r = [x * b[-1] for x in r]
        for j in range(n):
            r[len(r) - n + j] -= c * b[j]
    return _trimmed(r)


def _primitive(a: list) -> list:
    """a over its content, with a positive leading coefficient."""
    content = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [x // content for x in a]


def _squarefree_part(f: list) -> tuple:
    """(g, p): g = f / gcd(f, f') for a primitive f, and the least prime
    p = 1 mod 4 that spares lc(g) and keeps g square-free mod p.

    If gcd(f, f') = 1 mod the least such p that spares lc(f), f is square-free
    over Q (a repeated factor of f keeps its degree mod p, as p spares its
    leading coefficient, and would divide f and f' there), so g = f.  Else the
    gcd is taken by the primitive remainder sequence over Z, whose
    coefficients swell with a tall lc.
    """
    p = next(p for p in _primes_1_mod_4() if f[-1] % p)
    if _separable(f, p):
        return f, p
    a, b = f, _primitive(_derivative(f))
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    g = _exact_quotient(f, a)
    return g, next(p for p in _primes_1_mod_4() if g[-1] % p and _separable(g, p))


def _separable(g: list, p: int) -> bool:
    """Whether gcd(g, g') = 1 mod p, for p not dividing lc(g)."""
    return len(_mod_gcd(g, _derivative(g), p)) == 1


# Polynomials over GF(p) are integer lists, low to high; results come reduced and trimmed.


def _mod_divmod(a: list, b: list, p: int) -> tuple:
    """Quotient and remainder of a by b over GF(p); b[-1] is not 0 mod p."""
    r, n = list(a), len(b) - 1
    inverse = pow(b[-1], -1, p)
    q = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1, n - 1, -1):
        c = q[i - n] = r[i] * inverse % p
        if c:
            r[i - n:i] = [x - c * y for x, y in zip(r[i - n:i], b)]
    return q, _trimmed([x % p for x in r[:n]])


def _mod_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over GF(p) of a and b, not both 0 mod p."""
    a, b = _trimmed([x % p for x in a]), _trimmed([x % p for x in b])
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    inverse = pow(a[-1], -1, p)
    return [x * inverse % p for x in a]


def _mod_power(base: list, n: int, modulus: list, p: int) -> list:
    """base^n modulo the polynomial modulus over GF(p), for n >= 1."""
    return power(base, n, [1], lambda a, b: _mod_divmod(_convolved(a, b), modulus, p)[1])


def _primes_1_mod_4():
    p = 1
    while True:
        p += 4
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p


# Evaluation takes about p * deg g steps.  In a sweep over deg g 2-100 and p
# 5-1009 it beat gcd-and-split up to this p * deg g on a g that splits mod p,
# as every factorable g does, except at deg g <= 3 with p >= 601, and lost by
# at most 0.5 ms on a g with few roots mod p.  A large p is forced by a
# leading coefficient that all smaller primes divide.
_EVALUATION_LIMIT = 4000


def _mod_roots(g: list, p: int) -> list:
    """The roots of g in GF(p): the residues where g vanishes while
    p * deg g <= _EVALUATION_LIMIT, else gcd(g, x^p - x) split by
    equal-degree splitting, whose cost grows with log p rather than p."""
    g = [c % p for c in g]
    if p * (len(g) - 1) <= _EVALUATION_LIMIT:
        return _evaluated_roots(g, p)
    xp = _mod_power([0, 1], p, g, p) + [0, 0]
    xp[1] -= 1
    return _split(_mod_gcd(g, xp, p), p)


def _evaluated_roots(g: list, p: int) -> list:
    """The x in 0..p-1 with g(x) = 0 mod p: Horner's rule on all x at once."""
    values = [0] * p
    for c in reversed(g):
        values = [(v * x + c) % p for v, x in zip(values, range(p))]
    return [x for x, v in enumerate(values) if not v]


def _split(h: list, p: int, start: int = 0) -> list:
    """The roots of a monic h over GF(p) that is a product of distinct linear
    factors.  gcd(h, (x + delta)^((p-1)/2) - 1) keeps the roots r for which
    r + delta is a nonzero square.  For any two roots, (p-1)/2 shifts make one
    of them a square there and the other a non-square, and any of those would
    have separated the two in the parent; the shifts below start did not, so
    one from start on splits h."""
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    for delta in range(start, p):
        w = _mod_power([delta, 1], (p - 1) // 2, h, p) or [0]
        w[0] -= 1
        a = _mod_gcd(h, w, p)
        if 1 < len(a) < len(h):
            return _split(a, p, delta + 1) + _split(_mod_divmod(h, a, p)[0], p, delta + 1)
    raise InternalInvariantError(f"no shift splits {h} over GF({p})")


def _lifted(g: list, roots: list, p: int, bound: int) -> tuple:
    """Newton-lift simple roots of g mod p to a modulus m = p^(2^k) > bound: (roots, m).

    Each root r carries s = 1/g'(r) mod m.  A step squares m, sets
    r <- r - g(r) s (s mod the old m suffices, as g(r) = 0 there), then
    s <- s (2 - g'(r) s) (Modern Computer Algebra, Alg. 15.10); so the only
    inversion is the first, mod p.
    """
    dg, m = _derivative(g), p
    inverses = [pow(_value(dg, r, p), -1, p) for r in roots]
    while m <= bound:
        m *= m
        roots = [(r - _value(g, r, m) * s) % m for r, s in zip(roots, inverses)]
        if m <= bound:
            inverses = [s * (2 - _value(dg, r, m) * s) % m for r, s in zip(roots, inverses)]
    return roots, m


def _value(f: list, r: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % m
    return acc


def _symmetric(x: int, m: int) -> int:
    x %= m
    return x - m if x > m // 2 else x


def _gaussian_divisors(g: list, p: int) -> list:
    """The primitive divisors of the square-free integer polynomial g with roots
    in Q(i), found mod the prime p of ``_squarefree_part``: b*D - a for each
    rational root a/b, by (|a|, b, + before -), then e*D^2 + u*D + v for each
    pair of conjugate roots, by (e, v, u).

    A root a/b has |a| <= |g(0)| and b | lc, and a pair has v <= |g(0)|, e | lc
    and |u| < 2*sqrt(e*v).  So once m > 2*N^2, the residues mod m of lc*r for a
    root r, and of lc*(r+s) and lc*r*s for a pair, are the integers a*lc/b,
    -u*lc/e and v*lc/e: rational reconstruction with the denominator known
    to divide lc.  Candidates are kept only if they divide g exactly.
    """
    lc, a0 = abs(g[-1]), abs(g[0])
    n = max(a0, lc, 2 * math.isqrt(lc * a0) + 2)
    roots, m = _lifted(g, _mod_roots(g, p), p, 2 * n * n)
    linear, rest = [], []
    for r in roots:
        d = _primitive([-_symmetric(lc * r, m), lc])
        if _exact_quotient(g, d) is None:
            rest.append(r)
        else:
            linear.append(d)
    quadratic = []
    for i, r in enumerate(rest):
        for s in rest[i + 1:]:
            d = _primitive([_symmetric(lc * r * s, m), -_symmetric(lc * (r + s), m), lc])
            disc = 4 * d[0] * d[2] - d[1] * d[1]
            if disc > 0 and math.isqrt(disc) ** 2 == disc and _exact_quotient(g, d) is not None:
                quadratic.append(d)
    linear.sort(key=lambda d: (abs(d[0]), d[1], d[0] > 0))
    quadratic.sort(key=lambda d: (d[2], d[0], d[1]))
    return linear + quadratic


def factor_exact(P: OperatorPoly) -> FactoredOperator:
    """Complete factorization over Q(i), or UnfactorableOverGaussianRationals.

    Output factors are rational linear terms and irreducible quadratics
    (D-a)^2 + b^2; conjugate Gaussian-rational root pairs appear as the
    latter.  The zero root comes first, then rational roots a/b by
    (|a|, b, + before -), then pairs by their primitive divisor
    e*D^2 + u*D + v, ordered by (e, v, u).  The roots are found modulo a
    prime and lifted, but every factor is confirmed by exact division over Z,
    so the result is exact; its expansion reproduces P.
    """
    if P.is_zero():
        raise ValueError("cannot factor the zero operator")
    if not P.is_real():
        raise ValueError("factorization expects real coefficients")
    denominator, coeffs, _ = P._v
    leading = Fraction(coeffs[-1], denominator)
    f = _primitive(coeffs)
    k = next(j for j, c in enumerate(f) if c)
    bases = [(D, k)] if k else []
    f = f[k:]
    for d in _gaussian_divisors(*_squarefree_part(f)) if len(f) > 1 else ():
        mult = 0
        while (quotient := _exact_quotient(f, d)) is not None:
            f, mult = quotient, mult + 1
        bases.append((OperatorPoly._of((d[-1], d, [0] * len(d))), mult))
    if len(f) > 1:
        residual = " + ".join(
            f"({Fraction(c, f[-1])})*D^{j}" if j else f"({Fraction(c, f[-1])})"
            for j, c in enumerate(f)
            if c
        )
        raise UnfactorableOverGaussianRationals(
            f"no further factor with roots in Q(i) divides {residual}"
        )
    return FactoredOperator.from_bases(leading, bases)
