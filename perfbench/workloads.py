"""Seeded inputs for the three workloads, written as CLI argument lists.

The benchmark builds every operator and right-hand side with its own small
integer polynomial arithmetic and writes the text itself, so a change to the
program's renderers or polynomial code cannot change what is measured.  The
operator grammar has no division, so a root p/q is written as the factor
q*D - p and every expanded operator is scaled to integer coefficients.

Each workload is an endless stream of rounds.  A run stops only at the end of
a round, and every round holds the same mix of problem shapes, so two seeds
differ in their constants but not in how much work a run measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Problem:
    """One CLI call and what its answer must satisfy.

    op is the operator's integer coefficient vector, low to high.  rhs holds
    the right-hand side expanded into terms (coeff, k, alpha, beta, trig)
    meaning coeff * x^k * e^(alpha x) * {1, cos(beta x), sin(beta x)}.
    basis is the expected kernel as sorted terms of that shape, or None
    when the operator has a root outside Q(i) and the CLI must exit 65.
    """

    argv: tuple
    op: tuple
    rhs: tuple = ()
    basis: Optional[tuple] = None


class Deck:
    """Deals a fixed multiset in seeded, shuffled passes.

    Every full pass deals the exact mix, which keeps the seed-to-seed spread
    of a run's total work far below that of independent draws.
    """

    def __init__(self, rng: random.Random, items):
        self._rng = rng
        self._items = list(items)
        self._left = []

    def draw(self):
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


# -- integer polynomials, low to high ---------------------------------------


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list, n: int) -> list:
    out = [1]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def linear_base(root: Fraction) -> list:
    """q*D - p for the root p/q."""
    return [-root.numerator, root.denominator]


def quadratic_base(alpha: Fraction, beta: Fraction) -> list:
    """L^2 ((D - alpha)^2 + beta^2), the smallest integer multiple."""
    L = math.lcm(alpha.denominator, beta.denominator)
    a, b = int(alpha * L), int(beta * L)
    return [a * a + b * b, -2 * L * a, L * L]


def product(factors) -> list:
    """Expand [(base, mult), ...] into one integer coefficient vector."""
    out = [1]
    for base, mult in factors:
        out = poly_mul(out, poly_pow(base, mult))
    return out


# -- text -----------------------------------------------------------------


def _signed_join(pieces: list) -> str:
    """Join (negative, body) pieces into 'a - b + c'."""
    text = ""
    for negative, body in pieces:
        if not text:
            text = f"-{body}" if negative else body
        else:
            text += f" - {body}" if negative else f" + {body}"
    return text or "0"


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def operator_text(coeffs: list) -> str:
    """Expanded operator text, highest power first."""
    pieces = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if not c:
            continue
        power = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
        mag = abs(c)
        if not power:
            body = str(mag)
        else:
            body = power if mag == 1 else f"{mag}*{power}"
        pieces.append((c < 0, body))
    return _signed_join(pieces)


def factored_text(factors) -> str:
    """Product of '(base)^mult' pieces, which the parser keeps factored."""
    parts = []
    for base, mult in factors:
        piece = f"({operator_text(base)})"
        parts.append(piece if mult == 1 else f"{piece}^{mult}")
    return "*".join(parts)


def _rate(name: str, r: Fraction) -> str:
    return f"{name}(x)" if r == 1 else f"{name}({_rat(r)}*x)"


def atom_text(k: int, alpha: Fraction, beta: Fraction, trig) -> str:
    """The non-constant part x^k * exp(alpha x) * trig(beta x), or ''."""
    parts = []
    if k:
        parts.append("x" if k == 1 else f"x^{k}")
    if alpha:
        parts.append(_rate("exp", alpha))
    if trig:
        parts.append(_rate(trig, beta))
    return "*".join(parts)


def rhs_text(terms) -> str:
    pieces = []
    for coeff, k, alpha, beta, trig in terms:
        atom = atom_text(k, alpha, beta, trig)
        mag = _rat(abs(coeff))
        if not atom:
            body = mag
        else:
            body = atom if abs(coeff) == 1 else f"{mag}*{atom}"
        pieces.append((coeff < 0, body))
    return _signed_join(pieces)


def rand_fraction(rng: random.Random, height: int, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if f or not nonzero:
            return f


# -- stress -----------------------------------------------------------------

# The planted-root distribution of scripts/stress_random.py and acceptance
# criterion 7: up to 4 roots of multiplicity up to 3 and height 5, half of
# them conjugate pairs; up to 3 rhs atoms of degree up to 4; 45% of the
# right-hand sides hit a planted root.  Decks deal those marginals exactly.
STRESS_DEFAULT_SEED = 20260819
STRESS_ROUND = 60


def stress_rounds(seed: int):
    rng = random.Random(seed)
    n_roots = Deck(rng, [1, 2, 3, 4])
    mults = Deck(rng, [1, 2, 3])
    quadratic = Deck(rng, [False, True])
    forced = Deck(rng, [True] * 9 + [False] * 11)
    n_atoms = Deck(rng, [1, 2, 3])
    degrees = Deck(rng, [0, 1, 2, 3, 4])
    factored = Deck(rng, [False, True])
    while True:
        yield [
            _stress_problem(rng, n_roots, mults, quadratic, forced, n_atoms, degrees, factored)
            for _ in range(STRESS_ROUND)
        ]


def _stress_problem(rng, n_roots, mults, quadratic, forced, n_atoms, degrees, factored):
    factors, roots = [], []
    for _ in range(n_roots.draw()):
        mult = mults.draw()
        alpha = rand_fraction(rng, 5)
        if quadratic.draw():
            beta = abs(rand_fraction(rng, 5, nonzero=True))
            factors.append((quadratic_base(alpha, beta), mult))
        else:
            beta = Fraction(0)
            factors.append((linear_base(alpha), mult))
        roots.append((alpha, beta))
    hit = rng.choice(roots) if forced.draw() else None
    terms, seen = [], set()
    for i in range(n_atoms.draw()):
        if i == 0 and hit is not None:
            alpha, beta = hit
        else:
            alpha = rand_fraction(rng, 3)
            beta = abs(rand_fraction(rng, 3))
        trig = rng.choice(["cos", "sin"]) if beta else None
        coeff = rand_fraction(rng, 3, nonzero=True)
        k = degrees.draw()
        if (k, alpha, beta, trig) in seen:
            continue
        seen.add((k, alpha, beta, trig))
        terms.append((coeff, k, alpha, beta, trig))
    op = product(factors)
    op_src = factored_text(factors) if factored.draw() else operator_text(op)
    return Problem(("solve", "--op", op_src, "--rhs", rhs_text(terms)), tuple(op), tuple(terms))


# -- deep -------------------------------------------------------------------

# One round is a fixed sweep of shapes (family, rhs degree n, operator power
# k), each with seeded constants and given once fully factored and once fully
# expanded.  Families:
#   trig: (D^2+b^2)^k against (x+c)^n * {sin,cos}(b x), resonance k;
#   exp:  (D-a)^k * (D^2+d^2) against (x+c)^n * exp(a x), resonance k;
#   damp: ((D-a)^2+b^2)^k against (x+c)^n * exp(a x) * {sin,cos}(b x).
# The shapes cost about 0.25, 0.35, 0.7, 0.7, 1.05 and 1.45 s on a 2-core
# x86 machine, and each is a sixth of the samples.  The middle third is the
# damped shape twice over, so the median falls in the middle of its samples
# and p75 in the middle of the next shape's, never on the edge between two
# shapes.  The cheapest shape comes first and is the set-up problem.  Every
# shape stays below the cliffs listed in the notes.
DEEP_SHAPES = (
    ("exp", 30, 20),
    ("trig", 10, 20),
    ("damp", 50, 4),
    ("damp", 50, 4),
    ("exp", 100, 4),
    ("trig", 80, 1),
)


def deep_rounds(seed: int):
    rng = random.Random(seed)
    while True:
        batch = []
        for family, n, k in DEEP_SHAPES:
            constants = _deep_constants(rng)
            for expanded in (False, True):
                batch.append(_deep_problem(family, n, k, expanded, *constants))
        yield batch


def _deep_constants(rng):
    """Shift c, rates a and b, and frequency d of one problem.  All four have
    the same size q, 3/2 or 2/3, with seeded signs where a sign applies.  The
    two choices mirror each other's coefficient sizes ((2x+3)^n against
    (3x+2)^n), so seeds change the constants but not the bit lengths a
    shape's cost depends on."""
    q = rng.choice([Fraction(3, 2), Fraction(2, 3)])
    shift, a = rng.choice([-1, 1]) * q, rng.choice([-1, 1]) * q
    trig = rng.choice(["cos", "sin"])
    return shift, a, q, q, trig


def _deep_problem(family, n, k, expanded, shift, a, b, d, trig):
    if family == "trig":
        factors = [(quadratic_base(Fraction(0), b), k)]
        alpha, beta = Fraction(0), b
    elif family == "exp":
        factors = [(linear_base(a), k), (quadratic_base(Fraction(0), d), 1)]
        alpha, beta, trig = a, Fraction(0), None
    else:
        factors = [(quadratic_base(a, b), k)]
        alpha, beta = a, b
    op = product(factors)
    # (q x + p)^n with shift = p/q, expanded by the binomial theorem.
    p, q = shift.numerator, shift.denominator
    terms = tuple(
        (Fraction(math.comb(n, j) * q**j * p ** (n - j)), j, alpha, beta, trig)
        for j in range(n + 1)
    )
    if expanded:
        op_src, rhs_src = operator_text(op), rhs_text(terms)
    else:
        op_src = factored_text(factors)
        lead = "x" if q == 1 else f"{q}*x"
        base = f"({lead} {'-' if p < 0 else '+'} {abs(p)})"
        atom = atom_text(0, alpha, beta, trig)
        rhs_src = f"{base}^{n}*{atom}" if atom else f"{base}^{n}"
    argv = ("solve", "--op", op_src, "--rhs", rhs_src, "--format", "json")
    return Problem(argv, tuple(op), terms)


# -- kernel -----------------------------------------------------------------

# Operators of degree 4 to 10 with planted rational roots and conjugate pairs
# alpha +- beta i.  Every operator has one tall linear root, a prime of 1000
# to 10^4 over 1 to 3, which is what factor_exact's divisor search pays for;
# a prime keeps the divisor count, and so the search, the same from seed to
# seed.  The other rational roots have height 3.  The conjugate pairs have
# integer alpha in [-3, 3] and beta in [1, 3]: a pair with a denominator
# sends factor_exact's quadratic search through every divisor of the
# trailing coefficient, whose cost depends so much on the constants that p99
# ranged from 96 to 147 ms over six seeds.  A sixth of the operators also carry a
# factor with roots outside Q(i), for which the CLI must exit 65.
#
# A round deals every shape once: each degree with each feasible number of
# conjugate pairs (0 to 3), factored and expanded.  Expanded operators with
# several pairs are the slow end of the cost distribution, so dealing shapes
# instead of drawing each factor keeps their weight, and the tail percentile
# that falls among them, the same in every run.
TALL_PRIMES = tuple(p for p in range(1000, 10000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
IRREDUCIBLE = ([-2, 0, 1], [-3, 0, 1], [1, 1, 1], [3, 0, 4], [-2, 0, 0, 1], [-5, 0, 1])
KERNEL_SHAPES = tuple(
    (degree, pairs, factored)
    for degree in range(4, 11)
    for pairs in range(min(3, (degree - 1) // 2) + 1)
    for factored in (False, True)
)


def kernel_rounds(seed: int):
    rng = random.Random(seed)
    outside = Deck(rng, [True] + [False] * 5)
    irreducible = Deck(rng, IRREDUCIBLE)
    while True:
        shapes = list(KERNEL_SHAPES)
        rng.shuffle(shapes)
        yield [
            _kernel_problem(rng, *shape, irreducible.draw() if outside.draw() else None)
            for shape in shapes
        ]


def _kernel_problem(rng, target, pairs, factored, extra):
    extra = list(extra) if extra else None
    degree = len(extra) - 1 if extra else 0
    # The tall root always fits; the pairs take what room is left.
    pairs = min(pairs, (target - degree - 1) // 2)
    tall = Fraction(rng.choice([-1, 1]) * rng.choice(TALL_PRIMES), rng.randint(1, 3))
    mult_of: dict = {(tall, Fraction(0)): 1}
    degree += 1 + 2 * pairs
    for _ in range(pairs):
        key = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3)))
        mult_of[key] = mult_of.get(key, 0) + 1
    for _ in range(target - degree):
        key = (rand_fraction(rng, 3), Fraction(0))
        mult_of[key] = mult_of.get(key, 0) + 1
    factors, basis = [], []
    for (alpha, beta), mult in mult_of.items():
        if beta:
            factors.append((quadratic_base(alpha, beta), mult))
            for j in range(mult):
                basis.append((Fraction(1), j, alpha, beta, "cos"))
                basis.append((Fraction(1), j, alpha, beta, "sin"))
        else:
            factors.append((linear_base(alpha), mult))
            basis.extend((Fraction(1), j, alpha, Fraction(0), None) for j in range(mult))
    if extra:
        factors.append((extra, 1))
    rng.shuffle(factors)
    op = product(factors)
    op_src = factored_text(factors) if factored else operator_text(op)
    expected = None if extra else tuple(sorted(basis, key=repr))
    return Problem(("kernel", "--op", op_src), tuple(op), basis=expected)


ROUNDS = {"stress": stress_rounds, "deep": deep_rounds, "kernel": kernel_rounds}
