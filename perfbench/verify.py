"""Output checks, run outside the timed region.

A solve answer is checked by a floating-point spot check that shares no code
with the program's exact arithmetic: P(D) is applied to the parsed answer by
the Leibniz rule in complex floats and compared with the right-hand side at
fixed points.  Big-degree answers cancel heavily in floats, so the tolerance
is relative to the sum of the magnitudes of everything added up, which bounds
the rounding error, rather than to |g| alone.

Text answers are read back by a small parser of the printed form, not by
diffop's own parse_rhs, so a fault in the program's parser cannot hide a
wrong answer, and reading back costs little next to the call it checks.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

POINTS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.3, -1.3, 2.7)
TOLERANCE = 1e-9
# The exit codes documented in README, pinned here rather than imported.
EXIT_OK = 0
EXIT_UNFACTORABLE = 65


def _groups(terms) -> dict:
    """Answer terms as {lam: {k: w}} with c x^k e^(ax) trig(bx) = Re(w x^k e^(lam x))."""
    out: dict = {}
    for coeff, k, alpha, beta, trig in terms:
        lam = complex(alpha, beta)
        w = complex(coeff) if trig != "sin" else complex(0, -coeff)
        poly = out.setdefault(lam, {})
        poly[k] = poly.get(k, 0) + w
    return out


def _taylor(op, lam: complex) -> tuple:
    """Coefficients t_i of P(D + lam) and the bounds sum_j |a_j| C(j,i) |lam|^(j-i)."""
    t, bound = [], []
    for i in range(len(op)):
        s, b = 0j, 0.0
        for j in range(i, len(op)):
            if op[j]:
                s += op[j] * math.comb(j, i) * lam ** (j - i)
                b += abs(op[j]) * math.comb(j, i) * abs(lam) ** (j - i)
        t.append(s)
        bound.append(b)
    return t, bound


def spot_residual(op, rhs, answer) -> float:
    """Largest |P(D)Y - g| / (1 + scale) over POINTS, in floats.

    P(D)[q(x) e^(lam x)] = e^(lam x) sum_i t_i q^(i)(x), where t_i are the
    Taylor coefficients of P at lam.  scale sums the magnitudes of every
    summand, so rounding alone stays orders of magnitude below TOLERANCE.
    """
    groups = [(lam, poly, *_taylor(op, lam)) for lam, poly in _groups(answer).items()]
    worst = 0.0
    for x in POINTS:
        total, scale = 0j, 0.0
        for lam, poly, t, bound in groups:
            acc, mag = 0j, 0.0
            for i in range(len(t)):
                deriv, dmag = 0j, 0.0
                for k, w in poly.items():
                    if k >= i:
                        f = math.perm(k, i) * x ** (k - i)
                        deriv += w * f
                        dmag += abs(w) * abs(f)
                acc += t[i] * deriv
                mag += bound[i] * dmag
            e = cmath.exp(lam * x)
            total += acc * e
            scale += mag * abs(e)
        g = 0.0
        for coeff, k, alpha, beta, trig in rhs:
            v = float(coeff) * x**k * math.exp(float(alpha) * x)
            scale += abs(v)
            if trig == "cos":
                v *= math.cos(float(beta) * x)
            elif trig == "sin":
                v *= math.sin(float(beta) * x)
            g += v
        worst = max(worst, abs(total.real - g) / (1.0 + scale))
    return worst


_TOKEN = re.compile(r"\s*(?:(\d+)|(x)|(exp|cos|sin)|([-+*/^()]))")
_ZERO = Fraction(0)


class _Reader:
    """Recursive descent over the printed answer grammar: sums and products
    of rationals, x^k, exp(r*x), cos(r*x), sin(r*x) and parentheses.  A value
    is a dict {(k, alpha, beta, trig): coeff}."""

    def __init__(self, text: str):
        self.tokens, pos = [], 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"unexpected text at {pos}: {text[pos:pos + 20]!r}")
            self.tokens.append(next(g for g in m.groups() if g is not None))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'more input'}, found {tok!r}")
        self.i += 1
        return tok

    def read(self) -> dict:
        value = self.sum()
        if self.peek() is not None:
            raise ValueError(f"trailing {self.peek()!r}")
        return value

    def sum(self) -> dict:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        out: dict = {}
        while True:
            for key, c in self.product().items():
                out[key] = out.get(key, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return {key: c for key, c in out.items() if c}
            sign = 1 if self.take() == "+" else -1

    def product(self) -> dict:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = _times(value, self.factor())
        return value

    def factor(self) -> dict:
        tok = self.take()
        if tok.isdigit():
            q = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                q /= int(self.take())
            return {(0, _ZERO, _ZERO, None): q}
        if tok == "x":
            k = 1
            if self.peek() == "^":
                self.take()
                k = int(self.take())
            return {(k, _ZERO, _ZERO, None): Fraction(1)}
        if tok == "(":
            value = self.sum()
            self.take(")")
            return value
        if tok in ("exp", "cos", "sin"):
            self.take("(")
            arg = list(self.sum().items())
            self.take(")")
            if len(arg) != 1 or arg[0][0] != (1, _ZERO, _ZERO, None):
                raise ValueError(f"{tok} of something other than r*x")
            rate = arg[0][1]
            if tok == "exp":
                return {(0, rate, _ZERO, None): Fraction(1)}
            return {(0, _ZERO, rate, tok): Fraction(1)}
        raise ValueError(f"unexpected {tok!r}")


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for (k1, a1, b1, t1), c1 in a.items():
        for (k2, a2, b2, t2), c2 in b.items():
            if t1 and t2:
                raise ValueError("product of two trig factors")
            key = (k1 + k2, a1 + a2, b1 + b2, t1 or t2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def read_terms(text: str) -> list:
    """Printed answer text as terms (coeff, k, alpha, beta, trig)."""
    return [(c, k, alpha, beta, trig) for (k, alpha, beta, trig), c in _Reader(text).read().items()]


def _json_terms(items) -> list:
    def rat(obj):
        return Fraction(int(obj["num"]), int(obj["den"]))

    return [(rat(t["coeff"]), t["k"], rat(t["alpha"]), rat(t["beta"]), t["trig"]) for t in items]


def check(problem, code: int, out: str) -> str:
    """'' when the CLI output is right for the problem, else the reason."""
    command = problem.argv[0]
    if command == "kernel":
        if problem.basis is None:
            return "" if code == EXIT_UNFACTORABLE else f"exit {code}, expected {EXIT_UNFACTORABLE}"
        if code != EXIT_OK:
            return f"exit {code}"
        got = []
        for line in out.splitlines():
            got.extend(read_terms(line))
        if tuple(sorted(got, key=repr)) != problem.basis:
            return "kernel basis differs from the planted roots"
        return ""
    if code != EXIT_OK:
        return f"exit {code}"
    if "--format" in problem.argv:
        payload = json.loads(out)
        answer = payload["answer"]
        if payload["verdict"] != {"status": "exact"}:
            return "verdict is not exact"
        if not (isinstance(answer["text"], str) and isinstance(answer["latex"], str)):
            return "answer text or latex missing"
        terms = _json_terms(answer["terms"])
    else:
        terms = read_terms(out)
    try:
        residual = spot_residual(problem.op, problem.rhs, terms)
    except OverflowError as exc:
        return f"spot check overflowed: {exc}"
    if not residual < TOLERANCE:
        return f"spot check residual {residual:.3g} >= {TOLERANCE}"
    return ""
