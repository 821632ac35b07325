"""Reference Gaussian-vector products and powers.

A vector (d, re, im) stands for the coefficients (re[k] + im[k] i) / d and
a frequency key (s, p, q) for (p + qi) / s, as in ``diffop.expressions``.
``product_ref`` is the four-convolution product diffop formed for every
pair of vectors before a one-entry factor was taken as a scalar: over
du * dv, not reduced.  ``power_ref`` raises the frequency map of a
``ComplexExpr`` by square-and-multiply, as the parser did for every power
before single terms were raised in closed form, multiplying frequency by
frequency with ``product_ref`` and reducing each result.  ``sum_ref`` adds
frequency maps one at a time, reducing every partial sum, as ``+`` did
before a sum was formed in one pass.

Nothing here calls diffop's vector helpers, so tests can hold the two
against each other vector by vector.
"""

import math

from diffop.rationals import power


def _convolution(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product_ref(u: tuple, v: tuple) -> tuple:
    (du, ur, ui), (dv, vr, vi) = u, v
    re = [x - y for x, y in zip(_convolution(ur, vr), _convolution(ui, vi))]
    im = [x + y for x, y in zip(_convolution(ur, vi), _convolution(ui, vr))]
    return du * dv, re, im


def _sum(u: tuple, v: tuple) -> tuple:
    (du, ur, ui), (dv, vr, vi) = u, v
    n = max(len(ur), len(vr))
    ur, ui = ur + [0] * (n - len(ur)), ui + [0] * (n - len(ui))
    vr, vi = vr + [0] * (n - len(vr)), vi + [0] * (n - len(vi))
    re = [x * dv + y * du for x, y in zip(ur, vr)]
    im = [x * dv + y * du for x, y in zip(ui, vi)]
    return du * dv, re, im


def _reduced(d: int, re: list, im: list):
    while re and not re[-1] and not im[-1]:
        re, im = re[:-1], im[:-1]
    if not re:
        return None
    g = math.gcd(d, *re, *im)
    return d // g, [x // g for x in re], [y // g for y in im]


def sum_ref(signed) -> dict:
    """The frequency map of the sum of sign * u over (sign, frequency map of u)."""
    out: dict = {}
    for sign, freqs in signed:
        for key, (d, re, im) in freqs.items():
            v = (d, [sign * x for x in re], [sign * y for y in im])
            if key in out:
                v = _reduced(*_sum(out[key], v))
                if v is None:
                    del out[key]
                    continue
            out[key] = v
    return out


def _key_sum(lam: tuple, mu: tuple) -> tuple:
    (s, p, q), (t, u, v) = lam, mu
    d, re, im = s * t, p * t + u * s, q * t + v * s
    g = math.gcd(d, re, im)
    return d // g, re // g, im // g


def _times(a: dict, b: dict) -> dict:
    acc: dict = {}
    for lam, u in a.items():
        for mu, v in b.items():
            nu, w = _key_sum(lam, mu), product_ref(u, v)
            acc[nu] = _sum(acc[nu], w) if nu in acc else w
    out = {}
    for nu, w in acc.items():
        w = _reduced(*w)
        if w is not None:
            out[nu] = w
    return out


def power_ref(freqs: dict, n: int) -> dict:
    """The frequency map of u^n, for the frequency map of u."""
    return power(freqs, n, {(1, 0, 0): (1, [1], [0])}, _times)
