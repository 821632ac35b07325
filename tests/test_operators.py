"""Operator polynomials in D: arithmetic, evaluation, shift, application."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffop import (
    ComplexExpr,
    Factor,
    FactoredOperator,
    GaussianRational,
    OperatorPoly,
    ParseError,
    gauss,
    render_factored,
)
from diffop.expressions import ORIGIN, _reduced
from diffop.factor import _derivative
from diffop.rationals import power
from genutil import (
    cexpr,
    op,
    rand_complex_expr,
    rand_factored,
    rand_fraction,
    rand_gauss,
    rand_operator,
)
from opref import OpRef
from rootref import from_bases_ref, render_factored_ref
from termref import TermSum

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=5)
gaussians = st.builds(gauss, fractions, fractions)
operators = st.builds(
    OperatorPoly, st.lists(gaussians, max_size=5)
)
ONE = OperatorPoly((1,))


# The parser forms an operator as a value at frequency 0, its vector indexed
# by the power of D, so the program's sums, products and powers of operators
# are those of ComplexExpr.
def _value(p: OperatorPoly) -> ComplexExpr:
    return ComplexExpr._of({} if p.is_zero() else {ORIGIN: p._v})


def _operator(value: ComplexExpr) -> OperatorPoly:
    return OperatorPoly._of(value.freqs.get(ORIGIN))


def _sum(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    return _operator(_value(p) + _value(q))


def _difference(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    return _operator(_value(p) - _value(q))


def _product(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    return _operator(_value(p) * _value(q))


def _power(p: OperatorPoly, e: int) -> OperatorPoly:
    return _operator(power(_value(p), e, _value(ONE)))


def _derivative_of(p: OperatorPoly) -> OperatorPoly:
    """dP/dD by factor's derivative of an integer polynomial, on each part."""
    d, re, im = p._v
    return OperatorPoly._of(_reduced(d, _derivative(re), _derivative(im)))


def _at(p: OperatorPoly, lam) -> GaussianRational:
    """P(lam): the constant term of P(D + lam), as the solver reads r_0."""
    return p.shift(lam).coeff(0)


# --- construction and arithmetic -------------------------------------------


def test_trailing_zeros_stripped():
    p = OperatorPoly((1, 2, 0, 0))
    assert p.coeffs == (gauss(1), gauss(2))
    assert p.degree == 1
    assert OperatorPoly((0, 0)).is_zero()
    assert OperatorPoly().degree == -1


def test_coeff_out_of_range_is_zero():
    p = op("D+1")
    assert p.coeff(0) == gauss(1)
    assert p.coeff(5) == gauss(0)


def test_difference_of_squares():
    minus, plus = Factor(Fraction(1), Fraction(0), 1), Factor(Fraction(-1), Fraction(0), 1)
    assert op("(D-1)*(D+1)") == op("D^2-1")
    assert FactoredOperator(Fraction(1), (minus, plus)).expand() == op("D^2-1")


def test_product_of_planted_factors():
    # (D-1)^2 ((D+1)^2 + 4)(D+4) = D^5 + 4D^4 + 2D^3 - 27D + 20
    p = op("(D-1)^2*((D+1)^2+4)*(D+4)")
    assert p == OperatorPoly((20, -27, 0, 2, 4, 1))
    factors = ((1, 0, 2), (-1, 2, 1), (-4, 0, 1))
    f = FactoredOperator(Fraction(1), tuple(Factor(Fraction(a), Fraction(b), m) for a, b, m in factors))
    assert f.expand() == p


def test_scalar_coercion_in_arithmetic():
    assert op("2*D") == op("D*2") == _product(OperatorPoly((2,)), op("D"))
    assert op("1-D") == op("-(D-1)")
    assert op("D*0.5") == OperatorPoly((0, Fraction(1, 2)))


def test_power_zero_is_identity():
    assert op("(D-3)^0") == ONE == FactoredOperator(Fraction(1), ()).expand()
    with pytest.raises(ParseError):
        op("D^-1")


@given(operators, operators, operators)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert _sum(p, q) == _sum(q, p)
    assert _product(p, q) == _product(q, p)
    assert _product(_product(p, q), r) == _product(p, _product(q, r))
    assert _product(p, _sum(q, r)) == _sum(_product(p, q), _product(p, r))


def _rand_coeffs(rng: random.Random, degree: int) -> list:
    """degree + 1 coefficients, some zero, some real, Gaussian ones with
    denominators; the top one may be zero too, so the degree can drop."""
    return [
        rng.choice((gauss(0), gauss(rand_fraction(rng, 9)), rand_gauss(rng, 9), rand_gauss(rng, 9)))
        for _ in range(degree + 1)
    ]


def _assert_same(p: OperatorPoly, r: OpRef):
    assert p.coeffs == r.coeffs, (p, r)
    assert p.degree == r.degree
    assert p.is_zero() == r.is_zero()
    assert p.is_real() == r.is_real()
    assert [p.coeff(j) for j in range(-1, p.degree + 3)] == [
        r.coeff(j) for j in range(-1, r.degree + 3)
    ]
    twin = OperatorPoly(r.coeffs)
    assert p == twin and hash(p) == hash(twin)


def test_algebra_matches_gaussian_rational_reference():
    """Every ring and calculus operation the program does on operators equals
    the reference's, coefficient by coefficient, on Gaussian operators of
    degree -1 (zero) to 15."""
    rng = random.Random(41)
    for case in range(400):
        a = _rand_coeffs(rng, rng.choice((-1, 0, rng.randint(0, 15))))
        b = _rand_coeffs(rng, rng.choice((-1, 0, rng.randint(0, 15))))
        if case % 3 == 0:
            # b is a or -a from the middle up, so a sum or difference cancels from the top
            half, sign = len(a) // 2, rng.choice((1, -1))
            b = _rand_coeffs(rng, half - 1) + [sign * c for c in a[half:]]
        p, r, q, t = OperatorPoly(a), OpRef(a), OperatorPoly(b), OpRef(b)
        _assert_same(p, r)
        _assert_same(_sum(p, q), r + t)
        _assert_same(_difference(p, q), r - t)
        _assert_same(_operator(-_value(p)), -r)
        _assert_same(_product(p, q), r * t)
        e = rng.randint(0, 3)
        _assert_same(_power(p, e), r**e)
        c = rng.choice((gauss(0), gauss(rand_fraction(rng, 7)), rand_gauss(rng, 7)))
        _assert_same(_product(OperatorPoly((c,)), p), r.scale(c))
        _assert_same(_sum(p, OperatorPoly((c,))), r + c)
        _assert_same(_product(p, OperatorPoly((c,))), r * c)
        lam = rng.choice((gauss(0), gauss(rand_fraction(rng, 6)), rand_gauss(rng, 6)))
        _assert_same(p.shift(lam), r.shift(lam))
        _assert_same(_derivative_of(p), r.formal_derivative())
        assert _at(p, lam) == r.evaluate(lam)
        assert (p == q) == (r == t)
        if not r.is_zero():
            assert p.valuation() == r.valuation()
            assert p.shift(lam).valuation() == r.multiplicity_at(lam)


def test_shift_matches_reference_at_planted_roots():
    # roots with denominators are shifted to the origin: the low coefficients cancel exactly
    rng = random.Random(43)
    for _ in range(60):
        lam = rand_gauss(rng, 7, nonzero=True)
        a = _rand_coeffs(rng, rng.randint(0, 8))
        k = rng.randint(1, 4)
        p = _product(OperatorPoly(a), _power(OperatorPoly((-lam, 1)), k))
        r = OpRef(a) * (OpRef((-lam, 1)) ** k)
        _assert_same(p, r)
        _assert_same(p.shift(lam), r.shift(lam))
        if not r.is_zero():
            assert p.shift(lam).valuation() == r.shift(lam).valuation() >= k


# --- evaluation -------------------------------------------------------------


def test_characteristic_values():
    p = op("3*D^2-2*D+8")
    assert _at(p, gauss(3)) == gauss(29)
    assert _at(p, gauss(0)) == gauss(8)


def test_evaluation_at_imaginary_point():
    p = op("2*D^3+D^2-5*D+3")
    assert _at(p, gauss(0, 2)) == gauss(-1, -26)


def test_evaluation_off_axis():
    p = op("D^2-2*D+2")
    assert _at(p, gauss(2, 1)) == gauss(1, 2)


@given(operators, operators, gaussians)
@settings(max_examples=60)
def test_evaluation_is_a_ring_map(p, q, z):
    assert _at(_product(p, q), z) == _at(p, z) * _at(q, z)
    assert _at(_sum(p, q), z) == _at(p, z) + _at(q, z)


# --- exponential shift ------------------------------------------------------


def test_shift_recenters_roots():
    p = op("(D-1)*(D+5)*(D-2)^3")
    assert p.shift(gauss(2)) == op("(D+1)*(D+7)*D^3")
    assert op("D^2+4").shift(gauss(0, 2)) == OperatorPoly((0, gauss(0, 4), 1))  # D (D + 4i)
    assert op("(D-2)^2").shift(gauss(2)) == op("D^2")


def test_shift_composes_and_inverts():
    rng = random.Random(7)
    for _ in range(40):
        p = rand_operator(rng)
        a, b = rand_gauss(rng, 3), rand_gauss(rng, 3)
        assert p.shift(a).shift(b) == p.shift(a + b)
        assert p.shift(a).shift(-a) == p


def test_shift_at_zero_is_identity():
    p = op("3*D^2-2*D+8")
    assert p.shift(gauss(0)) == p


# --- application to expressions --------------------------------------------


def test_apply_scales_exponentials_by_characteristic_value():
    p = op("3*D^2-2*D+8")
    assert p.apply(cexpr((1, 0, 3))) == cexpr((29, 0, 3))


def test_apply_mixed_operator():
    # (D^2 + 1) x^3 = x^3 + 6x
    p = op("D^2+1")
    assert p.apply(cexpr((1, 3, 0))) == cexpr((1, 3, 0), (6, 1, 0))


def test_apply_annihilates():
    assert op("D^4").apply(cexpr((5, 3, 0))).is_zero()
    assert op("(D-2)^2").apply(cexpr((1, 1, 2))).is_zero()


def test_eigenvalue_identity_randomized():
    # P(D) e^{lam x} = P(lam) e^{lam x}
    rng = random.Random(11)
    for _ in range(60):
        p = rand_operator(rng)
        lam = rand_gauss(rng, 4)
        got = p.apply(ComplexExpr(((gauss(1), 0, lam),)))
        want = ComplexExpr(((OpRef(p.coeffs).evaluate(lam), 0, lam),))
        assert got == want


def test_shift_identity_randomized():
    # P(D)[e^{lam x} f] = e^{lam x} P(D + lam) f
    rng = random.Random(13)
    for _ in range(60):
        p = rand_operator(rng)
        lam = rand_gauss(rng, 3)
        f = rand_complex_expr(rng)
        shifted_in = ComplexExpr(
            ((t.coeff, t.k, t.lam + lam) for t in f.terms)
        )
        lhs = p.apply(shifted_in)
        inner = p.shift(lam).apply(f)
        rhs = ComplexExpr(((t.coeff, t.k, t.lam + lam) for t in inner.terms))
        assert lhs == rhs


def _apply_by_differentiation(p: OperatorPoly, f: ComplexExpr) -> ComplexExpr:
    """Reference P(D) f: sum of a_j D^j f by repeated term-merge differentiation."""
    result = TermSum()
    current = TermSum(f.terms)
    for j, a in enumerate(p.coeffs):
        if j > 0:
            current = current.differentiate()
        if not a.is_zero():
            result = result + current.scale(a)
    return result.expr()


def _rand_multi_frequency(rng: random.Random) -> ComplexExpr:
    # several frequencies, some Gaussian, with denominators in lam and in the
    # coefficients; each frequency carries a polynomial part of degree <= 5
    terms = []
    for _ in range(rng.randint(1, 4)):
        lam = rng.choice((gauss(0), gauss(rand_fraction(rng, 5)), rand_gauss(rng, 5)))
        for _ in range(rng.randint(1, 4)):
            terms.append((rand_gauss(rng, 7), rng.randint(0, 5), lam))
    return ComplexExpr(terms)


def test_apply_matches_repeated_differentiation():
    rng = random.Random(29)
    for degree in range(13):
        for _ in range(12):
            # non-real Gaussian-rational coefficients, as shifted operators have
            coeffs = [rand_gauss(rng, 6) for _ in range(degree)]
            coeffs.append(rand_gauss(rng, 6, nonzero=True))
            p = OperatorPoly(coeffs)
            f = _rand_multi_frequency(rng)
            assert p.apply(f) == _apply_by_differentiation(p, f), (p, f)


def test_apply_edge_operators_and_inputs():
    rng = random.Random(31)
    f = _rand_multi_frequency(rng)
    assert OperatorPoly().apply(f).is_zero()
    assert op("D^3+2").apply(ComplexExpr()).is_zero()
    c = gauss(Fraction(-3, 7), Fraction(2, 5))
    constant = OperatorPoly((c,))
    assert constant.apply(f) == cexpr((c, 0, 0)) * f == _apply_by_differentiation(constant, f)
    assert ONE.apply(f) == f


def test_apply_at_frequency_zero_matches_references():
    """The frequency-0 correlation equals repeated differentiation and the
    Horner recurrence on single polynomials of degree up to 120: real and
    Gaussian operators and inputs, deg P above and below deg u and 0, zero
    coefficients and denominators on both sides."""
    rng = random.Random(47)
    for case in range(48):
        m = rng.choice((0, 1, rng.randint(2, 120)))
        n = (0, rng.randint(1, m + 1), m + rng.randint(1, 8))[case % 3]
        a, u = _rand_coeffs(rng, n), _rand_coeffs(rng, m)
        if case % 2:
            a = [gauss(c.re) for c in a]
        if case // 2 % 2:
            u = [gauss(c.re) for c in u]
        p, f = OperatorPoly(a), ComplexExpr((c, k, gauss(0)) for k, c in enumerate(u))
        assert p.apply(f) == OpRef(a).apply(f) == _apply_by_differentiation(p, f), (a, u)


def test_apply_off_frequency_zero_matches_references():
    """The Horner step on complex and real coefficients, zero coefficients,
    p = 0 and q = 0, at s = 1 and s > 1 and on real, imaginary and complex u,
    equals repeated differentiation and the full recurrence."""
    rng = random.Random(71)
    for case in range(60):
        s = rng.choice((1, 1, 2, 3))
        p, q = rng.choice(((0, 1), (0, -2), (3, 0), (-1, 0), (2, 1), (1, -3)))
        lam = gauss(Fraction(p, s), Fraction(q, s))
        a = _rand_coeffs(rng, rng.randint(0, 12))
        if case % 2:
            a = [gauss(c.re) for c in a]
        if case % 3 == 0:
            a = [c if j % 2 == 0 else gauss(0) for j, c in enumerate(a)]
        u = _rand_coeffs(rng, rng.randint(0, 15))
        if case // 2 % 2:
            u = [gauss(0, c.im) if case % 4 == 2 else gauss(c.re) for c in u]
        op, f = OperatorPoly(a), ComplexExpr((c, k, lam) for k, c in enumerate(u))
        assert op.apply(f) == OpRef(a).apply(f) == _apply_by_differentiation(op, f), (a, u, lam)


@pytest.mark.parametrize("m", [0, 1, 7, 120])
def test_apply_at_frequency_zero_vanishes_past_the_degree(m):
    rng = random.Random(m)
    u = [rand_gauss(rng, 9, nonzero=True) for _ in range(m + 1)]
    f = ComplexExpr((c, k, gauss(0)) for k, c in enumerate(u))
    assert _power(op("D"), m + 1).apply(f).is_zero()
    assert _product(_power(op("D"), m + 1), OperatorPoly(_rand_coeffs(rng, 6))).apply(f).is_zero()
    assert _power(op("D"), m).apply(f) == ComplexExpr(((u[m] * math.factorial(m), 0, gauss(0)),))


@given(operators, operators)
@settings(max_examples=40)
def test_apply_composes_like_multiplication(p, q):
    f = cexpr((1, 2, 1), (gauss(0, 1), 1, gauss(0, 2)))
    assert _product(p, q).apply(f) == p.apply(q.apply(f))


# --- derivative and multiplicity -------------------------------------------


def test_formal_derivative_power_rule():
    assert _derivative_of(op("D^3")) == op("3*D^2")
    assert _derivative_of(ONE).is_zero()


def test_third_derivative_of_quartic():
    # P = (D-2)(D-4)^3;  P''' = 12(2D - 7), so P'''(4) = 12
    p = op("(D-2)*(D-4)^3")
    third = _derivative_of(_derivative_of(_derivative_of(p)))
    assert third == op("24*D-84")
    assert _at(third, gauss(4)) == gauss(12)


def test_multiplicity_counts_root_order():
    # the multiplicity of lam is the valuation of P(D + lam)
    p = op("(D-2)*(D-4)^3")
    assert p.shift(gauss(4)).valuation() == 3
    assert p.shift(gauss(2)).valuation() == 1
    assert p.shift(gauss(5)).valuation() == 0
    assert op("(D^2+4)^2").shift(gauss(0, 2)).valuation() == 2


def test_multiplicity_of_zero_operator_rejected():
    with pytest.raises(ValueError):
        OperatorPoly().shift(gauss(0)).valuation()


def test_multiplicity_agrees_with_formal_derivatives():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_operator(rng, max_degree=3)
        lam = rand_gauss(rng, 2)
        k = p.shift(lam).valuation()
        q = p
        for j in range(k):
            assert _at(q, lam) == gauss(0), (p, lam, j)
            q = _derivative_of(q)
        assert _at(q, lam) != gauss(0)


# --- factored form ----------------------------------------------------------


def test_factor_bases():
    assert Factor(Fraction(1), Fraction(0), 2).base() == op("D-1")
    assert Factor(Fraction(3), Fraction(2), 1).base() == op("(D-3)^2+4")


def test_factor_rejects_negative_beta():
    with pytest.raises(ValueError):
        Factor(Fraction(0), Fraction(-1), 1)


def test_from_bases_splits_reducible_quadratics():
    # D^2 - 3D + 2 = (D-1)(D-2); D^2 - 4D + 4 = (D-2)^2
    f = FactoredOperator.from_bases(Fraction(1), [(op("D^2-3*D+2"), 1)])
    assert {(fac.alpha, fac.beta, fac.mult) for fac in f.factors} == {
        (Fraction(1), Fraction(0), 1),
        (Fraction(2), Fraction(0), 1),
    }
    g = FactoredOperator.from_bases(Fraction(1), [(op("D^2-4*D+4"), 1)])
    assert g.factors == (Factor(Fraction(2), Fraction(0), 2),)


def test_from_bases_merges_repeated_factors():
    f = FactoredOperator.from_bases(Fraction(1), [(op("D-1"), 1), (op("D-1"), 1), (op("D-1"), 2)])
    assert f.factors == (Factor(Fraction(1), Fraction(0), 4),)


def test_from_bases_rejects_irrational_split():
    from diffop import UnfactorableOverGaussianRationals

    with pytest.raises(UnfactorableOverGaussianRationals):
        FactoredOperator.from_bases(Fraction(1), [(op("D^2-2"), 1)])


def _sweep_base(rng, roots):
    """(kind, coefficient list low to high, multiplicity) of one random base.

    Real roots already used in the list are in ``roots``; a linear base or a
    planted quadratic picks one of them again half the time, so that root
    data repeat across the list.
    """

    def root():
        return rng.choice(roots) if roots and rng.random() < 0.5 else rand_fraction(rng, 4)

    # the base's leading coefficient: monic half the time, else signed and fractional
    s = rng.choice([Fraction(1), Fraction(-1)]) if rng.random() < 0.5 else rand_fraction(rng, 5, True)
    kind = rng.choice(
        ["constant", "linear", "distinct", "double", "conjugate", "irrational", "random",
         "zero-constant", "other"]
    )
    if kind == "constant":
        coeffs = [s]
    elif kind == "linear":
        r = root()
        coeffs = [-s * r, s]
        roots.append(r)
    elif kind == "distinct":
        r1, r2 = root(), rand_fraction(rng, 4)
        coeffs = [s * r1 * r2, -s * (r1 + r2), s]
        roots += [r1, r2]
    elif kind == "double":
        r = root()
        coeffs = [s * r * r, -2 * s * r, s]
        roots.append(r)
    elif kind == "conjugate":
        a, b = rand_fraction(rng, 4), rand_fraction(rng, 4, True)
        coeffs = [s * (a * a + b * b), -2 * s * a, s]
    elif kind == "irrational":
        a, n = rand_fraction(rng, 4), rng.choice([2, 3, 5, 6, -2, -3, -7])
        # (D - a)^2 - n, whose roots a +- sqrt(n) leave Q(i)
        coeffs = [s * (a * a - n), -2 * s * a, s]
    elif kind == "random":
        coeffs = [rand_fraction(rng, 4), rand_fraction(rng, 4), s]
    elif kind == "zero-constant":
        coeffs = [Fraction(0)] + [rand_fraction(rng, 4) for _ in range(rng.randint(0, 1))] + [s]
    else:
        kind = rng.choice(["zero", "non-real", "cubic", "no-multiplicity"])
        coeffs = {
            "zero": [Fraction(0)] * rng.randint(0, 2),
            "non-real": [gauss(rand_fraction(rng, 3), 1), s],
            "cubic": [rand_fraction(rng, 3), Fraction(0), Fraction(1), s],
            "no-multiplicity": [rand_fraction(rng, 3), s],
        }[kind]
    coeffs = [gauss(c) if isinstance(c, Fraction) else c for c in coeffs]
    mult = 0 if kind == "no-multiplicity" else rng.choice([1, 1, 1, 2, 3])
    return kind, coeffs, mult


def _from_bases_outcome(from_bases, render, leading, bases):
    """("ok", leading, factors, text) or ("error", type, message)."""
    try:
        leading, factors = from_bases(leading, bases)
        return "ok", leading, factors, render(leading, factors)
    except ValueError as err:
        return "error", type(err), str(err)


def _from_bases_diffop(leading, bases):
    F = FactoredOperator.from_bases(leading, [(OperatorPoly(c), m) for c, m in bases])
    return F.leading, tuple((f.alpha, f.beta, f.mult) for f in F.factors)


def _render_diffop(leading, factors):
    return render_factored(FactoredOperator(leading, (Factor(*f) for f in factors)))


def test_from_bases_matches_fraction_root_reference():
    """600 seeded base lists: same factors, merge order and text, or the same error."""
    rng = random.Random(20261018)
    seen = {"ok": 0, "error": 0, "merged": 0, "minus": 0, "no-factors": 0}
    kinds = set()
    for _ in range(600):
        roots = []
        bases = []
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 4])):
            kind, coeffs, mult = _sweep_base(rng, roots)
            kinds.add(kind)
            bases.append((coeffs, mult))
            if rng.random() < 0.15:  # the same base again
                bases.append((coeffs, rng.choice([1, 2])))
        leading = rng.choice([Fraction(1), Fraction(-1), rand_fraction(rng, 5, True)])
        if rng.random() < 0.02:
            leading = Fraction(0)
        ref = _from_bases_outcome(from_bases_ref, render_factored_ref, leading, bases)
        got = _from_bases_outcome(_from_bases_diffop, _render_diffop, leading, bases)
        assert got == ref, (leading, bases)
        seen[ref[0]] += 1
        if ref[0] == "ok":
            assert all(type(x) is Fraction for f in got[2] for x in f[:2])
            seen["merged"] += sum(len(from_bases_ref(1, [b])[1]) for b in bases) > len(ref[2])
            seen["minus"] += ref[3].startswith("-") and ref[1] == -1 and bool(ref[2])
            seen["no-factors"] += not ref[2]
    assert kinds == {
        "constant", "linear", "distinct", "double", "conjugate", "irrational", "random",
        "zero-constant", "zero", "non-real", "cubic", "no-multiplicity",
    }
    assert min(seen.values()) >= 20, seen


def test_expand_round_trips():
    f = FactoredOperator(
        Fraction(2),
        (Factor(Fraction(1), Fraction(0), 2), Factor(Fraction(-1), Fraction(2), 1)),
    )
    assert f.expand() == op("2*(D-1)^2*((D+1)^2+4)")
    assert f.degree == 4


def _expand_ref(f: FactoredOperator) -> OpRef:
    """leading * prod base^mult by schoolbook products, one factor at a time."""
    ref = OpRef((f.leading,))
    for fac in f.factors:
        a, b = fac.alpha, fac.beta
        base = OpRef((-a, 1)) if not b else OpRef((a * a + b * b, -2 * a, 1))
        for _ in range(fac.mult):
            ref = ref * base
    return ref


def test_expand_matches_schoolbook_product():
    """300 seeded factored operators: conjugate pairs, multiplicities up to
    5 and rational roots with denominators expand to the reference's
    product, coefficient by coefficient."""
    rng = random.Random(20261020)
    seen = {"pair": 0, "mult-5": 0, "denominator": 0}
    for _ in range(300):
        f = rand_factored(rng, max_factors=4, height=5, max_mult=5)
        P, ref = f.expand(), _expand_ref(f)
        _assert_same(P, ref)
        assert P.degree == f.degree
        seen["pair"] += any(fac.beta for fac in f.factors)
        seen["mult-5"] += any(fac.mult == 5 for fac in f.factors)
        seen["denominator"] += any(fac.alpha.denominator > 1 and not fac.beta for fac in f.factors)
    assert min(seen.values()) >= 50, seen


# --- serialization ----------------------------------------------------------


def _rational(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


@given(operators)
def test_json_round_trip(p):
    # a real coefficient is written as {num, den}, any other as {re, im}
    decoded = [
        gauss(_rational(c)) if "num" in c else gauss(_rational(c["re"]), _rational(c["im"]))
        for c in json.loads(json.dumps(p.to_json()))
    ]
    assert OperatorPoly(decoded) == p
