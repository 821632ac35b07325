"""Operator polynomials in D: arithmetic, evaluation, shift, application."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffop import (
    D,
    IDENTITY_OP,
    ComplexExpr,
    Factor,
    FactoredOperator,
    OperatorPoly,
    gauss,
)
from genutil import cexpr, rand_complex_expr, rand_fraction, rand_gauss, rand_operator
from termref import TermSum

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=5)
gaussians = st.builds(gauss, fractions, fractions)
operators = st.builds(
    OperatorPoly, st.lists(gaussians, max_size=5)
)


# --- construction and arithmetic -------------------------------------------


def test_trailing_zeros_stripped():
    p = OperatorPoly((1, 2, 0, 0))
    assert p.coeffs == (gauss(1), gauss(2))
    assert p.degree == 1
    assert OperatorPoly((0, 0)).is_zero()
    assert OperatorPoly().degree == -1


def test_coeff_out_of_range_is_zero():
    p = D + 1
    assert p.coeff(0) == gauss(1)
    assert p.coeff(5) == gauss(0)


def test_difference_of_squares():
    assert (D - 1) * (D + 1) == D**2 - 1


def test_product_of_planted_factors():
    # (D-1)^2 ((D+1)^2 + 4)(D+4) = D^5 + 4D^4 + 2D^3 - 27D + 20
    p = (D - 1) ** 2 * ((D + 1) ** 2 + 4) * (D + 4)
    assert p == OperatorPoly((20, -27, 0, 2, 4, 1))


def test_scalar_coercion_in_arithmetic():
    assert 2 * D == D * 2 == D.scale(gauss(2))
    assert (1 - D) == -(D - 1)
    assert D * Fraction(1, 2) == OperatorPoly((0, Fraction(1, 2)))


def test_power_zero_is_identity():
    assert (D - 3) ** 0 == IDENTITY_OP
    with pytest.raises(TypeError):
        D**-1


@given(operators, operators, operators)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# --- evaluation -------------------------------------------------------------


def test_characteristic_values():
    p = 3 * D**2 - 2 * D + 8
    assert p.evaluate(gauss(3)) == gauss(29)
    assert p.evaluate(gauss(0)) == gauss(8)


def test_evaluation_at_imaginary_point():
    p = 2 * D**3 + D**2 - 5 * D + 3
    assert p.evaluate(gauss(0, 2)) == gauss(-1, -26)


def test_evaluation_off_axis():
    p = D**2 - 2 * D + 2
    assert p.evaluate(gauss(2, 1)) == gauss(1, 2)


@given(operators, operators, gaussians)
@settings(max_examples=60)
def test_evaluation_is_a_ring_map(p, q, z):
    assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z)
    assert (p + q).evaluate(z) == p.evaluate(z) + q.evaluate(z)


# --- exponential shift ------------------------------------------------------


def test_shift_recenters_roots():
    p = (D - 1) * (D + 5) * (D - 2) ** 3
    assert p.shift(gauss(2)) == (D + 1) * (D + 7) * D**3
    assert (D**2 + 4).shift(gauss(0, 2)) == D * (D + gauss(0, 4))
    assert ((D - 2) ** 2).shift(gauss(2)) == D**2


def test_shift_composes_and_inverts():
    rng = random.Random(7)
    for _ in range(40):
        p = rand_operator(rng)
        a, b = rand_gauss(rng, 3), rand_gauss(rng, 3)
        assert p.shift(a).shift(b) == p.shift(a + b)
        assert p.shift(a).shift(-a) == p


def test_shift_at_zero_is_identity():
    p = 3 * D**2 - 2 * D + 8
    assert p.shift(gauss(0)) == p


# --- application to expressions --------------------------------------------


def test_apply_scales_exponentials_by_characteristic_value():
    p = 3 * D**2 - 2 * D + 8
    assert p.apply(cexpr((1, 0, 3))) == cexpr((29, 0, 3))


def test_apply_mixed_operator():
    # (D^2 + 1) x^3 = x^3 + 6x
    p = D**2 + 1
    assert p.apply(cexpr((1, 3, 0))) == cexpr((1, 3, 0), (6, 1, 0))


def test_apply_annihilates():
    assert (D**4).apply(cexpr((5, 3, 0))).is_zero()
    assert ((D - 2) ** 2).apply(cexpr((1, 1, 2))).is_zero()


def test_eigenvalue_identity_randomized():
    # P(D) e^{lam x} = P(lam) e^{lam x}
    rng = random.Random(11)
    for _ in range(60):
        p = rand_operator(rng)
        lam = rand_gauss(rng, 4)
        got = p.apply(ComplexExpr(((gauss(1), 0, lam),)))
        want = ComplexExpr(((p.evaluate(lam), 0, lam),))
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
    assert (D**3 + 2).apply(ComplexExpr()).is_zero()
    c = gauss(Fraction(-3, 7), Fraction(2, 5))
    constant = OperatorPoly((c,))
    assert constant.apply(f) == f.scale(c) == _apply_by_differentiation(constant, f)
    assert IDENTITY_OP.apply(f) == f


@given(operators, operators)
@settings(max_examples=40)
def test_apply_composes_like_multiplication(p, q):
    f = cexpr((1, 2, 1), (gauss(0, 1), 1, gauss(0, 2)))
    assert (p * q).apply(f) == p.apply(q.apply(f))


# --- derivative and multiplicity -------------------------------------------


def test_formal_derivative_power_rule():
    assert (D**3).formal_derivative() == 3 * D**2
    assert IDENTITY_OP.formal_derivative().is_zero()


def test_third_derivative_of_quartic():
    # P = (D-2)(D-4)^3;  P''' = 12(2D - 7), so P'''(4) = 12
    p = (D - 2) * (D - 4) ** 3
    third = p.formal_derivative().formal_derivative().formal_derivative()
    assert third == 24 * D - 84
    assert third.evaluate(gauss(4)) == gauss(12)


def test_multiplicity_counts_root_order():
    p = (D - 2) * (D - 4) ** 3
    assert p.multiplicity_at(gauss(4)) == 3
    assert p.multiplicity_at(gauss(2)) == 1
    assert p.multiplicity_at(gauss(5)) == 0
    assert ((D**2 + 4) ** 2).multiplicity_at(gauss(0, 2)) == 2


def test_multiplicity_of_zero_operator_rejected():
    with pytest.raises(ValueError):
        OperatorPoly().multiplicity_at(gauss(0))


def test_multiplicity_agrees_with_formal_derivatives():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_operator(rng, max_degree=3)
        lam = rand_gauss(rng, 2)
        k = p.multiplicity_at(lam)
        q = p
        for j in range(k):
            assert q.evaluate(lam) == gauss(0), (p, lam, j)
            q = q.formal_derivative()
        assert q.evaluate(lam) != gauss(0)


# --- factored form ----------------------------------------------------------


def test_factor_bases():
    assert Factor(Fraction(1), Fraction(0), 2).base() == D - 1
    assert Factor(Fraction(3), Fraction(2), 1).base() == (D - 3) ** 2 + 4


def test_factor_rejects_negative_beta():
    with pytest.raises(ValueError):
        Factor(Fraction(0), Fraction(-1), 1)


def test_from_bases_splits_reducible_quadratics():
    # D^2 - 3D + 2 = (D-1)(D-2); D^2 - 4D + 4 = (D-2)^2
    f = FactoredOperator.from_bases(Fraction(1), [(D**2 - 3 * D + 2, 1)])
    assert {(fac.alpha, fac.beta, fac.mult) for fac in f.factors} == {
        (Fraction(1), Fraction(0), 1),
        (Fraction(2), Fraction(0), 1),
    }
    g = FactoredOperator.from_bases(Fraction(1), [(D**2 - 4 * D + 4, 1)])
    assert g.factors == (Factor(Fraction(2), Fraction(0), 2),)


def test_from_bases_merges_repeated_factors():
    f = FactoredOperator.from_bases(Fraction(1), [(D - 1, 1), (D - 1, 1), (D - 1, 2)])
    assert f.factors == (Factor(Fraction(1), Fraction(0), 4),)


def test_from_bases_rejects_irrational_split():
    from diffop import UnfactorableOverGaussianRationals

    with pytest.raises(UnfactorableOverGaussianRationals):
        FactoredOperator.from_bases(Fraction(1), [(D**2 - 2, 1)])


def test_expand_round_trips():
    f = FactoredOperator(
        Fraction(2),
        (Factor(Fraction(1), Fraction(0), 2), Factor(Fraction(-1), Fraction(2), 1)),
    )
    assert f.expand() == 2 * (D - 1) ** 2 * ((D + 1) ** 2 + 4)
    assert f.degree == 4


# --- serialization ----------------------------------------------------------


@given(operators)
def test_json_round_trip(p):
    assert OperatorPoly.from_json(p.to_json()) == p
