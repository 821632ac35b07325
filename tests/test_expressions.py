"""Canonical symbolic expressions and their exact calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffop import (
    ComplexExpr,
    ComplexTerm,
    ConjugateSymmetryError,
    GaussianRational,
    RealExpr,
    RealTerm,
    gauss,
)
from genutil import cexpr, rand_fraction, rand_gauss, rexpr
from termref import TermSum

fractions = st.fractions(min_value=-12, max_value=12, max_denominator=6)
gaussians = st.builds(gauss, fractions, fractions)
complex_terms = st.builds(
    ComplexTerm, gaussians, st.integers(min_value=0, max_value=4), gaussians
)
complex_exprs = st.builds(ComplexExpr, st.lists(complex_terms, max_size=4))


def symmetric_exprs():
    """Expressions invariant under complex conjugation, built from real data."""
    pos_fracs = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)
    real_terms = st.builds(
        RealTerm,
        fractions,
        st.integers(min_value=0, max_value=4),
        fractions,
        st.just(Fraction(0)),
        st.just(None),
    )
    trig_terms = st.builds(
        RealTerm,
        fractions,
        st.integers(min_value=0, max_value=4),
        fractions,
        pos_fracs,
        st.sampled_from(("cos", "sin")),
    )
    return st.builds(RealExpr, st.lists(real_terms | trig_terms, max_size=4))


# --- canonical form -------------------------------------------------------


def test_duplicate_terms_merge():
    e = cexpr((2, 1, 3), (5, 1, 3))
    assert len(e.terms) == 1
    assert e.terms[0].coeff == gauss(7)


def test_zero_terms_prune():
    assert cexpr((2, 1, 3), (-2, 1, 3)).is_zero()
    assert cexpr((0, 2, 1)).is_zero()
    assert ComplexExpr() == cexpr()


def test_terms_sorted_by_frequency_then_power():
    e = cexpr((1, 2, 5), (1, 0, 5), (1, 1, 0))
    keys = [(t.lam, t.k) for t in e.terms]
    assert keys == [(gauss(0), 1), (gauss(5), 0), (gauss(5), 2)]


def test_real_terms_reject_bad_invariants():
    with pytest.raises(ValueError):
        RealTerm(Fraction(1), 0, Fraction(0), Fraction(2), None)
    with pytest.raises(ValueError):
        RealTerm(Fraction(1), 0, Fraction(0), Fraction(0), "cos")
    with pytest.raises(ValueError):
        RealTerm(Fraction(1), 0, Fraction(0), Fraction(-2), "cos")
    with pytest.raises(ValueError):
        RealTerm(Fraction(1), 0, Fraction(0), Fraction(2), "tan")


def test_real_expr_orders_cos_before_sin():
    e = rexpr((1, 0, 0, 2, "sin"), (1, 0, 0, 2, "cos"))
    assert [t.trig for t in e.terms] == ["cos", "sin"]


# --- ring structure -------------------------------------------------------


@given(complex_exprs, complex_exprs, complex_exprs)
@settings(max_examples=60)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ComplexExpr()
    assert f + ComplexExpr() == f


def test_product_merges_powers_and_frequencies():
    # (x^2 e^{2x}) * (x^3 e^{x}) = x^5 e^{3x}
    assert cexpr((1, 2, 2)) * cexpr((1, 3, 1)) == cexpr((1, 5, 3))


def test_product_to_sum_identity():
    # cos(2x)^2 = 1/2 + cos(4x)/2
    c = rexpr((1, 0, 0, 2, "cos")).to_complex()
    expected = rexpr((Fraction(1, 2), 0, 0, 0, None), (Fraction(1, 2), 0, 0, 4, "cos"))
    assert (c * c).to_real() == expected


# --- differentiation ------------------------------------------------------


def test_derivative_of_mixed_sum():
    # d/dx [x^3 + x + 3 e^{2x}] = 3x^2 + 1 + 6 e^{2x}
    f = cexpr((1, 3, 0), (1, 1, 0), (3, 0, 2))
    assert f.differentiate() == cexpr((3, 2, 0), (1, 0, 0), (6, 0, 2))


def test_derivative_of_sine():
    # d/dx [-5 sin 3x] = -15 cos 3x
    f = rexpr((-5, 0, 0, 3, "sin")).to_complex()
    assert f.differentiate().to_real() == rexpr((-15, 0, 0, 3, "cos"))


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=8))
def test_high_derivatives_of_monomials_vanish(k, n):
    if k >= n:
        return
    f = cexpr((1, k, 0))
    for _ in range(n):
        f = f.differentiate()
    assert f.is_zero()


@given(complex_exprs, complex_exprs)
@settings(max_examples=60)
def test_leibniz_rule(f, g):
    lhs = (f * g).differentiate()
    rhs = f.differentiate() * g + f * g.differentiate()
    assert lhs == rhs


@given(complex_exprs, st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=40)
def test_derivative_matches_finite_difference(f, x):
    h = 1e-6
    sym = f.differentiate().evaluate(x)
    num = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
    scale = 1 + abs(sym)
    assert abs(sym - num) / scale < 1e-4


# --- frequency bookkeeping ------------------------------------------------


def test_frequencies_and_poly_at():
    e = cexpr((2, 0, 3), (5, 2, 3), (1, 1, 0))
    lams = e.frequencies()
    assert lams == [gauss(0), gauss(3)]
    assert e.poly_at(gauss(3)) == (gauss(2), gauss(0), gauss(5))
    assert e.poly_at(gauss(0)) == (gauss(0), gauss(1))
    assert e.poly_at(gauss(7)) == ()


# --- real/complex bridge --------------------------------------------------


@given(symmetric_exprs())
@settings(max_examples=80)
def test_real_round_trip(e):
    assert e.to_complex().to_real() == e


def test_euler_halves():
    c = rexpr((1, 0, 0, 2, "cos")).to_complex()
    assert c == ComplexExpr(
        [
            ComplexTerm(gauss(Fraction(1, 2)), 0, gauss(0, 2)),
            ComplexTerm(gauss(Fraction(1, 2)), 0, gauss(0, -2)),
        ]
    )
    s = rexpr((1, 0, 0, 2, "sin")).to_complex()
    half_i = gauss(0, Fraction(1, 2))
    assert s == ComplexExpr(
        [ComplexTerm(-half_i, 0, gauss(0, 2)), ComplexTerm(half_i, 0, gauss(0, -2))]
    )


def test_asymmetric_expr_refuses_real_form():
    with pytest.raises(ConjugateSymmetryError):
        cexpr((1, 0, gauss(0, 2))).to_real()
    with pytest.raises(ConjugateSymmetryError):
        ComplexExpr([ComplexTerm(gauss(0, 1), 0, gauss(0))]).to_real()


def test_symmetric_pair_folds_to_cos_and_sin():
    c = gauss(Fraction(3, 2), Fraction(-5, 2))
    e = ComplexExpr(
        [
            ComplexTerm(c, 1, gauss(1, 2)),
            ComplexTerm(c.conjugate(), 1, gauss(1, -2)),
        ]
    )
    assert e.to_real() == rexpr((3, 1, 1, 2, "cos"), (5, 1, 1, 2, "sin"))


@given(symmetric_exprs(), st.floats(min_value=-1.2, max_value=1.2))
@settings(max_examples=40)
def test_complex_evaluation_agrees_with_real(e, x):
    z = e.to_complex().evaluate(x)
    r = e.evaluate(x)
    assert abs(z.imag) < 1e-9 * (1 + abs(r))
    assert abs(z.real - r) < 1e-9 * (1 + abs(r))


# --- dense form against the term-merge reference ---------------------------


def _rand_terms(rng):
    """A raw (coeff, k, lam) list over up to four frequencies (rational and
    Gaussian rates with denominators), with repeated (lam, k) pairs, pairs
    that cancel, and conjugate partners for most terms, so that ``to_real``
    meets both symmetric and broken inputs."""
    lams = [gauss(0), gauss(rand_fraction(rng, 4, nonzero=True))]
    lams += [rand_gauss(rng, 5, nonzero=True) for _ in range(2)]
    terms = []
    for _ in range(rng.randint(0, 7)):
        c, k, lam = rand_gauss(rng, 9), rng.randint(0, 5), rng.choice(lams)
        if lam.is_real() and rng.random() < 0.8:
            c = gauss(c.re)
        terms.append((c, k, lam))
        if rng.random() < 0.15:
            terms.append((-c, k, lam))
        if rng.random() < 0.15:
            terms.append((rand_gauss(rng, 3), k, lam))
        if not lam.is_real() and rng.random() < 0.8:
            terms.append((c.conjugate(), k, lam.conjugate()))
    rng.shuffle(terms)
    return terms


def _same(dense, ref):
    """dense holds exactly the reference value, seen through every accessor."""
    assert dense.terms == ref.terms
    assert dense == ref.expr() and hash(dense) == hash(ref.expr())
    assert dense.is_zero() == ref.is_zero()
    lams = ref.frequencies()
    assert dense.frequencies() == lams
    for lam in lams + [gauss(7, -7)]:
        assert dense.poly_at(lam) == ref.poly_at(lam)


def _folded(value):
    try:
        return value.to_real()
    except ConjugateSymmetryError:
        return "asymmetric"


def test_dense_form_matches_term_merge_reference():
    rng = random.Random(20261018)
    folds = errors = 0
    for _ in range(300):
        ta, tb = _rand_terms(rng), _rand_terms(rng)
        a, b, ra, rb = ComplexExpr(ta), ComplexExpr(tb), TermSum(ta), TermSum(tb)
        _same(a, ra)
        c = rng.choice((gauss(0), rand_gauss(rng, 6), gauss(rand_fraction(rng, 6))))
        for dense, ref in (
            (a + b, ra + rb),
            (a - b, ra - rb),
            (a * b, ra * rb),
            (-a, ra.scale(gauss(-1))),
            (a.scale(c), ra.scale(c)),
            (a.differentiate(), ra.differentiate()),
            (a.differentiate().differentiate(), ra.differentiate().differentiate()),
        ):
            _same(dense, ref)
            real = _folded(ref)
            assert _folded(dense) == real
            if isinstance(real, RealExpr):
                folds += 1
                _same(real.to_complex(), TermSum.from_real(real))
            else:
                errors += 1
        # equal values built along different paths agree on == and hash
        shuffled = ComplexExpr(rng.sample(ta, len(ta)))
        assert a == shuffled and hash(a) == hash(shuffled)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert (a - a) == ComplexExpr() and hash(a - a) == hash(ComplexExpr())
        assert (a == b) == (ra.terms == rb.terms)
    assert folds > 300 and errors > 300  # both fold outcomes are exercised
