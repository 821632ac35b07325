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
    OperatorPoly,
    RealExpr,
    RealTerm,
    gauss,
)
from diffop.expressions import _key, _ordered, _product, _scalar, _total
from diffop.operators import D
from genutil import cexpr, rand_complex_expr, rand_fraction, rand_gauss, rexpr
from termref import RealRef, TermSum
from vecref import product_ref, sum_ref

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
    assert D.apply(f) == cexpr((3, 2, 0), (1, 0, 0), (6, 0, 2))


def test_derivative_of_sine():
    # d/dx [-5 sin 3x] = -15 cos 3x
    f = rexpr((-5, 0, 0, 3, "sin")).to_complex()
    assert D.apply(f).to_real() == rexpr((-15, 0, 0, 3, "cos"))


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=8))
def test_high_derivatives_of_monomials_vanish(k, n):
    if k >= n:
        return
    f = cexpr((1, k, 0))
    for _ in range(n):
        f = D.apply(f)
    assert f.is_zero()


@given(complex_exprs, complex_exprs)
@settings(max_examples=60)
def test_leibniz_rule(f, g):
    lhs = D.apply(f * g)
    rhs = D.apply(f) * g + f * D.apply(g)
    assert lhs == rhs


@given(complex_exprs, st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=40)
def test_derivative_matches_finite_difference(f, x):
    h = 1e-6
    sym = D.apply(f).evaluate(x)
    num = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
    scale = 1 + abs(sym)
    assert abs(sym - num) / scale < 1e-4


# --- frequency bookkeeping ------------------------------------------------


def _frequencies(e: ComplexExpr) -> list:
    """The frequencies of e in the order the solver visits them."""
    return [_scalar(key) for key in _ordered(e.freqs)]


def _poly_at(e: ComplexExpr, lam: GaussianRational) -> tuple:
    """Coefficients (low to high in x) of the vector e holds at lam."""
    return OperatorPoly._of(e.freqs.get(_key(lam))).coeffs


def test_frequencies_and_poly_at():
    e = cexpr((2, 0, 3), (5, 2, 3), (1, 1, 0))
    lams = _frequencies(e)
    assert lams == [gauss(0), gauss(3)]
    assert _poly_at(e, gauss(3)) == (gauss(2), gauss(0), gauss(5))
    assert _poly_at(e, gauss(0)) == (gauss(0), gauss(1))
    assert _poly_at(e, gauss(7)) == ()


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
    assert _frequencies(dense) == lams
    for lam in lams + [gauss(7, -7)]:
        assert _poly_at(dense, lam) == ref.poly_at(lam)


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
            (cexpr((c, 0, 0)) * a, ra.scale(c)),
            (D.apply(a), ra.differentiate()),
            (D.apply(D.apply(a)), ra.differentiate().differentiate()),
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


# --- real form against the term-merge reference ----------------------------


def _rand_real_terms(rng):
    """(coeff, k, alpha, beta, trig) tuples over a few (alpha, beta) groups
    with denominators, shared by several terms, with repeated and cancelling
    terms, and now and then a list that cancels to zero."""
    groups = [(Fraction(0), Fraction(0)), (rand_fraction(rng, 4, nonzero=True), Fraction(0))]
    groups += [(rand_fraction(rng, 4), abs(rand_fraction(rng, 5, nonzero=True))) for _ in range(2)]
    terms = []
    for _ in range(rng.randint(0, 6)):
        alpha, beta = rng.choice(groups)
        trig = rng.choice(("cos", "sin")) if beta else None
        c, k = rand_fraction(rng, 9), rng.randint(0, 4)
        terms.append((c, k, alpha, beta, trig))
        if rng.random() < 0.2:
            terms.append((-c, k, alpha, beta, trig))
        if rng.random() < 0.2:
            terms.append((rand_fraction(rng, 3), k, alpha, beta, trig))
    if rng.random() < 0.1:
        terms += [(-c, *rest) for c, *rest in terms]
    rng.shuffle(terms)
    return terms


def _real(terms) -> RealExpr:
    return RealExpr(RealTerm(*t) for t in terms)


def _same_real(dense, ref):
    """dense holds exactly the reference value, seen through every accessor."""
    assert [(t.coeff, t.k, t.alpha, t.beta, t.trig) for t in dense.terms] == list(ref.terms)
    assert dense.terms is dense.terms
    assert dense == ref.expr() and hash(dense) == hash(ref.expr())
    assert dense.is_zero() == ref.is_zero()
    assert dense.to_complex() == ref.to_complex().expr()
    for x in (0.0, 0.7, -1.3):
        assert dense.evaluate(x) == ref.evaluate(x)


def test_real_form_matches_term_merge_reference():
    rng = random.Random(20261019)
    zeros = folds = errors = 0
    for _ in range(300):
        ta, tb = _rand_real_terms(rng), _rand_real_terms(rng)
        a, b, ra, rb = _real(ta), _real(tb), RealRef(ta), RealRef(tb)
        _same_real(a, ra)
        _same_real(a - b, ra - rb)
        _same_real(b - a, rb - ra)
        zeros += ra.is_zero()
        # equal values built along different paths agree on == and hash
        shuffled = _real(rng.sample(ta, len(ta)))
        assert a == shuffled and hash(a) == hash(shuffled)
        assert (a - a) == RealExpr() and hash(a - a) == hash(RealExpr())
        assert (a == b) == (ra == rb) and (a - b).is_zero() == (ra == rb)
        assert a.to_complex().to_real() == a
        # ComplexExpr.to_real on symmetric and broken values
        for tc in (_rand_terms(rng), [(t.coeff, t.k, t.lam) for t in TermSum.from_real(a).terms]):
            try:
                ref = RealRef.fold(TermSum(tc))
            except ConjugateSymmetryError:
                with pytest.raises(ConjugateSymmetryError):
                    ComplexExpr(tc).to_real()
                errors += 1
                continue
            _same_real(ComplexExpr(tc).to_real(), ref)
            folds += 1
    assert zeros > 30 and folds > 300 and errors > 100  # every branch is exercised


def test_to_real_checks_symmetry_before_any_fold(monkeypatch):
    """A non-symmetric value fails in to_real itself, never later when its
    terms are read: a lazy fold must not defer the check."""
    reads = []
    fold = RealExpr.terms.fget
    monkeypatch.setattr(RealExpr, "terms", property(lambda self: reads.append(self) or fold(self)))
    for value in (
        cexpr((1, 0, gauss(0, 2))),
        cexpr((gauss(0, 1), 3, 0)),
        cexpr((1, 0, gauss(1, 2)), (2, 0, gauss(1, -2))),
        cexpr((1, 1, gauss(0, 2)), (1, 1, gauss(0, -2)), (1, 2, gauss(0, 2))),
    ):
        with pytest.raises(ConjugateSymmetryError):
            value.to_real()
    assert reads == []


# --- vector products against the four-convolution reference ----------------


def _rand_vector(rng, length):
    """(d, re, im) as a product may meet it: zero, real or complex entries,
    trailing zeros and a common factor left in."""
    d, common = rng.choice((1, 2, 6, 35)), rng.choice((1, 1, 3, 10))
    re = [common * rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(length)]
    im = [common * rng.choice((0, 0, 0, rng.randint(-30, 30))) for _ in range(length)]
    return d * common, re, im


def test_scalar_products_match_four_convolutions():
    rng = random.Random(913)
    kinds = set()
    for i in range(600):
        scalar, other = _rand_vector(rng, 1), _rand_vector(rng, rng.randint(1, 7))
        u, v = (scalar, other) if i % 2 else (other, scalar)
        assert _product(u, v) == product_ref(u, v), (u, v)
        kinds.add((not any(scalar[1] + scalar[2]), bool(scalar[2][0])))
    assert kinds == {(True, False), (False, False), (False, True)}  # zero, real, complex
    for _ in range(100):  # the general path, for contrast
        u, v = _rand_vector(rng, rng.randint(2, 6)), _rand_vector(rng, rng.randint(2, 6))
        assert _product(u, v) == product_ref(u, v), (u, v)


# --- one-pass sums ----------------------------------------------------------


def test_total_equals_a_fold_of_plus_and_minus():
    rng = random.Random(2021)
    cancelled = 0
    for _ in range(300):
        values = [rand_complex_expr(rng, max_terms=4, max_k=5, height=6) for _ in range(rng.randint(1, 6))]
        signed = [(rng.choice((1, -1)), v) for v in values]
        if rng.random() < 0.3:  # repeats, some of them cancelling earlier terms
            signed += [(rng.choice((1, -1)), v) for _, v in rng.sample(signed, rng.randint(1, len(signed)))]
        got = _total(signed)
        assert got.freqs == sum_ref([(sign, v.freqs) for sign, v in signed])
        a, b = values[0], values[-1]
        assert (a + b).freqs == sum_ref([(1, a.freqs), (1, b.freqs)])
        assert (a - b).freqs == sum_ref([(1, a.freqs), (-1, b.freqs)])
        cancelled += not got.freqs
    assert cancelled > 0


def test_total_of_cancelling_terms_is_empty():
    f = cexpr((Fraction(2, 3), 1, 1), (gauss(1, -2), 0, gauss(0, 3)), (Fraction(5, 7), 4, 0))
    g = cexpr((Fraction(-1, 6), 2, 1))
    assert _total([(1, f), (-1, g), (1, g), (-1, f)]).freqs == {}
    assert _total([(1, f), (1, -f)]).freqs == {}
    assert _total([(-1, f)]) == -f
