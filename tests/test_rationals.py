"""Exact scalar arithmetic over Q and Q(i)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffop import GaussianRational, gauss
from diffop.rationals import (
    I,
    ONE,
    ZERO,
    rat_to_json,
    scalar_to_json,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(gauss, fractions, fractions)


def test_construction_coerces_ints_and_fractions():
    z = GaussianRational(3, Fraction(1, 2))
    assert z.re == Fraction(3) and z.im == Fraction(1, 2)
    assert isinstance(z.re, Fraction)


def test_known_product():
    # (2+i)(2+i) = 3+4i
    z = gauss(2, 1)
    assert z * z == gauss(3, 4)


def test_known_inverse():
    # 1/(-1-26i) = (-1+26i)/677, the reciprocal used for the cos(2x) forcing
    z = gauss(-1, -26)
    assert z.inverse() == gauss(Fraction(-1, 677), Fraction(26, 677))
    assert z * z.inverse() == ONE


def test_square_of_rational():
    assert gauss(Fraction(27, 20)) ** 2 == gauss(Fraction(729, 400))


def test_quadratic_evaluation_off_axis():
    # (2+i)^2 - 2(2+i) + 2 = 1+2i
    z = gauss(2, 1)
    assert z * z - gauss(2) * z + gauss(2) == gauss(1, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_integer_powers():
    assert I**2 == gauss(-1)
    assert I**0 == ONE
    assert gauss(1, 1) ** -2 == gauss(1, 1).inverse() ** 2
    assert gauss(Fraction(1, 2)) ** 3 == gauss(Fraction(1, 8))


def test_norm_and_conjugate():
    z = gauss(3, -4)
    assert z.norm() == Fraction(25)
    assert z.conjugate() == gauss(3, 4)
    assert z * z.conjugate() == gauss(25)


@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(gaussians)
def test_inverse_law(z):
    if z:
        assert z * z.inverse() == ONE


def _rational(blob: dict) -> Fraction:
    return Fraction(int(blob["num"]), int(blob["den"]))


def _scalar(blob: dict) -> GaussianRational:
    """A scalar_to_json value: {num, den} when real, else {re, im}."""
    if "num" in blob:
        return gauss(_rational(blob))
    return gauss(_rational(blob["re"]), _rational(blob["im"]))


@given(gaussians)
def test_json_round_trip(z):
    blob = json.loads(json.dumps(z.to_json()))
    assert gauss(_rational(blob["re"]), _rational(blob["im"])) == z
    assert _scalar(json.loads(json.dumps(scalar_to_json(z)))) == z


@given(fractions)
def test_rational_json_round_trip(q):
    blob = rat_to_json(q)
    assert set(blob) == {"num", "den"}
    assert _rational(json.loads(json.dumps(blob))) == q


def test_scalar_json_uses_rational_form_when_real():
    assert scalar_to_json(gauss(Fraction(3, 7))) == {"num": "3", "den": "7"}
    assert _scalar(scalar_to_json(gauss(Fraction(3, 7)))) == gauss(Fraction(3, 7))
    assert set(scalar_to_json(gauss(Fraction(3, 7), 1))) == {"re", "im"}


def test_str_forms():
    assert str(gauss(Fraction(-1, 677), Fraction(26, 677))) == "-1/677+26/677i"
    assert gauss(3).pretty() == "3"
    assert gauss(0, 2).pretty() == "2i"
    assert gauss(-1, -26).pretty() == "-1-26i"


@pytest.mark.parametrize("q", [3, -7, 0, Fraction(1, 2), Fraction(-22, 7), Fraction(6, 3)])
def test_a_real_value_hashes_as_the_number_it_equals(q):
    z = gauss(q)
    assert z == q
    assert hash(z) == hash(q)
    assert len({z, q}) == 1
    assert len({gauss(q, 1), q}) == 2
