"""Verification oracles: symbolic residual, kernel verdicts, float spot-check."""

import math
import random
from fractions import Fraction

import pytest

from diffop import (
    ComplexExpr,
    ConjugateSymmetryError,
    KernelBasis,
    OperatorPoly,
    RealExpr,
    check_kernel,
    check_particular,
    kernel_basis,
    numeric_spot_check,
    gauss,
    parse_operator,
    parse_rhs,
    render_text,
    solve_particular,
)
from diffop.checks import STANDARD_POINTS
from genutil import op, rand_real_rhs, rand_rooted_operator, rexpr

F = Fraction


def test_exact_answer_passes():
    P = op("3*D^2-2*D+8")
    g = rexpr((5, 0, 3, 0, None))
    Y = rexpr((F(5, 29), 0, 3, 0, None))
    verdict = check_particular(P, g, Y)
    assert verdict.is_exact


def test_wrong_answer_reports_the_residual():
    P = op("3*D^2-2*D+8")
    g = rexpr((5, 0, 3, 0, None))
    verdict = check_particular(P, g, rexpr((1, 0, 3, 0, None)))
    assert not verdict.is_exact
    assert verdict.residual == rexpr((24, 0, 3, 0, None))


def test_non_real_image_is_an_internal_error():
    # an image that is not conjugation-symmetric is a fault, never a residual
    P = OperatorPoly((gauss(0, 1), 1))  # D + i
    with pytest.raises(ConjugateSymmetryError):
        check_particular(P, rexpr((1, 0, 0, 0, None)), rexpr((1, 1, 0, 0, None)))


def _broken_mirrors(Y: RealExpr) -> list:
    """Non-symmetric values that agree with Y at every frequency a + bi, b >= 0."""
    freqs = Y.to_complex().freqs
    (s, p, q), (d, re, im) = next((key, v) for key, v in freqs.items() if key[2] > 0)
    mirror = (s, p, -q)
    return [
        {key: v for key, v in freqs.items() if key != mirror},  # partner dropped
        {**freqs, mirror: (d, re, im)},  # partner not conjugated
        {**freqs, mirror: (2 * d, re, [-y for y in im])},  # partner halved
    ]


def test_non_symmetric_answer_is_an_internal_error():
    # the certificate applies a real P at b >= 0 only and mirrors the rest, so
    # it must refuse a "real" value whose b < 0 half is not the mirror of the
    # other, never call it exact
    P = op("(D-1)*(D^2+4)")
    g = parse_rhs("x*sin(2*x) + exp(x)*cos(x)")
    Y, _ = solve_particular(P, g)
    for freqs in _broken_mirrors(Y):
        with pytest.raises(ConjugateSymmetryError):
            check_particular(P, g, RealExpr._of(ComplexExpr._of(freqs)))
        with pytest.raises(ConjugateSymmetryError):
            check_kernel(op("D"), KernelBasis((RealExpr._of(ComplexExpr._of(freqs)),), ("C1",)))
    real_part = dict(Y.to_complex().freqs)
    real_part[1, 0, 0] = (1, [1], [1])  # an imaginary part at a real frequency
    with pytest.raises(ConjugateSymmetryError):
        check_particular(P, g, RealExpr._of(ComplexExpr._of(real_part)))


def test_non_symmetric_rhs_is_an_internal_error():
    # the solver mirrors the b < 0 half of a real problem from the b > 0 half,
    # so a b < 0 half that is missing or not the mirror must stop it
    P = op("(D-1)*(D^2+4)")
    for freqs in _broken_mirrors(parse_rhs("x*sin(2*x) + exp(x)*cos(x)")):
        with pytest.raises(ConjugateSymmetryError):
            solve_particular(P, RealExpr._of(ComplexExpr._of(freqs)))


def test_constants_solve_first_derivative():
    assert check_particular(op("D"), rexpr(), rexpr((7, 0, 0, 0, None))).is_exact


def test_kernel_verdicts():
    f = parse_operator("(D^2+4)^2").factored
    basis = kernel_basis(f)
    assert [render_text(e) for e in basis.elements] == [
        "cos(2*x)", "sin(2*x)", "x*cos(2*x)", "x*sin(2*x)",
    ]
    assert check_kernel(f.expand(), basis).is_exact

    bad = KernelBasis((rexpr((1, 1, 0, 0, None)),), ("C1",))
    assert not check_kernel(op("D-1"), bad).is_exact


def test_numeric_spot_check_on_true_identity():
    P = op("(D-1)*(D+5)*(D-2)^3")
    g = rexpr((3, 0, 2, 0, None))
    Y, _ = solve_particular(P, g)
    assert numeric_spot_check(P, g, Y) < 1e-9


def test_numeric_spot_check_catches_perturbed_coefficient():
    P = op("3*D^2-2*D+8")
    g = rexpr((5, 0, 3, 0, None))
    wrong = rexpr((F(5, 29) + F(1, 1000), 0, 3, 0, None))
    assert numeric_spot_check(P, g, wrong) > 1e-5


def test_numeric_spot_check_on_kernel_element():
    f = parse_operator("(D-2)^2").factored
    elem = kernel_basis(f).elements[1]
    assert numeric_spot_check(f.expand(), rexpr(), elem) < 1e-9


def test_numeric_spot_check_reports_overflow_as_unconfirmed():
    # exp(1000 x) overflows a float at x = 1; the identity is still exact
    P = op("D-1")
    g = rexpr((1, 0, 1000, 0, None))
    Y, _ = solve_particular(P, g)
    assert check_particular(P, g, Y).is_exact
    assert numeric_spot_check(P, g, Y) == math.inf
    assert numeric_spot_check(P, g, Y, points=(0.0, 0.5)) < 1e-9


def test_standard_points_cover_the_documented_set():
    for x in (0.0, 0.5, -0.5, 1.0, -1.0, 1.3, -1.3, 2.7):
        assert x in STANDARD_POINTS


def test_randomized_solves_verify_both_ways():
    rng = random.Random(59)
    for _ in range(40):
        P, roots = rand_rooted_operator(rng, max_roots=2, height=3)
        g = rand_real_rhs(rng, max_atoms=2, max_degree=3)
        Y, _ = solve_particular(P, g)
        assert check_particular(P, g, Y).is_exact
        assert numeric_spot_check(P, g, Y) < 1e-9
