"""Verification oracles: symbolic residual, kernel verdicts, float spot-check."""

import math
import random
from fractions import Fraction

import pytest

from diffop import (
    ConjugateSymmetryError,
    D,
    KernelBasis,
    check_kernel,
    check_particular,
    kernel_basis,
    numeric_spot_check,
    gauss,
    parse_operator,
    render_text,
    solve_particular,
)
from diffop.checks import STANDARD_POINTS
from genutil import rand_real_rhs, rand_rooted_operator, rexpr

F = Fraction


def test_exact_answer_passes():
    P = 3 * D**2 - 2 * D + 8
    g = rexpr((5, 0, 3, 0, None))
    Y = rexpr((F(5, 29), 0, 3, 0, None))
    verdict = check_particular(P, g, Y)
    assert verdict.is_exact


def test_wrong_answer_reports_the_residual():
    P = 3 * D**2 - 2 * D + 8
    g = rexpr((5, 0, 3, 0, None))
    verdict = check_particular(P, g, rexpr((1, 0, 3, 0, None)))
    assert not verdict.is_exact
    assert verdict.residual == rexpr((24, 0, 3, 0, None))


def test_non_real_image_is_an_internal_error():
    # an image that is not conjugation-symmetric is a fault, never a residual
    P = D + gauss(0, 1)
    with pytest.raises(ConjugateSymmetryError):
        check_particular(P, rexpr((1, 0, 0, 0, None)), rexpr((1, 1, 0, 0, None)))


def test_constants_solve_first_derivative():
    assert check_particular(D, rexpr(), rexpr((7, 0, 0, 0, None))).is_exact


def test_kernel_verdicts():
    f = parse_operator("(D^2+4)^2").factored
    basis = kernel_basis(f)
    assert [render_text(e) for e in basis.elements] == [
        "cos(2*x)", "sin(2*x)", "x*cos(2*x)", "x*sin(2*x)",
    ]
    assert check_kernel(f.expand(), basis).is_exact

    bad = KernelBasis((rexpr((1, 1, 0, 0, None)),), ("C1",))
    assert not check_kernel(D - 1, bad).is_exact


def test_numeric_spot_check_on_true_identity():
    P = (D - 1) * (D + 5) * (D - 2) ** 3
    g = rexpr((3, 0, 2, 0, None))
    Y, _ = solve_particular(P, g)
    assert numeric_spot_check(P, g, Y) < 1e-9


def test_numeric_spot_check_catches_perturbed_coefficient():
    P = 3 * D**2 - 2 * D + 8
    g = rexpr((5, 0, 3, 0, None))
    wrong = rexpr((F(5, 29) + F(1, 1000), 0, 3, 0, None))
    assert numeric_spot_check(P, g, wrong) > 1e-5


def test_numeric_spot_check_on_kernel_element():
    f = parse_operator("(D-2)^2").factored
    elem = kernel_basis(f).elements[1]
    assert numeric_spot_check(f.expand(), rexpr(), elem) < 1e-9


def test_numeric_spot_check_reports_overflow_as_unconfirmed():
    # exp(1000 x) overflows a float at x = 1; the identity is still exact
    P = D - 1
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
