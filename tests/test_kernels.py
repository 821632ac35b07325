"""Homogeneous solution bases read off the factored operator."""

import random
from fractions import Fraction

from diffop import (
    Factor,
    FactoredOperator,
    check_kernel,
    kernel_basis,
    render_text,
)
from genutil import op, rand_factored, rexpr

F = Fraction


def test_single_linear_factor():
    basis = kernel_basis(FactoredOperator(F(1), (Factor(F(3), F(0), 1),)))
    assert basis.elements == (rexpr((1, 0, 3, 0, None)),)
    assert basis.labels == ("C1",)


def test_pure_derivative_powers():
    basis = kernel_basis(FactoredOperator(F(1), (Factor(F(0), F(0), 3),)))
    assert [render_text(e) for e in basis.elements] == ["1", "x", "x^2"]


def test_repeated_and_quadratic_factors_in_order():
    # (D-2)(D-5)^3((D+3)^2+4)((D-7)^2+16)^4: degree 14, one block per factor
    f = FactoredOperator(
        F(1),
        (
            Factor(F(2), F(0), 1),
            Factor(F(5), F(0), 3),
            Factor(F(-3), F(2), 1),
            Factor(F(7), F(4), 4),
        ),
    )
    basis = kernel_basis(f)
    assert len(basis) == f.degree == 14
    assert [render_text(e) for e in basis.elements] == [
        "exp(2*x)",
        "exp(5*x)",
        "x*exp(5*x)",
        "x^2*exp(5*x)",
        "cos(2*x)*exp(-3*x)",
        "sin(2*x)*exp(-3*x)",
        "cos(4*x)*exp(7*x)",
        "sin(4*x)*exp(7*x)",
        "x*cos(4*x)*exp(7*x)",
        "x*sin(4*x)*exp(7*x)",
        "x^2*cos(4*x)*exp(7*x)",
        "x^2*sin(4*x)*exp(7*x)",
        "x^3*cos(4*x)*exp(7*x)",
        "x^3*sin(4*x)*exp(7*x)",
    ]
    assert basis.labels == tuple(f"C{i}" for i in range(1, 15))
    assert check_kernel(f.expand(), basis).is_exact


def test_annihilation_on_random_factored_operators():
    rng = random.Random(47)
    for _ in range(80):
        f = rand_factored(rng)
        P = f.expand()
        basis = kernel_basis(f)
        assert len(basis) == P.degree
        verdict = check_kernel(P, basis)
        assert verdict.is_exact, (f, verdict.detail)


def test_check_kernel_flags_wrong_size():
    f = FactoredOperator(F(1), (Factor(F(0), F(0), 3),))
    basis = kernel_basis(f)
    short = type(basis)(basis.elements[:2], basis.labels[:2])
    verdict = check_kernel(f.expand(), short)
    assert not verdict.is_exact
    assert "degree" in verdict.detail


def test_check_kernel_flags_bad_element():
    from diffop import KernelBasis

    bad = KernelBasis((rexpr((1, 1, 0, 0, None)),), ("C1",))
    verdict = check_kernel(op("D-1"), bad)
    assert not verdict.is_exact
    assert "C1" in verdict.detail
    assert verdict.residual is not None
