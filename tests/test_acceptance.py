"""End-to-end acceptance gate.

Each test is one acceptance criterion, driven through the public text
surface (parser -> solver -> verifier -> renderer) the way a user would
reach it.  The golden answers are pinned both structurally (term-for-term
RealExpr equality) and as rendered output strings.
"""

import random
import time
from fractions import Fraction

import pytest

from diffop import (
    ComplexExpr,
    check_kernel,
    check_particular,
    factor_exact,
    gauss,
    kernel_basis,
    numeric_spot_check,
    parse_operator,
    parse_rhs,
    render_latex,
    render_operator,
    render_text,
    solve_particular,
    UnfactorableOverGaussianRationals,
)
from diffop.cli import EXIT_OK, EXIT_RESIDUAL, main
from closedforms import exponential_input, resonant_trig_solution
from genutil import (
    rand_complex_expr,
    rand_factored,
    rand_gauss,
    rand_operator,
    rand_real_rhs,
    rand_rooted_operator,
    op,
    rexpr,
    trig_route_real,
)
from opref import OpRef

F = Fraction


def solve_src(op_src: str, rhs_src: str):
    P = parse_operator(op_src).poly
    g = parse_rhs(rhs_src)
    Y, trace = solve_particular(P, g)
    return P, g, Y, trace


# Golden problems, pinned as (operator text, rhs text, expected answer text).
GOLDENS = [
    ("3*D^2-2*D+8", "5*exp(3*x)", "5/29*exp(3*x)"),
    ("(D-1)*(D+5)*(D-2)^3", "3*exp(2*x)", "1/14*x^3*exp(2*x)"),
    ("D^3-5*D^2+3*D+2", "2*x^3+4*x^2-6*x+5", "x^3 - 5/2*x^2 + 39/2*x - 169/4"),
    ("D^3-3*D^2+2*D", "x^3-2*x^2", "1/8*x^4 + 5/12*x^3 + 9/8*x^2 + 17/8*x"),
    ("2*D^3+D^2-5*D+3", "3*sin(2*x)", "3/677*(26*cos(2*x) - sin(2*x))"),
    ("(D-1)^2*(D-2)*(D^2+4)^2", "4*sin(2*x)", "1/800*(x^2*cos(2*x) - 7*x^2*sin(2*x))"),
    (
        "(D-3)^2*(D^2-2*D+5)*(D+2)",
        "(x^2-3*x+1)*exp(2*x)",
        "1/4000*(200*x^2 - 60*x + 119)*exp(2*x)",
    ),
    ("(D-3)*(D-2)^2*(D+1)", "(4*x-2)*exp(2*x)", "-1/9*x^2*(2*x + 1)*exp(2*x)"),
    (
        "D^2-4",
        "(x^2-3)*sin(2*x)",
        "-1/32*(4*x*cos(2*x) + (4*x^2 - 13)*sin(2*x))",
    ),
    ("D^2+4", "4*x^2*cos(2*x)", "1/24*(6*x^2*cos(2*x) + x*(8*x^2 - 3)*sin(2*x))"),
    (
        "D^2-2*D+2",
        "exp(2*x)*(2*cos(x) - 6*sin(x))",
        "2/5*exp(2*x)*(7*cos(x) - sin(x))",
    ),
    (
        "(D-1)*((D-3)^2+4)",
        "4*exp(3*x)*cos(2*x)",
        "-1/4*exp(3*x)*(x*cos(2*x) - x*sin(2*x))",
    ),
    (
        "D^2+2*D+2",
        "exp(-x)*(3 + 2*sin(x) + 4*x^2*cos(x))",
        "3*exp(-x) + 1/3*exp(-x)*(x*(3*x - 3)*cos(x) + x*(2*x^2 - 3)*sin(x))",
    ),
]


def test_criterion_01_nonresonant_exponential():
    P, g, Y, _ = solve_src("3*D^2-2*D+8", "5*exp(3*x)")
    assert Y == rexpr((F(5, 29), 0, 3, 0, None))
    assert render_text(Y) == "5/29*exp(3*x)"
    assert check_particular(P, g, Y).is_exact


def test_criterion_02_resonant_exponential():
    P, g, Y, trace = solve_src("(D-1)*(D+5)*(D-2)^3", "3*exp(2*x)")
    assert Y == rexpr((F(1, 14), 3, 2, 0, None))
    assert render_text(Y) == "1/14*x^3*exp(2*x)"
    assert trace.steps[0].resonance == 3
    assert check_particular(P, g, Y).is_exact


def test_criterion_03_polynomial_rhs_with_series_in_trace():
    P, g, Y, trace = solve_src("D^3-5*D^2+3*D+2", "2*x^3+4*x^2-6*x+5")
    assert Y == rexpr(
        (1, 3, 0, 0, None),
        (F(-5, 2), 2, 0, 0, None),
        (F(39, 2), 1, 0, 0, None),
        (F(-169, 4), 0, 0, 0, None),
    )
    assert trace.steps[0].series.coefficients == (
        gauss(F(1, 2)),
        gauss(F(-3, 4)),
        gauss(F(19, 8)),
        gauss(F(-91, 16)),
    )

    P2, g2, Y2, _ = solve_src("D^3-3*D^2+2*D", "x^3-2*x^2")
    assert Y2 == rexpr(
        (F(1, 8), 4, 0, 0, None),
        (F(5, 12), 3, 0, 0, None),
        (F(9, 8), 2, 0, 0, None),
        (F(17, 8), 1, 0, 0, None),
    )
    assert check_particular(P, g, Y).is_exact
    assert check_particular(P2, g2, Y2).is_exact


def test_criterion_04_trig_rhs_both_routes():
    # non-resonant: main pipeline against the D^2 -> -beta^2 substitution route
    P, g, Y, _ = solve_src("2*D^3+D^2-5*D+3", "3*sin(2*x)")
    assert Y == rexpr((F(78, 677), 0, 0, 2, "cos"), (F(-3, 677), 0, 0, 2, "sin"))
    assert render_text(Y) == "3/677*(26*cos(2*x) - sin(2*x))"
    alt = trig_route_real(P, F(3), F(2), "sin")
    assert check_particular(P, g, alt).is_exact
    assert P.apply(Y.to_complex() - alt.to_complex()).is_zero()

    # resonant: main pipeline against the factored closed-form route
    P2, g2, Y2, _ = solve_src("(D-1)^2*(D-2)*(D^2+4)^2", "4*sin(2*x)")
    assert Y2 == rexpr((F(1, 800), 2, 0, 2, "cos"), (F(-7, 800), 2, 0, 2, "sin"))
    assert render_text(Y2) == "1/800*(x^2*cos(2*x) - 7*x^2*sin(2*x))"
    inner = resonant_trig_solution(F(2), 2, "sin")
    scaled = rexpr(*((4 * t.coeff, t.k, t.alpha, t.beta, t.trig) for t in inner.terms))
    Q = parse_operator("(D-1)^2*(D-2)").poly
    Y_alt, _ = solve_particular(Q, scaled)
    assert check_particular(P2, g2, Y_alt).is_exact
    assert P2.apply(Y2.to_complex() - Y_alt.to_complex()).is_zero()


def test_criterion_05_product_cases():
    product_cases = GOLDENS[6:]
    assert len(product_cases) == 7
    for op_src, rhs_src, want in product_cases:
        P, g, Y, _ = solve_src(op_src, rhs_src)
        assert render_text(Y) == want, (op_src, rhs_src)
        assert check_particular(P, g, Y).is_exact
    # the resonant exp*cos case pins the operator the worked answer satisfies
    P, g, Y, _ = solve_src("(D-1)*((D-3)^2+4)", "4*exp(3*x)*cos(2*x)")
    assert Y == rexpr((F(-1, 4), 1, 3, 2, "cos"), (F(1, 4), 1, 3, 2, "sin"))


def test_criterion_06_errata_detection(capsys):
    # derive the oracle first: P = (D-2)(D-4)^3, third derivative at 4
    P = op("(D-2)*(D-4)^3")
    third = OpRef(P.coeffs).formal_derivative().formal_derivative().formal_derivative()
    assert third == OpRef((-84, 24))
    assert third.evaluate(gauss(4)) == gauss(12)
    want = exponential_input(P, gauss(5), gauss(4))
    assert want == ComplexExpr(((gauss(F(5, 12)), 3, gauss(4)),))

    code = main(
        ["verify", "--op", "(D-2)*(D-4)^3", "--rhs", "5*exp(4*x)",
         "--candidate", "-5/36*x^3*exp(4*x)"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_RESIDUAL
    assert out.strip() == "residual: -20/3*exp(4*x)"

    code = main(
        ["verify", "--op", "(D-2)*(D-4)^3", "--rhs", "5*exp(4*x)",
         "--candidate", "5/12*x^3*exp(4*x)"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip() == "exact"


def test_criterion_07_oracle_round_trip_500():
    rng = random.Random(20260819)
    forced_count = 0
    solve_time = 0.0
    for case in range(500):
        P, roots = rand_rooted_operator(rng, max_roots=4, height=5)
        forced = None
        if rng.random() < 0.45:
            forced = rng.choice(roots)[0]
            forced_count += 1
        g = rand_real_rhs(rng, max_atoms=3, max_degree=4, forced_lam=forced)
        t0 = time.perf_counter()
        Y, _ = solve_particular(P, g)
        solve_time += time.perf_counter() - t0
        assert check_particular(P, g, Y).is_exact, (P, g)
    assert forced_count >= 150
    assert solve_time / 500 < 0.010  # mean solve stays at desk scale


def test_criterion_08_substitution_and_shift_identities_500():
    rng = random.Random(31415)
    for _ in range(250):
        # eigenvalue substitution: P(D) e^{lam x} = P(lam) e^{lam x}
        P = rand_operator(rng, max_degree=5, height=5)
        lam = rand_gauss(rng, 5)
        got = P.apply(ComplexExpr(((gauss(1), 0, lam),)))
        assert got == ComplexExpr(((OpRef(P.coeffs).evaluate(lam), 0, lam),))
    for _ in range(250):
        # exponential shift: P(D)[e^{lam x} f] = e^{lam x} P(D + lam) f
        P = rand_operator(rng, max_degree=4, height=4)
        lam = rand_gauss(rng, 4)
        f = rand_complex_expr(rng)
        lifted = ComplexExpr(((t.coeff, t.k, t.lam + lam) for t in f.terms))
        inner = P.shift(lam).apply(f)
        relifted = ComplexExpr(((t.coeff, t.k, t.lam + lam) for t in inner.terms))
        assert P.apply(lifted) == relifted


def test_criterion_09_kernel_suite():
    rng = random.Random(27182)
    for _ in range(200):
        f = rand_factored(rng)
        P = f.expand()
        basis = kernel_basis(f)
        assert len(basis) == P.degree
        assert check_kernel(P, basis).is_exact, f

    f12 = parse_operator("(D-2)*(D-5)^3*((D+3)^2+4)*((D-7)^2+16)^4").factored
    basis = kernel_basis(f12)
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
    assert check_kernel(f12.expand(), basis).is_exact


def test_criterion_10_numeric_spot_checks():
    for op_src, rhs_src, _ in GOLDENS:
        P, g, Y, _ = solve_src(op_src, rhs_src)
        assert numeric_spot_check(P, g, Y) < 1e-9, (op_src, rhs_src)


def test_criterion_11_parser_round_trips():
    for op_src, rhs_src, answer_text in GOLDENS:
        parsed = parse_operator(op_src)
        assert parse_operator(render_operator(parsed.poly)).poly == parsed.poly
        g = parse_rhs(rhs_src)
        assert parse_rhs(render_text(g)) == g
        assert parse_rhs(answer_text) == parse_rhs(render_text(parse_rhs(answer_text)))

    rng = random.Random(16180)
    for _ in range(200):
        f = rand_factored(rng)
        P = f.expand()
        again = factor_exact(P)
        assert again.expand() == P, f

    with pytest.raises(UnfactorableOverGaussianRationals):
        factor_exact(op("D^2-2"))
