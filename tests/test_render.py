"""Pretty printers: text, LaTeX, JSON term lists, operator forms."""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from diffop import (
    OperatorPoly,
    RealExpr,
    RealTerm,
    expr_to_json,
    gauss,
    parse_operator,
    parse_rhs,
    render_factored,
    render_latex,
    render_operator,
    render_text,
    solve_particular,
)
from diffop.render import render_complex_text, trace_to_json, trace_to_text
from genutil import op, rexpr

F = Fraction


def test_zero_renders_as_zero():
    assert render_text(rexpr()) == "0"
    assert render_latex(rexpr()) == "0"


def test_plain_polynomial_descending():
    e = rexpr((1, 3, 0, 0, None), (F(-5, 2), 2, 0, 0, None), (F(39, 2), 1, 0, 0, None), (F(-169, 4), 0, 0, 0, None))
    assert render_text(e) == "x^3 - 5/2*x^2 + 39/2*x - 169/4"
    assert render_latex(e) == "x^3-\\frac{5}{2}x^2+\\frac{39}{2}x-\\frac{169}{4}"


def test_exponential_groups():
    assert render_text(rexpr((F(5, 29), 0, 3, 0, None))) == "5/29*exp(3*x)"
    assert render_text(rexpr((F(1, 14), 3, 2, 0, None))) == "1/14*x^3*exp(2*x)"
    assert render_latex(rexpr((F(5, 29), 0, 3, 0, None))) == "\\frac{5}{29}e^{3x}"


def test_trig_group_factors_common_scalar():
    e = rexpr((F(78, 677), 0, 0, 2, "cos"), (F(-3, 677), 0, 0, 2, "sin"))
    assert render_text(e) == "3/677*(26*cos(2*x) - sin(2*x))"
    assert render_latex(e) == "\\frac{3}{677}\\left[26\\cos 2x-\\sin 2x\\right]"


def test_trig_group_factors_common_power():
    e = rexpr((F(1, 800), 2, 0, 2, "cos"), (F(-7, 800), 2, 0, 2, "sin"))
    assert render_text(e) == "1/800*(x^2*cos(2*x) - 7*x^2*sin(2*x))"


def test_mixed_power_trig_group():
    e = rexpr((F(1, 4), 2, 0, 2, "cos"), (F(1, 3), 3, 0, 2, "sin"), (F(-1, 8), 1, 0, 2, "sin"))
    assert render_text(e) == "1/24*(6*x^2*cos(2*x) + x*(8*x^2 - 3)*sin(2*x))"
    assert render_latex(e) == "\\frac{1}{24}\\left[6x^2\\cos 2x+x(8x^2-3)\\sin 2x\\right]"


def test_polynomial_times_exponential_group():
    e = rexpr((F(1, 20), 2, 2, 0, None), (F(-3, 200), 1, 2, 0, None), (F(119, 4000), 0, 2, 0, None))
    assert render_text(e) == "1/4000*(200*x^2 - 60*x + 119)*exp(2*x)"


def test_negative_leading_group():
    e = rexpr((F(-2, 9), 3, 2, 0, None), (F(-1, 9), 2, 2, 0, None))
    assert render_text(e) == "-1/9*x^2*(2*x + 1)*exp(2*x)"
    assert render_text(rexpr((-9, 0, 0, 3, "sin"))) == "-9*sin(3*x)"


def test_multi_group_sum():
    e = rexpr(
        (3, 0, -1, 0, None),
        (-1, 1, -1, 1, "cos"),
        (1, 2, -1, 1, "cos"),
        (-1, 1, -1, 1, "sin"),
        (F(2, 3), 3, -1, 1, "sin"),
    )
    assert render_text(e) == (
        "3*exp(-x) + 1/3*exp(-x)*(x*(3*x - 3)*cos(x) + x*(2*x^2 - 3)*sin(x))"
    )
    assert render_latex(e) == (
        "3e^{-x}+\\frac{1}{3}e^{-x}\\left[x(3x-3)\\cos x+x(2x^2-3)\\sin x\\right]"
    )


def test_operator_rendering():
    assert render_operator(OperatorPoly((3, -5, 1, 2))) == "2*D^3 + D^2 - 5*D + 3"
    assert render_operator(OperatorPoly((8, -2, 3))) == "3*D^2 - 2*D + 8"
    assert render_operator(OperatorPoly((0, 1))) == "D"
    assert render_operator(OperatorPoly((F(1, 2),))) == "1/2"
    assert render_operator(OperatorPoly()) == "0"


def test_operator_rendering_round_trips():
    for src in ("2*D^3 + D^2 - 5*D + 3", "D^5 + 4*D^4 + 2*D^3 - 27*D + 20"):
        p = parse_operator(src).poly
        assert parse_operator(render_operator(p)).poly == p


def test_factored_rendering():
    f = parse_operator("(D-1)*(D+5)*(D-2)^3").factored
    assert render_factored(f) == "(D-1)*(D+5)*(D-2)^3"
    g = parse_operator("((D-7)^2+16)^4").factored
    assert render_factored(g) == "((D-7)^2+16)^4"
    h = parse_operator("-2*(D-1)^2").factored
    assert render_factored(h) == "-2*(D-1)^2"
    assert parse_operator(render_factored(f)).poly == f.expand()


def test_complex_term_rendering():
    c = rexpr((2, 1, 0, 2, "cos")).to_complex()
    assert render_complex_text(c) == "(1)*x*e^((-2i)x) + (1)*x*e^((2i)x)"


def test_json_terms_describe_each_monomial():
    blob = expr_to_json(rexpr((F(5, 29), 0, 3, 0, None)))
    assert blob == [
        {
            "coeff": {"num": "5", "den": "29"},
            "k": 0,
            "alpha": {"num": "3", "den": "1"},
            "beta": {"num": "0", "den": "1"},
            "trig": None,
        }
    ]


def test_trace_serialization_carries_the_worked_steps():
    g = rexpr((2, 3, 0, 0, None), (4, 2, 0, 0, None), (-6, 1, 0, 0, None), (5, 0, 0, 0, None))
    _, trace = solve_particular(op("D^3-5*D^2+3*D+2"), g)
    blob = trace_to_json(trace)
    assert [s["resonance_order"] for s in blob["steps"]] == [0]
    assert blob["steps"][0]["series"] == [
        {"num": "1", "den": "2"},
        {"num": "-3", "den": "4"},
        {"num": "19", "den": "8"},
        {"num": "-91", "den": "16"},
    ]
    text = trace_to_text(trace)
    assert "1/2" in text and "-91/16" in text
    assert "resonance order" in text


# --- round trip with the parser --------------------------------------------

pos_fracs = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
plain_terms = st.builds(
    RealTerm, fracs, st.integers(min_value=0, max_value=4), fracs,
    st.just(F(0)), st.just(None),
)
trig_terms = st.builds(
    RealTerm, fracs, st.integers(min_value=0, max_value=4), fracs,
    pos_fracs, st.sampled_from(("cos", "sin")),
)


@given(st.builds(RealExpr, st.lists(plain_terms | trig_terms, max_size=4)))
@settings(max_examples=120)
def test_rendered_text_reparses_to_the_same_expression(e):
    assert parse_rhs(render_text(e)) == e


# --- byte stability ----------------------------------------------------------

# sha256 of the text and LaTeX renderings of _sweep_exprs(); a change of any
# byte in either spelling changes it.
SWEEP_SHA256 = "1b572dda020387d0c1963de28508bf1e99a89367d2122c1191affa9adfbfc6f9"


def _sweep_exprs(count: int = 2000, seed: int = 20261018) -> list:
    """Seeded answers with mixed rates, trig parts, powers to 12, +-1 coefficients."""
    rng = random.Random(seed)
    alphas = (F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3), F(12))
    betas = (F(0), F(1), F(2), F(1, 3), F(7, 2), F(10))
    exprs = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(0, 6)):
            beta = rng.choice(betas)
            trig = None if beta == 0 else rng.choice(("cos", "sin"))
            if rng.random() < 0.4:
                coeff = F(rng.choice((1, -1)))
            else:
                coeff = F(rng.randint(-40, 40), rng.randint(1, 30))
            terms.append(RealTerm(coeff, rng.randint(0, 12), rng.choice(alphas), beta, trig))
        exprs.append(RealExpr(terms))
    return exprs


def test_text_and_latex_bytes_are_stable():
    digest = hashlib.sha256()
    for e in _sweep_exprs():
        digest.update(f"{render_text(e)}\n{render_latex(e)}\n".encode())
    assert digest.hexdigest() == SWEEP_SHA256
