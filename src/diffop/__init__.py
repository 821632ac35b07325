"""Exact particular solutions of constant-coefficient linear ODEs.

Write the equation as P(D) y = g with D = d/dx.  For right-hand sides built
from polynomials, real exponentials, sines, and cosines, the operator P(D)
can be inverted exactly: exponential factors are shifted out, the remaining
polynomial part is handled by a truncated inverse series, and resonance is
absorbed by antidifferentiation.  All arithmetic happens in Q(i); every
answer can be certified by applying P(D) to it and comparing with g
structurally.
"""

from .checks import (
    EXACT,
    STANDARD_POINTS,
    Verdict,
    check_kernel,
    check_particular,
    numeric_spot_check,
)
from .expressions import (
    ComplexExpr,
    ComplexTerm,
    ConjugateSymmetryError,
    InternalInvariantError,
    RealExpr,
    RealTerm,
)
from .factor import (
    Factor,
    FactoredOperator,
    UnfactorableOverGaussianRationals,
    factor_exact,
)
from .operators import D, IDENTITY_OP, OperatorPoly
from .parsing import ParsedOperator, ParseError, parse_operator, parse_rhs
from .rationals import GaussianRational, Rational, gauss
from .render import (
    expr_to_json,
    render_factored,
    render_latex,
    render_operator,
    render_text,
    trace_to_json,
    trace_to_text,
)
from .solve import (
    FrequencyStep,
    InverseSeries,
    KernelBasis,
    SolveTrace,
    antidifferentiate,
    kernel_basis,
    series_invert,
    solve_particular,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexExpr",
    "ComplexTerm",
    "ConjugateSymmetryError",
    "D",
    "EXACT",
    "Factor",
    "FactoredOperator",
    "FrequencyStep",
    "GaussianRational",
    "IDENTITY_OP",
    "InternalInvariantError",
    "InverseSeries",
    "KernelBasis",
    "OperatorPoly",
    "ParseError",
    "ParsedOperator",
    "Rational",
    "RealExpr",
    "RealTerm",
    "STANDARD_POINTS",
    "SolveTrace",
    "UnfactorableOverGaussianRationals",
    "Verdict",
    "antidifferentiate",
    "check_kernel",
    "check_particular",
    "expr_to_json",
    "factor_exact",
    "gauss",
    "kernel_basis",
    "numeric_spot_check",
    "parse_operator",
    "parse_rhs",
    "render_factored",
    "render_latex",
    "render_operator",
    "render_text",
    "series_invert",
    "solve_particular",
    "trace_to_json",
    "trace_to_text",
]
