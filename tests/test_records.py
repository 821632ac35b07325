"""The value records keep the contract of the frozen dataclasses they were.

Each record is checked against a dataclass twin, declared below as the
record was declared when it was a ``@dataclass(frozen=True)``: field names,
order and defaults, ``==`` and ``hash`` on seeded values, ``repr`` text,
refused assignment and deletion, and the exception each validation raises.
"""

import copy
import dataclasses
import inspect
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from diffop import (
    ComplexExpr,
    ComplexTerm,
    Factor,
    FactoredOperator,
    GaussianRational,
    KernelBasis,
    OperatorPoly,
    ParsedOperator,
    RealExpr,
    RealTerm,
    Verdict,
    check_particular,
    kernel_basis,
    parse_operator,
    series_invert,
    solve_particular,
)
from diffop.parsing import _OpVal
from diffop.solve import FrequencyStep, InverseSeries, SolveTrace
from genutil import (
    rand_complex_expr,
    rand_factored,
    rand_fraction,
    rand_gauss,
    rand_real_rhs,
    rand_rooted_operator,
)

TWINS = {}


def twin_of(record):
    """Make the decorated class the frozen dataclass twin of ``record``,
    under the record's name, so that the two reprs can be compared."""

    def register(cls):
        cls.__name__ = cls.__qualname__ = record.__qualname__
        TWINS[record] = dataclass(frozen=True)(cls)
        return TWINS[record]

    return register


@twin_of(GaussianRational)
class _GaussianRational:
    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)


@twin_of(ComplexTerm)
class _ComplexTerm:
    coeff: GaussianRational
    k: int
    lam: GaussianRational


@twin_of(RealTerm)
class _RealTerm:
    coeff: Fraction
    k: int
    alpha: Fraction
    beta: Fraction
    trig: Optional[str]

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if (self.trig is None) != (self.beta == 0):
            raise ValueError("trig factor present iff beta is nonzero")
        if self.beta < 0:
            raise ValueError("beta must be normalized to be positive")
        if self.trig not in (None, "cos", "sin"):
            raise ValueError(f"unknown trig tag {self.trig!r}")


@twin_of(Factor)
class _Factor:
    alpha: Fraction
    beta: Fraction
    mult: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.mult < 1:
            raise ValueError("multiplicity must be positive")


@twin_of(FactoredOperator)
class _FactoredOperator:
    leading: Fraction
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "leading", Fraction(self.leading))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.leading:
            raise ValueError("leading coefficient must be nonzero")


@twin_of(_OpVal)
class _OpValTwin:
    poly: ComplexExpr
    parts: Optional[tuple]


@twin_of(ParsedOperator)
class _ParsedOperator:
    poly: OperatorPoly
    factored: Optional[FactoredOperator]


@twin_of(InverseSeries)
class _InverseSeries:
    operator: OperatorPoly
    source: OperatorPoly
    order: int


@twin_of(FrequencyStep)
class _FrequencyStep:
    lam: GaussianRational
    rhs_poly: ComplexExpr
    shifted: OperatorPoly
    resonance: int
    series: InverseSeries
    series_applied: ComplexExpr
    integrated: ComplexExpr
    contribution: ComplexExpr


@twin_of(SolveTrace)
class _SolveTrace:
    operator: OperatorPoly
    rhs_complex: ComplexExpr
    steps: tuple


@twin_of(KernelBasis)
class _KernelBasis:
    elements: tuple
    labels: tuple

    def __len__(self) -> int:
        return len(self.elements)


@twin_of(Verdict)
class _Verdict:
    status: str
    residual: Optional[RealExpr] = None
    detail: str = ""


def _solves(rng: random.Random, count: int) -> list:
    out = []
    for case in range(count):
        P, roots = rand_rooted_operator(rng, max_roots=2, height=3)
        forced = roots[0][0] if case % 2 else None
        out.append((P, rand_real_rhs(rng, max_atoms=2, max_degree=2, forced_lam=forced)))
    return out


def _samples(record, rng: random.Random) -> list:
    """Seeded argument tuples for ``record``, valid ones only."""
    if record is GaussianRational:
        return [(rand_fraction(rng, 5), rand_fraction(rng, 5)) for _ in range(4)] + [
            (rand_fraction(rng, 5),), (rng.randint(-9, 9),), (rng.randint(-9, 9), 2), (0.5, Fraction(3)),
        ]
    if record is ComplexTerm:
        return [(rand_gauss(rng, 4), rng.randint(0, 4), rand_gauss(rng, 4)) for _ in range(6)]
    if record is RealTerm:
        out = []
        for _ in range(6):
            beta = abs(rand_fraction(rng, 4)) if rng.random() < 0.6 else 0
            trig = rng.choice(("cos", "sin")) if beta else None
            out.append((rand_fraction(rng, 4, nonzero=True), rng.randint(0, 3), rand_fraction(rng, 4), beta, trig))
        return out + [(2, 1, -1, 3, "sin")]
    if record is Factor:
        return [(rand_fraction(rng, 4), abs(rand_fraction(rng, 4)), rng.randint(1, 3)) for _ in range(6)] + [
            (1, 2, 3)
        ]
    if record is FactoredOperator:
        return [(F.leading, list(F.factors)) for F in (rand_factored(rng) for _ in range(5))] + [
            (3, (Factor(1, 0, 2),))
        ]
    if record is _OpVal:
        out = []
        for _ in range(5):
            poly = rand_complex_expr(rng)
            out.append((poly, ((poly, rng.randint(1, 3)),) if rng.random() < 0.5 else None))
        return out
    if record is ParsedOperator:
        sources = ["(D-1)^2*(D^2+4)", "D^3-D", "2*(2*D+1)", "D^2+D+1", "(D-1)*D^2"]
        return [tuple(parse_operator(text)) for text in sources]
    if record is InverseSeries:
        out = []
        for _ in range(5):
            R = OperatorPoly([rand_gauss(rng, 3, nonzero=True)] + [rand_gauss(rng, 3) for _ in range(2)])
            out.append(tuple(series_invert(R, rng.randint(0, 4))))
        return out
    if record is FrequencyStep:
        return [tuple(step) for P, g in _solves(rng, 4) for step in solve_particular(P, g)[1].steps]
    if record is SolveTrace:
        return [tuple(solve_particular(P, g)[1]) for P, g in _solves(rng, 5)]
    if record is KernelBasis:
        return [(basis.elements, basis.labels) for basis in (kernel_basis(rand_factored(rng)) for _ in range(5))]
    if record is Verdict:
        out = [("exact",)]
        for P, g in _solves(rng, 3):
            Y, _ = solve_particular(P, g)
            verdict = check_particular(P, g, Y - g if rng.random() < 0.5 else g)
            out.append((verdict.status, verdict.residual))
            out.append((verdict.status, verdict.residual, "C1 is not annihilated"))
        return out
    raise AssertionError(record)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _field_names(record) -> tuple:
    return record._fields if issubclass(record, tuple) else record.__slots__


def _values(value, names) -> list:
    return [(type(getattr(value, name)), getattr(value, name)) for name in names]


RECORDS = sorted(TWINS, key=lambda record: record.__qualname__)


def test_every_record_has_a_twin():
    assert len(RECORDS) == 12
    assert not any(dataclasses.is_dataclass(record) for record in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__qualname__)
def test_fields_defaults_and_values_match_the_dataclass(record):
    twin = TWINS[record]
    names = _field_names(record)
    assert list(names) == [field.name for field in dataclasses.fields(twin)]
    signature = lambda cls: [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert signature(record) == signature(twin)
    for args in _samples(record, random.Random(23)):
        value, expected = record(*args), twin(*args)
        assert _values(value, names) == _values(expected, names), args
        assert record(**dict(zip(names, args))) == value


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__qualname__)
def test_equality_hash_and_repr_match_the_dataclass(record):
    twin = TWINS[record]
    samples = _samples(record, random.Random(29))
    values = [record(*args) for args in samples] + [record(*samples[0])]
    expected = [twin(*args) for args in samples] + [twin(*samples[0])]
    assert values[0] is not values[-1] and values[0] == values[-1]
    for a, ea in zip(values, expected):
        assert repr(a) == repr(ea)
        assert _outcome(hash, a) == _outcome(hash, ea)
        for b, eb in zip(values, expected):
            assert (a == b, a != b) == (ea == eb, ea != eb)
    assert values[0] != expected[0] and values[0] != object()


def test_records_of_two_classes_are_never_equal():
    a, b = GaussianRational(1, 2), KernelBasis(Fraction(1), Fraction(2))
    assert (a == b, a != b) == (False, True)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__qualname__)
def test_records_refuse_assignment_and_deletion(record):
    twin = TWINS[record]
    args = _samples(record, random.Random(31))[0]
    for value in (record(*args), twin(*args)):
        before = repr(value)
        for name in (*_field_names(record), "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__qualname__)
def test_records_copy_and_pickle_to_equal_values(record):
    for args in _samples(record, random.Random(37))[:3]:
        value = record(*args)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "record, args",
    [
        (Factor, (1, -1, 1)),
        (Factor, (1, 0, 0)),
        (Factor, (1, -1, 0)),
        (Factor, ("a", 0, 1)),
        (FactoredOperator, (0, ())),
        (FactoredOperator, (Fraction(0), [Factor(1, 0, 1)])),
        (FactoredOperator, (1, 5)),
        (RealTerm, (1, 0, 0, 1, None)),
        (RealTerm, (1, 0, 0, 0, "cos")),
        (RealTerm, (1, 0, 0, -1, "sin")),
        (RealTerm, (1, 0, 0, 1, "tan")),
        (RealTerm, (None, 0, 0, 0, None)),
        (GaussianRational, (None,)),
        (GaussianRational, ("1/0",)),
        (GaussianRational, (1, "i")),
        (GaussianRational, (3,)),
        (GaussianRational, (Fraction(1, 2), 2)),
    ],
)
def test_validation_matches_the_dataclass(record, args):
    outcome, expected = _outcome(record, *args), _outcome(TWINS[record], *args)
    if expected[0] == "ok":
        names = _field_names(record)
        assert outcome[0] == "ok" and _values(outcome[1], names) == _values(expected[1], names)
    else:
        assert outcome == expected


def test_kernel_basis_length():
    rng = random.Random(41)
    for _ in range(20):
        F = rand_factored(rng)
        basis = kernel_basis(F)
        twin = TWINS[KernelBasis](basis.elements, basis.labels)
        assert len(basis) == len(twin) == len(basis.elements) == F.degree
