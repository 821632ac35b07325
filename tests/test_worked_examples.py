"""The worked catalogue, answers, LaTeX and derivation traces, against a golden copy,
and the contracts its solves keep: the certificate shares no code with the
solver, and the series step is one ``OperatorPoly.apply`` per frequency a + bi
with b >= 0 for a real operator, the step at a - bi being mirrored from it.

tests/golden/worked_examples.txt is the output of

    PYTHONPATH=src python3 scripts/worked_examples.py --latex

followed by ``--explain NAME`` for every catalogue name in order.  Any byte
change in the text or LaTeX answers, the certificate line or trace_to_text
fails the first test.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import diffop.solve
from diffop import (
    ConjugateSymmetryError,
    OperatorPoly,
    check_particular,
    gauss,
    parse_operator,
    parse_rhs,
    solve_particular,
)
from diffop.cli import _render_expr, main
from diffop.expressions import ORIGIN

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "worked_examples", ROOT / "scripts" / "worked_examples.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main(argv) == 0
    return out.getvalue()


def test_catalogue_matches_golden_output():
    script = _load_script()
    got = _run(script, ["--latex"])
    for problem in script.CATALOGUE:
        got += _run(script, ["--explain", problem.name])
    expected = (ROOT / "tests" / "golden" / "worked_examples.txt").read_text()
    assert got == expected



def test_certificate_uses_neither_shift_nor_the_series(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the certificate reached the solver's code")

    solves = []
    for problem in _load_script().CATALOGUE:
        P, g = parse_operator(problem.op).poly, parse_rhs(problem.rhs)
        solves.append((P, g, solve_particular(P, g)[0]))
    monkeypatch.setattr(OperatorPoly, "shift", forbidden)
    monkeypatch.setattr(diffop.solve, "series_invert", forbidden)
    frequencies = set()
    for P, g, Y in solves:
        assert check_particular(P, g, Y).is_exact
        frequencies |= set(Y.to_complex().freqs)
    assert ORIGIN in frequencies and len(frequencies) > 1


def _counted(monkeypatch, owner, name) -> list:
    """The arguments of every call to owner.name, made through a wrapper."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_solve_applies_the_series_once_per_frequency(monkeypatch):
    # perfbench names the series step's span by this call to OperatorPoly.apply.
    # A real operator solves a + bi with b >= 0 and mirrors a - bi from it.
    calls = _counted(monkeypatch, OperatorPoly, "apply")
    for problem in _load_script().CATALOGUE:
        g = parse_rhs(problem.rhs)
        calls.clear()
        solve_particular(parse_operator(problem.op).poly, g)
        assert len(calls) == sum(q >= 0 for _, _, q in g.to_complex().freqs)
        assert all(list(f.freqs) == [ORIGIN] for _, f in calls)


def test_complex_operator_applies_the_series_at_every_frequency(monkeypatch):
    # no real y solves (D + i) y = g for a real g != 0, so the final fold raises
    calls = _counted(monkeypatch, OperatorPoly, "apply")
    P = OperatorPoly((gauss(0, 1), 1))
    g = parse_rhs("sin(x) + x*cos(2*x)*exp(x) + x^2")
    with pytest.raises(ConjugateSymmetryError):
        solve_particular(P, g)
    assert len(calls) == len(g.to_complex().freqs) == 5
    assert all(list(f.freqs) == [ORIGIN] for _, f in calls)
    calls.clear()
    with pytest.raises(ConjugateSymmetryError):
        check_particular(P, g, g)
    assert [set(f.freqs) for _, f in calls] == [set(g.to_complex().freqs)]


def test_series_inverts_once_per_conjugate_pair(monkeypatch):
    calls = _counted(monkeypatch, diffop.solve, "series_invert")
    P, g = parse_operator("(D^2+1)^20").poly, parse_rhs("x^40*sin(x)")
    Y, trace = solve_particular(P, g)
    assert [step.lam for step in trace.steps] == [gauss(0, -1), gauss(0, 1)]
    assert len(calls) == 1 and calls[0][1] == 40
    assert check_particular(P, g, Y).is_exact


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_apply_command_prints_the_full_image(capsys, fmt):
    # the CLI applies a real P at half the frequencies and mirrors the rest
    for problem in _load_script().CATALOGUE:
        P, g = parse_operator(problem.op).poly, parse_rhs(problem.rhs)
        want = _render_expr(P.apply(g.to_complex()).to_real(), fmt)
        assert main(["apply", "--op", problem.op, "--fn", problem.rhs, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out == (json.dumps(want, indent=2) if fmt == "json" else want) + "\n"
