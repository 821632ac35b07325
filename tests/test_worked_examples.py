"""The worked catalogue, answers, LaTeX and derivation traces, against a golden copy,
and the contracts its solves keep: the certificate shares no code with the
solver, and the series step is one ``OperatorPoly.apply`` per frequency.

tests/golden/worked_examples.txt is the output of

    PYTHONPATH=src python3 scripts/worked_examples.py --latex

followed by ``--explain NAME`` for every catalogue name in order.  Any byte
change in the text or LaTeX answers, the certificate line or trace_to_text
fails the first test.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import diffop.solve
from diffop import OperatorPoly, check_particular, parse_operator, parse_rhs, solve_particular
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


def test_solve_applies_the_series_once_per_frequency(monkeypatch):
    # perfbench names the series step's span by this call to OperatorPoly.apply
    calls = []
    apply = OperatorPoly.apply

    def counted(P, f):
        calls.append(f)
        return apply(P, f)

    monkeypatch.setattr(OperatorPoly, "apply", counted)
    for problem in _load_script().CATALOGUE:
        g = parse_rhs(problem.rhs)
        calls.clear()
        solve_particular(parse_operator(problem.op).poly, g)
        assert len(calls) == len(g.to_complex().freqs)
        assert all(list(f.freqs) == [ORIGIN] for f in calls)
