"""The worked catalogue, answers, LaTeX and derivation traces, against a golden copy.

tests/golden/worked_examples.txt is the output of

    PYTHONPATH=src python3 scripts/worked_examples.py --latex

followed by ``--explain NAME`` for every catalogue name in order.  Any byte
change in the text or LaTeX answers, the certificate line or trace_to_text
fails this test.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

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
