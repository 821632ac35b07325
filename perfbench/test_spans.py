"""Every named span must be reached on the workload meant to exercise it.

A refactor that stops calling a function through the name the tracer wraps
would otherwise report 0 s for that layer instead of failing.  Run with

    python3 -m pytest -q perfbench
"""

import json

import pytest

from run import ROOT, end_to_end, per_layer, traced_pass  # puts src/ first on sys.path
from tracing import COUNTERS, REPORTED_SPANS

import diffop  # noqa: E402
import diffop.cli  # noqa: E402
import diffop.operators  # noqa: E402

EVERYWHERE = ("cli.main", "parsing.parse_operator", "render.render_text")
SOLVE = (
    "parsing.parse_rhs",
    "operators.shift",
    "operators.apply.series",
    "operators.apply.cert",
    "solve.solve_particular",
    "solve.series_invert",
    "solve.antidifferentiate",
    "checks.check_particular",
    "expressions.to_complex",
    "expressions.to_real",
)
CALLED = {
    "stress": EVERYWHERE + SOLVE,
    "deep": EVERYWHERE + SOLVE + ("render.render_latex", "render.expr_to_json"),
    "kernel": EVERYWHERE + ("parsing.factor_exact", "solve.kernel_basis"),
}
NOT_CALLED = {
    "stress": ("parsing.factor_exact", "solve.kernel_basis", "render.render_latex"),
    "deep": ("parsing.factor_exact", "solve.kernel_basis"),
    "kernel": ("checks.check_particular", "solve.solve_particular", "parsing.parse_rhs"),
}


@pytest.fixture(scope="module", params=sorted(CALLED))
def traced(request):
    tally, tracer = traced_pass(request.param, 1, 1)
    return request.param, tally, tracer


def test_named_spans_are_reached(traced):
    workload, tally, tracer = traced
    assert tally.attempted > 0 and tally.failed == 0, tally.reasons
    spans = tracer.summary()
    assert set(REPORTED_SPANS) <= set(spans)
    for name in CALLED[workload]:
        assert spans[name][0] > 0, f"{name} never called on {workload}"
    for name in NOT_CALLED[workload]:
        assert spans[name][0] == 0, f"{name} called on {workload}"
    for name, (calls, total, own) in spans.items():
        assert 0 <= own <= total + 1e-9, name


def test_counters_repeat_exactly():
    first = traced_pass("kernel", 7, 1)[1]
    second = traced_pass("kernel", 7, 1)[1]
    calls = lambda t: {name: row[0] for name, row in t.summary().items()}
    assert calls(first) == calls(second)
    assert first.counters == second.counters
    assert set(first.counters) == set(COUNTERS)


def test_uninstall_restores_every_name():
    before = (diffop.cli.main, diffop.solve_particular, diffop.operators.OperatorPoly.apply)
    traced_pass("kernel", 1, 1)
    after = (diffop.cli.main, diffop.solve_particular, diffop.operators.OperatorPoly.apply)
    assert before == after


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = per_layer("kernel", 1, 1)[0]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in traced.items()
    }
    plain = end_to_end("kernel", 1, 1)[0]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in plain.items()
    }
    assert all(value > 0 for value, _ in plain.values())
