"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of diffop in place:
every module of the package that holds the function under the looked-up
name gets the wrapper (``diffop.cli.solve_particular`` as well as
``diffop.solve.solve_particular``), so a caller cannot reach the original
by importing it from elsewhere.  Spans are kept in memory as
(name, parent index, start, end); a span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module defining it, attribute, class name or None)
SPANS = {
    "cli.main": ("diffop.cli", "main", None),
    "parsing.parse_operator": ("diffop.parsing", "parse_operator", None),
    "parsing.parse_rhs": ("diffop.parsing", "parse_rhs", None),
    "parsing.factor_exact": ("diffop.parsing", "factor_exact", None),
    "operators.shift": ("diffop.operators", "shift", "OperatorPoly"),
    "operators.apply": ("diffop.operators", "apply", "OperatorPoly"),
    "solve.solve_particular": ("diffop.solve", "solve_particular", None),
    "solve.series_invert": ("diffop.solve", "series_invert", None),
    "solve.antidifferentiate": ("diffop.solve", "antidifferentiate", None),
    "solve.kernel_basis": ("diffop.solve", "kernel_basis", None),
    "checks.check_particular": ("diffop.checks", "check_particular", None),
    "expressions.to_complex": ("diffop.expressions", "to_complex", "RealExpr"),
    "expressions.to_real": ("diffop.expressions", "to_real", "ComplexExpr"),
    "render.render_text": ("diffop.render", "render_text", None),
    "render.render_latex": ("diffop.render", "render_latex", None),
    "render.expr_to_json": ("diffop.render", "expr_to_json", None),
}

# operators.apply serves two callers; its spans are named by the caller.
APPLY_UNDER = (
    ("checks.check_particular", "operators.apply.cert"),
    ("solve.solve_particular", "operators.apply.series"),
)
REPORTED_SPANS = tuple(
    s for s in SPANS if s != "operators.apply"
) + tuple(name for _, name in APPLY_UNDER)

# counter name -> unit
COUNTERS = {
    "expressions.complex_expr.count": "count",
    "operators.degree_max": "count",
    "solve.frequencies": "count",
    "solve.resonance_max": "count",
    "solve.series_order_max": "count",
    "expressions.terms_in": "count",
    "expressions.terms_out": "count",
    "expressions.coeff_bits_max": "bits",
}


def _coeff_bits(expr) -> int:
    return max(
        (max(t.coeff.numerator.bit_length(), t.coeff.denominator.bit_length()) for t in expr.terms),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.enabled = True  # off while the benchmark checks an output
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------

    def _apply_name(self) -> str:
        i = self._stack[-1] if self._stack else -1
        while i >= 0:
            for caller, name in APPLY_UNDER:
                if self.spans[i][0] == caller:
                    return name
            i = self.spans[i][1]
        return "operators.apply"

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {
            "parsing.parse_operator": self._count_operator,
            "solve.solve_particular": self._count_solve,
        }.get(name)
        named = self._apply_name if name == "operators.apply" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([named() if named else name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_operator(self, args, parsed):
        c = self.counters
        c["operators.degree_max"] = max(c["operators.degree_max"], parsed.poly.degree)

    def _count_solve(self, args, result):
        c = self.counters
        g = args[1]
        Y, trace = result
        c["solve.frequencies"] += len(trace.steps)
        for step in trace.steps:
            c["solve.resonance_max"] = max(c["solve.resonance_max"], step.resonance)
            c["solve.series_order_max"] = max(c["solve.series_order_max"], step.series.order)
        c["expressions.terms_in"] += len(g.terms)
        c["expressions.terms_out"] += len(Y.terms)
        c["expressions.coeff_bits_max"] = max(
            c["expressions.coeff_bits_max"], _coeff_bits(g), _coeff_bits(Y)
        )

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every span's function wherever diffop holds it."""
        modules = [m for n, m in sys.modules.items() if n == "diffop" or n.startswith("diffop.")]
        for name, (module, attr, cls_name) in SPANS.items():
            owner = getattr(sys.modules[module], cls_name) if cls_name else None
            original = getattr(owner or sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if owner else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        cls = sys.modules["diffop.expressions"].ComplexExpr
        init = cls.__init__
        counters = self.counters

        @functools.wraps(init)
        def counted(self_, *args, **kwargs):
            if self.enabled:
                counters["expressions.complex_expr.count"] += 1
            init(self_, *args, **kwargs)

        self._restore.append((cls, "__init__", init))
        cls.__init__ = counted

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """{span: (calls, total_s, self_s)} for every reported span."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in REPORTED_SPANS}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += end - start - child_time[i]
            # total time counts only the outermost span of a recursive name
            j = parent
            while j >= 0 and self.spans[j][0] != name:
                j = self.spans[j][1]
            if j < 0:
                row[1] += end - start
        return {name: tuple(row) for name, row in out.items()}
