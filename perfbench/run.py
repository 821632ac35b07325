#!/usr/bin/env python3
"""diffop benchmark: problems through the CLI in-process, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload stress --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

A closed loop: one process, one thread, one call at a time.  Each call is
one ``diffop.cli.main`` with its output captured; only that call is timed.
A round of problems runs once or twice over (RUNS_PER_ROUND), and the
outputs are checked afterwards (see verify.py).  A run measures
the number of whole rounds of its workload whose timed calls come nearest to
--seconds, and at least enough for ten samples beyond the tail percentile.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds twice, untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import diffop.cli  # noqa: E402

if not Path(diffop.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"diffop was imported from {diffop.cli.__file__}, not from this checkout's src/")

from tracing import COUNTERS, REPORTED_SPANS, Tracer  # noqa: E402
from verify import check  # noqa: E402
from workloads import ROUNDS, STRESS_DEFAULT_SEED  # noqa: E402

# Runs of each round.  A problem's latency is the best of its runs, which
# lie a round apart.  The slowest calls are mostly ones the host paused: in
# the top 1% of a stress run, process CPU time was 0.66-0.95 of wall time,
# and a run a round later rarely meets the same pause.  deep runs each round
# once; its rounds take about 9 s, and its tail lies among one-second
# problems that such a pause barely moves.
RUNS_PER_ROUND = {"stress": 2, "deep": 1, "kernel": 2}
# Fixed tail percentile per workload: the highest of 99.9/99/95/90/75 that a
# run of --seconds 36 on a 2-core x86 machine gives ten problems beyond.  Runs
# are extended until it has them, so the percentile never changes between runs.
TAIL_PCT = {"stress": 95.0, "deep": 75.0, "kernel": 99.0}
# Rounds of a traced run per --seconds; the rounds run once untraced and
# once traced, which keeps counters identical across runs of one seed.
TRACE_ROUNDS_PER_S = {"stress": 0.125, "deep": 0.04, "kernel": 0.375}
SETUP_REPEATS = 9
SPAWN_TIMEOUT_S = 120


class Tally:
    """Latencies, failures and the output digest of one measured pass."""

    def __init__(self):
        self.latencies = []  # one per problem: the best of its runs
        self.calls = 0
        self.busy = 0.0  # seconds of every timed call
        self.answered = 0  # calls of problems whose every check passed
        self.failed = 0
        self.reasons = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.first = None
        self.slowest = (0.0, ())

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, problem, runs, digest: bool):
        """Record a problem's runs, each (code, stdout, stderr, seconds).
        The first run's output is checked; every other run must print the
        same bytes."""
        code, out, err, _ = runs[0]
        seconds = min(run[3] for run in runs)
        self.latencies.append(seconds)
        self.calls += len(runs)
        self.busy += sum(run[3] for run in runs)
        if self.first is None:
            self.first = (problem, code, out)
        self.slowest = max(self.slowest, (seconds, problem.argv))
        try:
            reason = check(problem, code, out) if isinstance(code, int) else code
        except Exception as exc:  # unreadable output is a failed problem
            reason = f"output could not be read back: {type(exc).__name__}: {exc}"
        if not reason and any(run[:3] != runs[0][:3] for run in runs):
            reason = "a repeated run printed other output"
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(problem.argv)[:200]}: {reason} {err.strip()[:300]}")
        else:
            self.answered += len(runs)
        if digest:
            self.digest.update(f"{code}\n{out}\0{err}\0".encode())
            self.digested += 1


def call(argv):
    """One timed CLI call: (exit code or crash text, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = diffop.cli.main(list(argv))
        except Exception as exc:  # a crash is a failed problem, not a benchmark error
            code = f"crashed: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def measure(workload: str, seed: int, done, tracer=None) -> Tally:
    """Run whole rounds until done(rounds finished, tally) is true.

    Each round runs RUNS_PER_ROUND times over before its outputs are
    checked.  The tracer, if any, is paused during the checks, so that their
    own calls into diffop are not counted as the program's work.
    """
    tally = Tally()
    for r, batch in enumerate(ROUNDS[workload](seed)):
        runs = [[] for _ in batch]
        for _ in range(RUNS_PER_ROUND[workload]):
            for problem, done_runs in zip(batch, runs):
                done_runs.append(call(problem.argv))
        if tracer:
            tracer.enabled = False
        for problem, problem_runs in zip(batch, runs):
            tally.add(problem, problem_runs, digest=r == 0)
        if tracer:
            tracer.enabled = True
        if done(r + 1, tally):
            return tally


def spawn(first) -> tuple:
    """(wall seconds, '' or a mismatch) of a fresh `python -m diffop.cli`
    answering the first problem, timed from start to exit."""
    problem, code, out = first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diffop.cli", *problem.argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if (proc.returncode, proc.stdout) != (code, out):
        return elapsed, f"fresh interpreter printed other output (exit {proc.returncode})"
    return elapsed, ""


def rank(n: int, pct: float) -> int:
    """Nearest rank of the percentile among n samples, from 1."""
    return max(1, math.ceil(pct / 100 * n))


def tail(latencies, pct: float) -> tuple:
    """(value, samples beyond it) at the nearest-rank percentile."""
    ordered = sorted(latencies)
    r = rank(len(ordered), pct)
    return ordered[r - 1], len(ordered) - r


def end_to_end(workload: str, seed: int, seconds: int) -> tuple:
    pct = TAIL_PCT[workload]
    min_samples = next(n for n in itertools.count(1) if n - rank(n, pct) >= 10)
    spawns = []

    def done(rounds, t):
        # The set-up spawns are spread over the run, so that they see the
        # same machine conditions as the timed calls.  The first one is not
        # counted: it writes the bytecode cache, which a user pays once.
        if rounds == 1:
            spawn(t.first)
        # Stop at the round end nearest to --seconds of timed calls, so that
        # a run's length does not depend on how a long round straddles it.
        timed = t.busy
        finished = timed + timed / rounds / 2 >= seconds and t.attempted >= min_samples
        due = SETUP_REPEATS if finished else min(SETUP_REPEATS, int(SETUP_REPEATS * timed / seconds))
        while len(spawns) < due:
            spawns.append(spawn(t.first))
        return finished

    tally = measure(workload, seed, done)
    setup = statistics.median(s for s, _ in spawns)
    reason = next((r for _, r in spawns if r), "")
    attempted, failed = tally.attempted + 1, tally.failed + bool(reason)
    if reason:
        tally.reasons.append(reason)
    tail_value, beyond = tail(tally.latencies, pct)
    best = f"best of {RUNS_PER_ROUND[workload]} runs a round apart"
    metrics = {
        "throughput_pps": (tally.answered / tally.busy, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "throughput_pps": f"{tally.answered} calls answered and checked in {tally.busy:.2f} s of timed calls",
        "latency_p50_ms": f"each problem's {best}",
        "latency_tail_ms": f"p{pct:g}, {beyond} of {tally.attempted} problems beyond it, each problem's {best}",
        "setup_s": f"median of {SETUP_REPEATS} fresh `python -m diffop.cli` runs of the first problem, spread over the run",
        "peak_rss_mb": "maximum resident set of this process",
    }
    lines = [f"{name:<16} {value:.6g} {unit}  ({notes[name]})" if name in notes
             else f"{name:<16} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{'fail_rate':<16} {failed / attempted:.6g} ratio  ({failed} of {attempted} failed)")
    lines.append(f"outputs_sha256   {tally.digest.hexdigest()}  (round 0: {tally.digested} problems)")
    slow_s, slow_argv = tally.slowest
    lines.append(f"slowest          {slow_s * 1e3:.1f} ms  ({' '.join(slow_argv)[:160]})")
    return metrics, lines, attempted, failed, tally.reasons


def traced_pass(workload: str, seed: int, rounds: int) -> tuple:
    """(tally, tracer) of the first rounds of a workload with spans on."""
    tracer = Tracer()
    tracer.install()
    try:
        return measure(workload, seed, lambda r, t: r >= rounds, tracer), tracer
    finally:
        tracer.uninstall()


def per_layer(workload: str, seed: int, seconds: int) -> tuple:
    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    plain = measure(workload, seed, lambda r, t: r >= rounds)
    traced, tracer = traced_pass(workload, seed, rounds)
    metrics = {}
    spans = tracer.summary()
    for name in REPORTED_SPANS:
        calls, total, own = spans[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (own, "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (tracer.counters[name], unit)
    solve = spans["solve.solve_particular"][1]
    cert = spans["checks.check_particular"][1]
    metrics["checks.cert_to_solve_ratio"] = (cert / solve if solve else 0.0, "ratio")
    plain_pps = plain.calls / plain.busy
    traced_pps = traced.calls / traced.busy
    metrics["trace.overhead_ratio"] = (traced_pps / plain_pps, "ratio")
    lines = [f"{name:<44} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"base: check_particular {cert:.4f} s over solve_particular {solve:.4f} s "
        f"({spans['solve.solve_particular'][0]} solves); traced {traced_pps:.4g} "
        f"over untraced {plain_pps:.4g} problems/s, {rounds} rounds each"
    )
    lines.append(f"outputs_sha256 {traced.digest.hexdigest()}  (round 0: {traced.digested} problems)")
    if traced.digest.digest() != plain.digest.digest():
        traced.failed += 1
        traced.reasons.append("traced outputs differ from untraced outputs")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, lines, attempted, failed, plain.reasons + traced.reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*ROUNDS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=STRESS_DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(ROUNDS) if args.workload == "all" else [args.workload]
    run = per_layer if args.trace else end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, lines, attempted, failed, reasons = run(name, args.seed, args.seconds)
        print(f"== {name}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
        print("\n".join(lines))
        for reason in reasons:
            print(f"FAILED {reason}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        result["attempted"] += attempted
        result["failed"] += failed
        result["metrics"].update(
            {prefix + key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
        )
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
