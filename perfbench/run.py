"""Benchmark of the verification suite's time to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from any directory; the program under test is ``src/ttwsusy`` of the
checkout that holds this file.  Every sample is a fresh process
(``child.py``) that imports the package, builds the workload's config,
calls ``ttwsusy.verify.run`` and renders the JSON report, which is what
``ttwsusy verify`` does.  Every run is passed through the correctness
gate of ``gate.py``.

``--trace 0`` times the workload: a few set-up-only processes, then
back-to-back runs for ``--seconds`` seconds (at least one), and reports
the median of each end-to-end metric.  ``--trace 1`` makes one untraced
and one traced run (``tracer.py``) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it gives the run conditions and the samples.  ``--all`` runs both modes
on every workload of ``workloads.py``, including those that
``BENCHMARK.json`` leaves out, and prints each metric with its unit; it
exits with 1 when a run fails the gate.

Metric names, units and the default ``--seconds`` are read from
``BENCHMARK.json``; NOTES.md says what each one measures.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import expected_checks, gate
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "ttwsusy"
OUT = BENCH / "out"

# One invocation must end within 180 s; children get what is left of this.
BUDGET_S = 170.0
SETUP_PROBES = 5
SUITES = ("specfun", "model", "algebra", "irreps", "special-cases")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to the program failing its checks)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind):
    """Metric name -> unit for ``kind`` 'end_to_end' or 'per_layer'."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


class Runner:
    """Starts child processes against one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def left(self):
        return self.deadline - time.monotonic()

    def child(self, workload, seed, *extra):
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed), *extra]
        if self.left() <= 0:
            raise BenchError("time budget exhausted")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self.left()
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: child process exceeded the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload}: child process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        if Path(out["package"]).resolve().parent != PACKAGE.resolve():
            raise BenchError(f"child imported ttwsusy from {out['package']}, not from {PACKAGE}")
        out["setup_s"] = out["t_setup"] - t_spawn
        out["wall_s"] = time.monotonic() - t_spawn
        return out


def timed_runs(runner, workload, seed, seconds):
    """Back-to-back untraced runs until another one would end after ``seconds``."""
    runs = []
    start = time.monotonic()
    while True:
        runs.append(runner.child(workload, seed))
        elapsed = time.monotonic() - start
        last = runs[-1]["wall_s"]
        if elapsed + last > seconds or last > runner.left():
            return runs


def suite_seconds(checks):
    """Per-suite wall time as the sum of the suite's ``wall_ms``.

    Only the sum is meaningful: ``run`` materialises a suite before it
    times the records, so the first check absorbs the whole suite."""
    out = dict.fromkeys(SUITES, 0.0)
    for c in checks:
        out[c["suite"]] = out.get(c["suite"], 0.0) + c["wall_ms"] / 1e3
    return out


def report_metrics(checks):
    """Per-layer metrics of the ``verify`` layer read from a report."""
    # non-finite residuals already fail the gate; they would make the margin unprintable
    margins = [c["residual"] / c["tolerance"] for c in checks if c["tolerance"] > 0 and math.isfinite(c["residual"])]
    out = {f"verify.suite_s.{s}": v for s, v in suite_seconds(checks).items() if s in SUITES}
    out["verify.checks"] = len(checks)
    out["verify.suite_errors"] = sum(c["name"].endswith("-suite") and "error" in c for c in checks)
    out["verify.worst_margin"] = max(margins, default=0.0)
    return out


def conditions(runs, seconds):
    """What the result was measured under."""
    last = runs[-1]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cfg = last["config"] or {}
    return {
        "git_commit": commit,
        **last["versions"],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "truncation": cfg.get("truncation"),
        "quad_orders": cfg.get("quad_orders"),
        "seed": cfg.get("seed"),
        "run_seconds": seconds,
    }


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, detail record)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    expected = expected_checks(workload)
    runner = Runner()
    setups, traced = [], None
    if trace:
        OUT.mkdir(exist_ok=True)
        runs = [runner.child(workload, seed)]
        traced = runner.child(workload, seed, "--spans", str(OUT / f"{workload}.spans.jsonl.gz"))
    else:
        setups = [runner.child(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        runs = timed_runs(runner, workload, seed, seconds)

    judged = runs + ([traced] if traced else [])
    verdicts = [gate(r["checks"], expected, r["error"]) for r in judged]
    attempted = sum(v.expected for v in verdicts)
    failed = sum(v.bad for v in verdicts)

    if trace:
        untraced, layers = runs[0], traced["layers"]
        metrics = {
            **layers,
            **report_metrics(untraced["checks"]),
            "verify.cpu_s": untraced["cpu_s"],
            "trace.overhead_share": traced["verify_s"] / untraced["verify_s"] - 1.0,
            "trace.coverage": sum(v for k, v in layers.items() if k.endswith(".self_s")) / traced["verify_s"],
        }
    else:
        metrics = {
            "verify_s": statistics.median(r["verify_s"] for r in runs),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "passed_share": 1.0 - failed / attempted,
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": all(v.ok for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload,
        "trace": int(trace),
        "conditions": conditions(runs, seconds),
        "samples": {
            "verify_s": [r["verify_s"] for r in runs],
            "setup_s": setups + [r["setup_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "cpu_s": [r["cpu_s"] for r in runs],
            **({"traced_verify_s": traced["verify_s"], "spans": traced["spans"]} if traced else {}),
        },
        "gate": [{"failed": v.failed[:20], "missing": v.missing[:20]} for v in verdicts if not v.ok],
    }
    return result, detail


def _print_table(workload, result):
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if "passed_share" in result["metrics"]:
        rows.append(("failed_share", result["failed"] / result["attempted"], "share"))
    for name, value, unit in rows:
        print(f"{workload:<18} {name:<30} {value:>16.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced, print a table")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the program under test is missing: {PACKAGE}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    try:
        if not args.all:
            result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"{args.workload}.trace{args.trace}.seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"result": result, **detail}, fh, indent=1)
            print(json.dumps({k: detail[k] for k in ("conditions", "samples", "gate")}))
            print(json.dumps(result))
            return 0
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result, detail = measure(workload, args.seed, args.seconds, trace)
                _print_table(workload, result)
                if not result["correct"]:
                    ok = False
                    print(f"{workload}: correctness gate FAILED: {json.dumps(detail['gate'])}")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
