"""Print the peak resident memory of pooled verification runs: the parent
process's and the largest worker's.

    python tests/peak_rss.py [--workload NAME] [--seed N] [--runs R] [--src DIR]

Each run is a fresh process that imports ``ttwsusy`` from DIR (default:
``src`` of this checkout), builds the config of a workload of
``perfbench/workloads.py``, runs it with its tasks pooled over two forked
workers (``verify._usable_cpus`` forced to 2) and renders the JSON report,
as ``perfbench/child.py`` does.  It then reads ``ru_maxrss`` of itself
(``RUSAGE_SELF``: the parent, which deals the tasks and merges their
records) and of its children (``RUSAGE_CHILDREN``: the largest worker,
since the peak of the children is that of the largest one waited for).
perfbench's ``peak_rss_mb`` reads the parent alone, after it has also
imported scipy; this script imports nothing the run does not, so its
parent reads a little lower.  One line per run, then the medians.  Not a
pytest module (pytest collects only test_*.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import importlib.util, json, resource, sys
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from ttwsusy import verify
verify._usable_cpus = lambda: 2
config = verify.SuiteConfig.from_dict(workloads.config_dict(sys.argv[2], sys.argv[3]))
report = verify.run(config)
report.to_json()
peak = {who: resource.getrusage(getattr(resource, who)).ru_maxrss / 1024.0 for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}
print(json.dumps({"parent_mb": peak["RUSAGE_SELF"], "worker_mb": peak["RUSAGE_CHILDREN"], "failed": report.n_failed}))
"""


def measure(src: Path, workload: str, seed: int) -> dict:
    """{parent_mb, worker_mb, failed} of one fresh pooled run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-c", CHILD, str(ROOT / "perfbench" / "workloads.py"), workload, str(seed)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="acceptance")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory ttwsusy is imported from")
    args = parser.parse_args(argv[1:])
    runs = []
    for i in range(args.runs):
        runs.append(measure(args.src, args.workload, args.seed))
        print(f"run {i + 1}: parent {runs[-1]['parent_mb']:.2f} MB, largest worker {runs[-1]['worker_mb']:.2f} MB, {runs[-1]['failed']} failed")
    parent, worker = (statistics.median(r[key] for r in runs) for key in ("parent_mb", "worker_mb"))
    print(f"{args.workload}: median parent {parent:.2f} MB, median largest worker {worker:.2f} MB over {args.runs} runs")
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
