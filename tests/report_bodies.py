"""Write the JSON report bodies of a fixed set of verification runs.

    PYTHONPATH=src python tests/report_bodies.py OUT.json

Each run is a perfbench workload at a fixed seed: acceptance at seeds 1
and 20260809, truncation-16x10 at seed 1 and pointwise at seed 7.  The
timings (every check's ``wall_ms`` and the report's ``matrices_ms``) are
dropped, so a change that keeps every residual gives a byte-identical
file: ``cmp`` the files written before and after it.  Not a pytest
module (pytest collects only test_*.py); the four runs take a few seconds.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ttwsusy.verify import SuiteConfig, run

RUNS = (("acceptance", 1), ("acceptance", 20260809), ("truncation-16x10", 1), ("pointwise", 7))


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_body(payload: dict) -> dict:
    """The run's JSON report without its timings."""
    body = json.loads(run(SuiteConfig.from_dict(payload)).to_json())
    del body["matrices_ms"]
    for check in body["checks"]:
        del check["wall_ms"]
    return body


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/report_bodies.py OUT.json", file=sys.stderr)
        return 2
    workloads = _workloads()
    bodies = {f"{name}@{seed}": report_body(workloads.config_dict(name, seed)) for name, seed in RUNS}
    Path(argv[0]).write_text(json.dumps(bodies, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
