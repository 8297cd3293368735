"""Correctness gate applied to every timed and traced run.

A run passes when every check passed, every residual is finite, and no
check present at the benchmark's seed commit (``expected_checks.json``)
is missing.  A run that raised counts every expected check as failed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_checks.json"


def check_key(check):
    """Label of a report check, as the text report prints it."""
    return check["name"] + (f" [{check['params']}]" if check.get("params") else "")


def expected_checks(workload):
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


@dataclass
class GateResult:
    expected: int
    failed: list
    missing: list

    @property
    def ok(self):
        return not self.failed and not self.missing

    @property
    def bad(self):
        """Checks that count against the run: failed plus missing, at most all expected."""
        return min(len(self.failed) + len(self.missing), self.expected)


def gate(checks, expected, error=None):
    """Judge one run from its report checks (``CheckRecord.to_dict`` form)."""
    if error is not None:
        return GateResult(len(expected), [f"run raised {error}"] * len(expected), [])
    failed = [check_key(c) for c in checks if not c["passed"] or not math.isfinite(c["residual"])]
    present = {check_key(c) for c in checks}
    missing = [key for key in expected if key not in present]
    return GateResult(len(expected), failed, missing)
