"""Tests of the benchmark's correctness gate and tracer bookkeeping.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import time

import pytest

from gate import check_key, gate
from tracer import Tracer

ttwsusy_verify = pytest.importorskip("ttwsusy.verify")

SMALL = {
    "param_sets": [{"k": 2.0, "a": 1.5, "b": 2.5, "omega": 1.0}],
    "truncation": [2, 2],
    "quad_orders": [24, 24],
    "suites": ["algebra"],
}


def _checks(**overrides):
    config = ttwsusy_verify.SuiteConfig.from_dict({**SMALL, **overrides})
    return [c.to_dict() for c in ttwsusy_verify.run(config).checks]


@pytest.fixture(scope="module")
def passing():
    return _checks()


def test_passing_run_passes(passing):
    verdict = gate(passing, [check_key(c) for c in passing])
    assert verdict.ok and verdict.bad == 0


def test_gate_catches_failing_run(passing):
    failing = _checks(tolerances={"algebra.structure": 0.0})
    verdict = gate(failing, [check_key(c) for c in passing])
    assert not verdict.ok
    assert not verdict.missing
    assert verdict.failed and all(key.startswith("structure[") for key in verdict.failed)


def test_gate_catches_missing_check(passing):
    expected = [check_key(c) for c in passing]
    verdict = gate(passing[1:], expected)
    assert not verdict.ok
    assert verdict.missing == expected[:1] and not verdict.failed
    assert verdict.bad == 1


def test_gate_catches_nonfinite_residual(passing):
    broken = [dict(passing[0], residual=math.nan, passed=True), *passing[1:]]
    verdict = gate(broken, [check_key(c) for c in passing])
    assert verdict.failed == [check_key(passing[0])]


def test_raising_run_fails_every_expected_check(passing):
    expected = [check_key(c) for c in passing]
    verdict = gate([], expected, error="RuntimeError: boom")
    assert verdict.bad == len(expected) and not verdict.ok


def test_self_time_excludes_child_spans():
    tracer = Tracer("test")

    def inner():
        time.sleep(0.02)

    traced_inner = tracer._wrap(inner, "states.inner", "states")

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer._wrap(outer, "generators.outer", "generators")()
    layers = tracer.layer_self_s()
    inner_total = tracer.total_s[tracer.names.index("states.inner")]
    outer_total = tracer.total_s[tracer.names.index("generators.outer")]
    assert tracer.span_count() == 3 and tracer.calls == [2, 1]
    assert layers["states"] == pytest.approx(inner_total) and inner_total >= 0.04
    assert layers["generators"] == pytest.approx(outer_total - inner_total)
    assert layers["generators"] >= 0.01
