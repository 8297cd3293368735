"""Acceptance suite: every headline claim at its stated tolerance.

Runs the full verification configuration (four parameter sets including
an irrational deformation, truncation (8, 6), 80 x 80 quadrature) once,
then asserts each criterion on the recorded residuals and prints one
pass/fail line per criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines on success.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from ttwsusy.verify import SuiteConfig, run

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def report():
    return run(SuiteConfig())


def select(report, prefix, suite=None):
    out = [c for c in report.checks if c.name.startswith(prefix) and (suite is None or c.suite == suite)]
    assert out, f"no checks matched {prefix!r}"
    return out


def finish(number, title, checks, expected_tol=None):
    if expected_tol is not None:
        tols = {c.tolerance for c in checks}
        assert tols == {expected_tol}, f"criterion {number} tolerance drifted: {tols}"
    worst = max(c.residual for c in checks)
    ok = all(c.passed for c in checks)
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {title}  (worst residual {worst:.3e})")
    assert ok, "\n".join(f"{c.name} [{c.params}] residual={c.residual:.3e} tol={c.tolerance:g}" for c in checks if not c.passed)


def test_criterion_01_structure_constants(report):
    checks = select(report, "structure[", suite="algebra")
    labels = {c.params for c in checks}
    assert len(labels) == 4 and any("1.41421" in l for l in labels), "irrational-k set missing"
    finish(1, "all (anti)commutation relations hold on the interior block", checks, expected_tol=1e-8)


def test_criterion_02_hermiticity(report):
    finish(2, "transpose relations between generator matrices", select(report, "hermiticity["), expected_tol=1e-9)


def test_criterion_03_spectrum(report):
    finish(3, "Hs reproduces 4 omega (N + nk) pointwise for N, n <= 6", select(report, "spectrum", suite="algebra"), expected_tol=1e-8)


def test_criterion_04_orthonormality(report):
    checks = select(report, "orthonormality", suite="model")
    # the (-1)^N phase convention is validated through the positive
    # ladder matrix elements of the same run
    checks += select(report, "ladder-matrix-elements", suite="irreps")
    finish(4, "eigenfunction Gram matrix is the identity (N, n <= 6)", checks)


def test_criterion_05_ladder_formulas(report):
    checks = select(report, "ladder-matrix-elements") + select(report, "odd-action-fields")
    finish(5, "measured ladder matrix elements and odd-generator actions match closed forms", checks)


def test_criterion_06_overlap(report):
    finish(
        6,
        "one-fermion overlap closed form; family coincidence and two-fermion vanishing at n = 0",
        select(report, "one-fermion-overlap"),
        expected_tol=1e-9,
    )


def test_criterion_07_casimirs(report):
    finish(7, "Casimir operators scalar per sector with the closed-form eigenvalues", select(report, "casimir"), expected_tol=1e-7)


def test_criterion_08_unbroken_susy(report):
    checks = select(report, "susy-ground") + select(report, "susy-anticommutator")
    assert {c.tolerance for c in select(report, "susy-ground")} == {1e-10}
    assert {c.tolerance for c in select(report, "susy-anticommutator")} == {1e-8}
    finish(8, "supercharges annihilate the ground state; {Q, Qdag} = Hs", checks)


def test_criterion_09_riccati(report):
    checks = select(report, "riccati", suite="algebra")
    assert {c.tolerance for c in checks if c.name == "riccati"} == {1e-10}
    finish(9, "angular Riccati identity holds; perturbed control exceeds 1e-3", checks)


def test_criterion_10_special_cases(report):
    checks = (
        select(report, "sw-")
        + select(report, "bc2-")
        + select(report, "cmw-")
    )
    finish(10, "k = 1, 2, 3 cartesian constructions match the polar realization pointwise", checks, expected_tol=1e-9)


def test_criterion_11_oscillator_realization(report):
    finish(11, "boson-fermion matrix realization satisfies the full superalgebra", select(report, "oscillator-realization"), expected_tol=1e-12)


def test_records_are_in_the_expected_order(report):
    # the check keys as the benchmark's gate writes them, against its list of the seed's checks
    spec = importlib.util.spec_from_file_location("gate", Path(__file__).resolve().parents[1] / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert [gate.check_key(c.to_dict()) for c in report.checks] == gate.expected_checks("acceptance")


def test_no_unexpected_failures(report):
    failed = [c for c in report.checks if not c.passed]
    assert not failed, "\n".join(f"{c.name} [{c.params}]" for c in failed)
