"""omega is an exact scale: the numerical core works in oscillator units.

In rho = sqrt(omega) r the eight generators do not depend on omega, so
every matrix-check residual is the same number at every omega; the
pointwise checks sample their points in rho and read their residuals in
oscillator units, so each of them is as strong at every omega as at
omega = 1 and none compares fields that underflowed; and no module but
``verify`` reads omega outside ``ModelParams`` and the physical
``energy``, ``susy_energy`` and ``eval_wavefunction``.
"""

import ast
from pathlib import Path

import pytest

from ttwsusy import verify
from ttwsusy.model import ModelParams
from ttwsusy.verify import DEFAULT_PARAM_SETS, SuiteConfig, run

from report_bodies import OMEGAS, omega_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ttwsusy"

# the checks read off the generator blocks: 32 structure relations, 5 Hermiticity pairings, casimir and the ladder
MATRIX_CHECKS = ("structure[", "hermiticity[", "casimir", "ladder-matrix-elements")


def test_matrix_residuals_do_not_depend_on_omega():
    omegas = (1.0, 4.0**-3, 4.0, 4.0**5, 1e6)
    sets = [{**ps, "omega": omega} for omega in omegas for ps in DEFAULT_PARAM_SETS]
    report = run(SuiteConfig(param_sets=sets, suites=("algebra", "irreps")))
    labels = [verify._params_label(ModelParams(**ps)) for ps in sets]
    readings = {label: {} for label in labels}
    for c in report.checks:
        if c.params is not None and c.name.startswith(MATRIX_CHECKS):
            readings[c.params][c.name] = c.residual
    assert all(len(r) == 39 for r in readings.values()), {label: len(r) for label, r in readings.items()}
    unit = len(DEFAULT_PARAM_SETS)
    for i, label in enumerate(labels[unit:], start=unit):
        # bit for bit the omega = 1 reading of the same (k, a, b)
        assert readings[label] == readings[labels[i % unit]], label


# checks whose exact 0.0 is no vacuous pass: riccati-control reports the
# shortfall of its perturbed identity's break from 1e-3, which is 0 while
# the control works, and spectrum-identities compares closed forms, no field
NOT_SAMPLED = {"riccati-control", "spectrum-identities"}

# the checks that fail at each omega
FAILING = {1e-8: [], 1e4: [], 1e8: []}


@pytest.fixture
def one_process(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)


def _readings(omega: float) -> dict:
    """{(check, its parameters but omega): record} of the omega run at this omega."""
    report = run(SuiteConfig.from_dict(omega_config(omega)))
    readings = {(c.name, c.params and c.params.rsplit(", omega=", 1)[0]): c for c in report.checks}
    assert len(readings) == 170 and all(c.error is None for c in report.checks), omega
    return readings


def test_pointwise_checks_read_as_at_omega_one(one_process):
    assert sorted(FAILING) == sorted(OMEGAS)
    unit = {key: c.residual for key, c in _readings(1.0).items()}
    for omega in OMEGAS:
        readings = _readings(omega)
        zeros = sorted({name for (name, _), c in readings.items() if c.residual == 0.0} - NOT_SAMPLED)
        assert zeros == [], (omega, zeros)
        assert sorted({name for (name, _), c in readings.items() if not c.passed}) == FAILING[omega], omega
        # every residual but the physical closed forms' is its omega = 1 reading, bit for bit
        moved = sorted({key[0] for key, c in readings.items() if c.residual != unit[key]})
        assert moved in ([], ["spectrum-identities"]), (omega, moved)


# where omega may be read outside verify: (module, the class or function around the read)
OMEGA_READERS = {("model", "ModelParams"), ("model", "energy"), ("model", "susy_energy"), ("model", "eval_wavefunction")}


def _omega_reads(tree: ast.Module):
    """(line, the outermost class or function around it) of every read of
    omega in a module: an ``.omega`` attribute, a name or parameter
    ``omega``, or the string "omega" (as getattr takes it)."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.ClassDef, ast.FunctionDef)) else None
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Attribute) and node.attr == "omega")
                or (isinstance(node, ast.Name) and node.id == "omega")
                or (isinstance(node, ast.arg) and node.arg == "omega")
                or (isinstance(node, ast.Constant) and node.value == "omega")
            ):
                yield node.lineno, scope


def test_only_verify_and_the_physical_outputs_read_omega():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} >= {"model", "generators", "special_cases", "states", "irreps", "verify"}
    readers = set()
    for path in modules:
        if path.stem == "verify":
            continue
        for line, scope in _omega_reads(ast.parse(path.read_text())):
            assert (path.stem, scope) in OMEGA_READERS, f"{path.name}:{line} reads omega in {scope}"
            readers.add((path.stem, scope))
    # the scan sees the reads that stay
    assert {("model", "ModelParams"), ("model", "energy"), ("model", "eval_wavefunction")} <= readers
