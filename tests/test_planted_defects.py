"""Every check can fail: a planted defect flips the checks that read it.

Each row of ``DEFECTS`` scales the value of one ``src`` function by
(1 + 1e-6) at the binding that the checks read when they run, runs one small
verification in this process and asserts that the row's checks fail.
The clean run of the same configuration passes every check, so each
flip is the defect's doing.
"""

import numpy as np
import pytest

from ttwsusy import fock, verify
from ttwsusy.verify import SuiteConfig, run

# three sets, k = 1, 2, 3, at truncation (4, 3) and 40 x 40 orders, every suite
CONFIG = {
    "param_sets": [{"k": k, "a": 1.2, "b": 0.8} for k in (1.0, 2.0, 3.0)],
    "truncation": [4, 3],
    "quad_orders": [40, 40],
}

# (the namespace the checks read the function from, the function's name,
# the checks the defect must flip); a module's own calls of its functions
# read the same namespace, so model.susy_energy reads a planted model.energy
# and generators.oscillator_realization a planted fock.jordan_wigner
DEFECTS = [
    (verify.model, "susy_energy", ("spectrum-identities",)),
    (verify.model, "energy", ("eigenvalue-residual", "spectrum-identities")),
    (verify.irreps, "overlap", ("one-fermion-overlap",)),
    (verify.irreps, "mixing_coeffs", ("casimir", "ladder-matrix-elements")),
    (verify.specfun, "laguerre", ("laguerre-recurrence",)),
    (verify.specfun, "jacobi", ("jacobi-recurrence",)),
    # the one-mode fermion matrix of the oscillator realization
    (fock, "jordan_wigner", ("oscillator-realization",)),
    (verify.gen, "superpotential", ("sw-superpotential", "bc2-superpotential")),
    # a tuple of arrays of one shape (Hs and Q) is scaled as one array
    (verify.special_cases, "sw_super", ("sw-pointwise",)),
    (verify.special_cases, "bc2_super", ("bc2-pointwise",)),
    (verify.special_cases, "cm_super", ("cmw-split",)),
]


@pytest.fixture
def one_process(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)


def _failed_checks() -> set[str]:
    """The names of the checks that fail, each of them on its residual:
    a check that raised would fail whatever its claim."""
    checks = run(SuiteConfig.from_dict(CONFIG)).checks
    assert [c.name for c in checks if c.error is not None] == []
    return {c.name for c in checks if not c.passed}


def test_clean_run_passes(one_process):
    assert _failed_checks() == set()


@pytest.mark.parametrize("namespace,name,flips", DEFECTS, ids=[f"{ns.__name__}.{name}" for ns, name, _ in DEFECTS])
def test_defect_flips_its_checks(one_process, monkeypatch, namespace, name, flips):
    exact = getattr(namespace, name)
    # a tuple of values (mixing_coeffs) is scaled entry by entry
    monkeypatch.setattr(namespace, name, lambda *args: np.multiply(exact(*args), 1.0 + 1e-6))
    failed = _failed_checks()
    assert set(flips) <= failed, failed
