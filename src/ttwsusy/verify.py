"""Verification-suite orchestration, configuration and reporting.

``run`` executes the selected check suites over a list of parameter
sets, records one residual per check, and never aborts on a failed
check.  The report lists the suites in dependency order (specfun ->
model -> algebra -> irreps -> special-cases), each suite's checks in
parameter-set order.  Reports are deterministic for a fixed config and
seed (wall-clock fields aside) and can be rendered as JSON or a text
table.  The seeded sample points (``scaling-conditions`` and
special-cases) come from the package's own ``_rng.UniformStream``, which
draws exactly what ``numpy.random.default_rng(seed).uniform`` draws; so
the points are fixed by the seed alone, and no run loads
``numpy.random``.

The parameter sets share nothing but the order of the report, and
every generator preserves the angular sector n.  So the model, algebra
and irreps checks of each set are computed as tasks (``_tasks``): one
per angular sector, which builds that sector's eight generator blocks
(``generators.sector_matrices``), reduces them to its part of each
selected check that reads them, and drops them; and one per remaining
check, where ``eigenvalue-residual`` and ``spectrum`` share one task and
its state bundles.  A task reads a ``_Workspace``: the set's parameters,
config and label, from which it builds its grids and factor tables at
the configured orders.  With several tasks and usable CPUs they run in
forked worker processes, which take them one at a time from a queue,
while this process runs specfun, the parameter-free
oscillator-realization check and special-cases (whose sets draw their
points from one random generator in sequence).  With one usable CPU or
no ``os.fork`` they run here, one after the other.  Each set's suites
then yield their records from the task results, so the records are the
same either way.  A suite that raises in one set ends that set's part
with a failed ``<suite>-suite`` record and keeps every other record
(see ``run``).

Command line:

    ttwsusy verify [--config PATH] [--suite NAME]...
                   [--param k=..,a=..,b=..,omega=..]... [--nmax N]
                   [--out PATH] [--format json|text] [--seed INT]

The TTWSUSY_CONFIG environment variable supplies a default config path.
Exit status is 0 when every executed check passed, otherwise the
number of failures (capped at 120).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import math
import numbers
import os
import pickle
import sys
import time
import traceback
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from . import generators as gen
from . import irreps, model, special_cases, specfun
from ._rng import UniformStream
from .model import Grid, ModelParams
from .states import FactorTable

__all__ = ["SuiteConfig", "CheckRecord", "VerificationReport", "run", "main"]

SUITES = ("specfun", "model", "algebra", "irreps", "special-cases")
# the suites whose checks of one parameter set form one job
PER_SET_SUITES = ("model", "algebra", "irreps")

DEFAULT_PARAM_SETS = (
    {"k": 1.0, "a": 1.0, "b": 1.0, "omega": 1.0},
    {"k": 2.0, "a": 1.5, "b": 2.5, "omega": 1.0},
    {"k": 3.0, "a": 2.0, "b": 2.0, "omega": 1.0},
    {"k": math.sqrt(2.0), "a": 1.2, "b": 0.8, "omega": 1.0},
)

DEFAULT_TOLERANCES = {
    "specfun.recurrence": 1e-10,
    "specfun.derivative": 1e-6,
    "specfun.quadrature": 1e-12,
    "model.orthonormality": 1e-9,
    "model.eigenvalue": 1e-8,
    "model.identity": 1e-12,
    "algebra.riccati": 1e-10,
    "algebra.riccati-control": 0.0,
    "algebra.structure": 1e-8,
    "algebra.hermiticity": 1e-9,
    "algebra.spectrum": 1e-8,
    "algebra.routes": 1e-10,
    "algebra.susy-ground": 1e-10,
    "algebra.susy-anticommutator": 1e-8,
    "algebra.conditions": 1e-9,
    "algebra.oscillator": 1e-12,
    "irreps.ladder": 1e-8,
    "irreps.odd-action": 1e-9,
    "irreps.overlap": 1e-9,
    "irreps.casimir": 1e-7,
    "irreps.block-diagonal": 1e-9,
    "special.pointwise": 1e-9,
}


def _is_real(value) -> bool:
    """A real number that is not a bool (JSON true/false are not numbers here)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int_pair(key: str, value, low: int) -> None:
    if not isinstance(value, (tuple, list)) or len(value) != 2 or not all(
        isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= low for m in value
    ):
        raise ValueError(f"{key} must be two integers >= {low}, got {value!r}")


def _check_object(data) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"a config must be a JSON object of config keys, got {data!r}")


def _check_param_set(ps) -> None:
    """A parameter set is a mapping of k, a, b and optionally omega to
    values that ``ModelParams`` accepts."""
    if not isinstance(ps, dict):
        raise ValueError(f"a parameter set must be a mapping of k, a, b, omega, got {ps!r}")
    problems = [f"unknown key {key!r}" for key in sorted(set(ps) - {"k", "a", "b", "omega"}, key=str)]
    problems += [f"missing key {key!r}" for key in sorted({"k", "a", "b"} - set(ps))]
    if problems:
        raise ValueError(f"parameter set {ps!r}: " + ", ".join(problems))
    try:
        ModelParams(**ps)
    except ValueError as exc:
        raise ValueError(f"parameter set {ps!r}: {exc}") from None


@dataclass
class SuiteConfig:
    param_sets: tuple = DEFAULT_PARAM_SETS
    truncation: tuple[int, int] = (8, 6)
    quad_orders: tuple[int, int] = (80, 80)
    tolerances: dict = field(default_factory=dict)
    suites: tuple[str, ...] = ("all",)
    seed: int = 20260809

    def __post_init__(self):
        if not isinstance(self.param_sets, (tuple, list)) or not self.param_sets:
            raise ValueError(f"param_sets must be a nonempty list of parameter sets, got {self.param_sets!r}")
        labels: dict[str, dict] = {}
        for ps in self.param_sets:
            _check_param_set(ps)
            # records and matrices_ms are keyed by the label, so two sets must not share one
            label = _params_label(ModelParams(**ps))
            if label in labels:
                raise ValueError(f"parameter sets {labels[label]!r} and {ps!r} share the report label {label!r}")
            labels[label] = ps
        self.param_sets = tuple(dict(ps) for ps in self.param_sets)
        _check_int_pair("truncation", self.truncation, 2)
        _check_int_pair("quad_orders", self.quad_orders, 1)
        self.truncation, self.quad_orders = tuple(self.truncation), tuple(self.quad_orders)
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(f"tolerances must be a mapping of tolerance keys to numbers, got {self.tolerances!r}")
        self.tolerances = dict(self.tolerances)
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance key {name!r}")
            if not (_is_real(tol) and math.isfinite(tol) and tol >= 0):
                raise ValueError(f"tolerance {name!r} must be a finite nonnegative real number, got {tol!r}")
        if not isinstance(self.suites, (tuple, list)) or not all(isinstance(s, str) for s in self.suites):
            raise ValueError(f"suites must be a list of suite names, got {self.suites!r}")
        self.suites = tuple(self.suites)
        bad = set(self.suites) - set(SUITES) - {"all"}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        self.seed = int(self.seed)

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def selected(self) -> tuple[str, ...]:
        return SUITES if "all" in self.suites else tuple(s for s in SUITES if s in self.suites)

    def models(self) -> list[ModelParams]:
        return [ModelParams(**ps) for ps in self.param_sets]

    def to_dict(self) -> dict:
        return {
            "param_sets": [dict(ps) for ps in self.param_sets],
            "truncation": list(self.truncation),
            "quad_orders": list(self.quad_orders),
            "tolerances": {k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
            "suites": list(self.selected()),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        _check_object(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("unknown config key " + ", ".join(map(repr, unknown)))
        return cls(**data)


@dataclass
class CheckRecord:
    name: str
    suite: str
    claim: str
    params: str | None
    residual: float
    tolerance: float
    passed: bool
    wall_ms: float
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "suite": self.suite,
            "claim": self.claim,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    config: SuiteConfig
    checks: list[CheckRecord]
    # per parameter set, the summed wall time of its sector tasks' generator-block builds, which no check is charged for
    matrices_ms: dict[str, float] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def summary(self) -> dict:
        by_suite: dict[str, dict] = {}
        for c in self.checks:
            d = by_suite.setdefault(c.suite, {"total": 0, "passed": 0})
            d["total"] += 1
            d["passed"] += int(c.passed)
        return {
            "total": len(self.checks),
            "passed": len(self.checks) - self.n_failed,
            "failed": self.n_failed,
            "by_suite": by_suite,
        }

    def to_json(self) -> str:
        """Standard JSON: a non-finite residual is written as null with
        ``"status": "non-finite"``; every other check has status
        ``"passed"`` or ``"failed"``."""
        checks = []
        for c in self.checks:
            d = c.to_dict()
            if math.isfinite(c.residual):
                d["status"] = "passed" if c.passed else "failed"
            else:
                d["residual"] = None
                d["status"] = "non-finite"
            checks.append(d)
        doc = {
            "schema": "ttwsusy-verification-report/2",
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "checks": checks,
            "matrices_ms": {label: round(ms, 3) for label, ms in self.matrices_ms.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    def to_text(self) -> str:
        lines = []
        width = max((len(c.name) + len(c.params or "") for c in self.checks), default=20) + 3
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            label = c.name + (f" [{c.params}]" if c.params else "")
            lines.append(f"{tag}  {label:<{width}} residual={c.residual:<12.3e} tol={c.tolerance:.1e}")
            if c.error:
                lines.append(f"      error: {c.error}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed" + (f", {s['failed']} FAILED" if s["failed"] else ""))
        return "\n".join(lines)


def _params_label(p: ModelParams) -> str:
    return f"k={p.k:g}, a={p.a:g}, b={p.b:g}, omega={p.omega:g}"


def _worst(values) -> float:
    """Largest of the values, NaN if any of them is NaN (Python's max
    drops a NaN that does not come first)."""
    return float(np.max(values))


def _deviation(f, g, scale) -> float:
    """max |f - g| / max(max |scale|, 1): relative, or absolute for small fields."""
    return np.max(np.abs(f - g)) / max(np.max(np.abs(scale)), 1.0)


def _worst_per_name(results) -> dict[str, float]:
    """Each name's ``_worst`` over a sequence of {name: residual} dicts,
    one per sector."""
    per_name: dict[str, list] = {}
    for result in results:
        for name, res in result.items():
            per_name.setdefault(name, []).append(res)
    return {name: _worst(res) for name, res in per_name.items()}


class _TaskError(Exception):
    """A check's computation raised; its one argument is the last line of
    the traceback, which names the exception and its message."""


class _Workspace:
    """What one parameter set's checks read: its ``params``, the
    ``config`` and the report ``label``; the tasks build its quadrature
    grids and factor tables at the configured orders.  In the process
    that writes the records, it also holds the ``results`` of the set's
    tasks and the time they ``charge`` each check."""

    def __init__(self, params: ModelParams, config: SuiteConfig):
        self.params = params
        self.config = config
        self.label = _params_label(params)
        self.results: dict = {}
        self.charges: dict[str, float] = {}
        self.charged_ms = 0.0

    def grid(self, n1: int, n2: int | None = None, odd: bool = False) -> Grid:
        """``Grid.for_pair(n1, n2)`` (n2 defaults to n1), built afresh."""
        m_rad, m_ang = self.config.quad_orders
        return Grid.for_pair(self.params, n1, n1 if n2 is None else n2, m_rad, m_ang, odd=odd)

    def table(self, n: int, odd: bool = False) -> FactorTable:
        """A fresh ``FactorTable`` on ``grid(n, odd=odd)``."""
        grid = self.grid(n, odd=odd)
        return FactorTable(self.params, grid.r, grid.phi)

    def result(self, check: str):
        """The residual of a task-computed check, which raises the
        ``_TaskError`` of a computation that raised; the first read adds
        the check's task time to ``charged_ms``."""
        self.charged_ms += self.charges.pop(check, 0.0)
        value = self.results[check]
        if isinstance(value, _TaskError):
            raise value
        return value


# ---------------------------------------------------------------------------
# Individual checks.  Each yields (name, claim, params_label, residual, tol_key).


def _series_laguerre(N, alpha, z):
    """Series-sum oracle with exact rational coefficients (and exact
    rational argument), immune to the cancellation that a float series
    suffers at large z.  With alpha = p/q the coefficients of
    sum_j c_j z^j are integers over D = N! q^N:
    D c_j = (-1)^j C(N, j) q^j prod_{i=j+1..N} (p + i q).  Each sample
    z = m/d (d a power of two) is summed exactly in integers by Horner's
    rule as sum_j D c_j m^j d^(N-j) and rounded once by the correctly
    rounded integer division by D d^N."""
    p, q = float(alpha).as_integer_ratio()
    nums = [(-1) ** j * math.comb(N, j) * q**j * math.prod(p + i * q for i in range(j + 1, N + 1)) for j in range(N + 1)]
    den = math.factorial(N) * q**N
    out = []
    for zv in np.atleast_1d(z):
        m, d = float(zv).as_integer_ratio()
        acc, d_pow = nums[N], 1
        for c in reversed(nums[:N]):
            d_pow *= d
            acc = acc * m + c * d_pow
        out.append(acc / (den * d_pow))
    return np.array(out)


def _series_jacobi(n, alpha, beta, x):
    """Exact series oracle sum_j c_j ((x-1)/2)^j ((x+1)/2)^(n-j), summed
    like ``_series_laguerre``.  With alpha = p/q and beta = s/t the
    coefficients are integers over D = n! q^n t^n:
    D c_j = C(n, j) q^j t^(n-j) prod_{i=j+1..n} (p + i q)
    prod_{i=n-j+1..n} (s + i t).  With x = m/d the two factors are
    (m -+ d) / (2d), so the sum is an integer over D (2d)^n."""
    p, q = float(alpha).as_integer_ratio()
    s, t = float(beta).as_integer_ratio()
    nums = [
        math.comb(n, j)
        * q**j
        * t ** (n - j)
        * math.prod(p + i * q for i in range(j + 1, n + 1))
        * math.prod(s + i * t for i in range(n - j + 1, n + 1))
        for j in range(n + 1)
    ]
    den = math.factorial(n) * q**n * t**n
    out = []
    for xv in np.atleast_1d(x):
        m, d = float(xv).as_integer_ratio()
        lo, hi = [1], [1]
        for _ in range(n):
            lo.append(lo[-1] * (m - d))
            hi.append(hi[-1] * (m + d))
        acc = sum(c * lo[j] * hi[n - j] for j, c in enumerate(nums))
        out.append(acc / (den * (2 * d) ** n))
    return np.array(out)


def _checks_specfun():
    zgrid = np.linspace(0.05, 30.0, 41)
    xgrid = np.linspace(-0.999, 0.999, 41)
    res = []
    for N in range(13):
        for alpha in (-0.4, 0.0, 0.7, 2.5, 10.0):
            ref = _series_laguerre(N, alpha, zgrid)
            val = specfun.laguerre(N, alpha, zgrid)
            res.append(np.max(np.abs(val - ref) / np.maximum(np.abs(ref), 1.0)))
    yield ("laguerre-recurrence", "three-term recurrence equals the explicit series sum", None, _worst(res), "specfun.recurrence")

    res = []
    for n in range(13):
        for alpha, beta in ((-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0)):
            ref = _series_jacobi(n, alpha, beta, xgrid)
            val = specfun.jacobi(n, alpha, beta, xgrid)
            res.append(np.max(np.abs(val - ref) / np.maximum(np.abs(ref), 1.0)))
    yield ("jacobi-recurrence", "three-term recurrence equals the explicit series sum", None, _worst(res), "specfun.recurrence")

    h = 1e-6
    res = []
    for N in (1, 2, 5, 9):
        for alpha in (0.0, 1.0, 3.5):
            z = np.linspace(0.5, 12.0, 9)
            fd = (specfun.laguerre(N, alpha, z + h) - specfun.laguerre(N, alpha, z - h)) / (2 * h)
            res.append(np.max(np.abs(specfun.laguerre_deriv(N, alpha, z) - fd)))
    for n in (1, 2, 5, 9):
        for ab in ((0.5, 0.5), (1.5, 2.5)):
            x = np.linspace(-0.9, 0.9, 9)
            fd = (specfun.jacobi(n, *ab, x + h) - specfun.jacobi(n, *ab, x - h)) / (2 * h)
            res.append(np.max(np.abs(specfun.jacobi_deriv(n, *ab, x) - fd)))
    yield (
        "derivative-identities",
        "dL_N/dz = -L_{N-1}^(alpha+1); dP_n/dx = (n+alpha+beta+1)/2 P_{n-1}^(alpha+1,beta+1)",
        None,
        _worst(res),
        "specfun.derivative",
    )

    res = []
    for alpha in (0.0, 2.5, 14.2):
        rule = specfun.gauss_rule("gauss-laguerre", 12, alpha=alpha)
        for j in range(0, 24, 3):
            approx = float(np.sum(rule.weights * rule.nodes**j))
            exact = math.exp(specfun.log_gamma(alpha + j + 1.0))
            res.append(abs(approx / exact - 1.0))
    for alpha, beta in ((0.0, 0.0), (0.7, 1.9)):
        rule = specfun.gauss_rule("gauss-jacobi", 10, alpha=alpha, beta=beta)
        for i in range(0, 10, 3):
            for j in range(0, 9, 3):
                approx = float(np.sum(rule.weights * (1 - rule.nodes) ** i * (1 + rule.nodes) ** j))
                exact = math.exp(
                    (alpha + beta + i + j + 1) * math.log(2.0)
                    + specfun.log_gamma(alpha + i + 1.0)
                    + specfun.log_gamma(beta + j + 1.0)
                    - specfun.log_gamma(alpha + beta + i + j + 2.0)
                )
                res.append(abs(approx / exact - 1.0))
    yield (
        "gauss-moments",
        "m-point rules integrate degree <= 2m-1 monomials against their weight (moments via log-gamma)",
        None,
        _worst(res),
        "specfun.quadrature",
    )


def _checks_model(ws: _Workspace):
    """Orthonormality is an integral, taken as products of 1-D radial and
    angular Gauss sums (``generators.wavefunction_gram``); the eigenvalue
    residual is a field identity, checked pointwise on the sector grids."""
    p, label = ws.params, ws.label
    yield ("orthonormality", "Gram matrix of the normalized eigenfunctions is the identity", label, ws.result("orthonormality"), "model.orthonormality")
    yield (
        "eigenvalue-residual",
        "H_k Psi_{N,n} = 2 omega [2N + (2n+a+b)k + 1] Psi_{N,n}",
        label,
        ws.result("eigenvalue-residual"),
        "model.eigenvalue",
    )

    res = []
    for n in range(9):
        w = model.weights_of(p, n)
        res.append(abs(w.tau + w.q - n * p.k))
        for N in range(9):
            res.append(abs(model.susy_energy(p, N, n) - (model.energy(p, N, n) - model.energy(p, 0, 0))))
            res.append(abs(model.susy_energy(p, N, n) - 4.0 * p.omega * (N + n * p.k)) / (1.0 + 4 * p.omega * (N + n * p.k)))
    yield (
        "spectrum-identities",
        "E_{N,n} - E_{0,0} = 4 omega (N + nk); tau + q = nk (zero exactly at n = 0)",
        label,
        _worst(res),
        "model.identity",
    )


def _checks_algebra(ws: _Workspace):
    p, label = ws.params, ws.label
    phi = np.linspace(p.phi_max / 51.0, p.phi_max * 50.0 / 51.0, 50)
    yield (
        "riccati",
        "-F'' + F'^2 + C^2 = k^2 [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)] for "
        "F = -a ln cos(k phi) - b ln sin(k phi), C = -k(a+b)",
        label,
        float(np.max(gen.riccati_residual(p, phi))),
        "algebra.riccati",
    )
    measured = float(np.max(gen.riccati_residual(p, phi, perturb_a=0.01)))
    shortfall = float(np.maximum(0.0, 1e-3 - measured))
    yield (
        "riccati-control",
        "perturbing a -> a+0.01 inside F must break the identity by more than 1e-3 (shortfall reported)",
        label,
        shortfall,
        "algebra.riccati-control",
    )

    # each group is computed as a whole, so it is yielded as one list
    structure = ws.result("structure")
    yield [(f"structure[{name}]", name, label, res, "algebra.structure") for name, res in structure.items()]
    hermiticity = ws.result("hermiticity")
    yield [(f"hermiticity[{name}]", name, label, res, "algebra.hermiticity") for name, res in hermiticity.items()]
    yield ("spectrum", "Hs Psi_{N,n}|0> = 4 omega (N + nk) Psi_{N,n}|0>", label, ws.result("spectrum"), "algebra.spectrum")
    yield (
        "hs-routes",
        "H_k + 4 omega (Gamma + Y) equals 4 omega (K0 + Y) built from the superpotential",
        label,
        ws.result("hs-routes"),
        "algebra.routes",
    )
    yield (
        "susy-ground",
        "Q and Qdag annihilate the ground state (unbroken supersymmetry)",
        label,
        ws.result("susy-ground"),
        "algebra.susy-ground",
    )

    # {Q, Qdag} = Hs is 4 omega times the structure relation {V-, W+} = K0 + Y
    anti = structure["{V-,W+} = +1 K0 +1 Y"]
    yield ("susy-anticommutator", "{Q, Qdag} = Hs with Q = 2 sqrt(omega) W+, Qdag = 2 sqrt(omega) V-", label, 4.0 * p.omega * anti, "algebra.susy-anticommutator")
    yield (
        "scaling-conditions",
        "D and Gamma are homogeneous of degree -2 in r (integrated form of [r d_r, O] = -2 O)",
        label,
        ws.result("scaling-conditions"),
        "algebra.conditions",
    )


def _checks_oscillator():
    """The algebra suite's parameter-free check, reported after its
    per-set checks."""
    osc = gen.oscillator_realization(nu=1, cutoff=12)
    # the structure relations include {V-, W+} = K0 + Y, i.e. {Q, Qdag} = Hs
    res = [c.residual for c in gen.check_structure_constants(osc.mats, osc.interior)]
    res.append(np.max(np.abs(np.diag(osc.mats["K0"])[osc.interior] - 0.5 * (osc.boson_numbers[osc.interior, 0] + 0.5))))
    yield (
        "oscillator-realization",
        "boson-fermion matrix realization satisfies every superalgebra relation; K0 = (adag a + 1/2)/2; {Q,Qdag} = Hs",
        None,
        _worst(res),
        "algebra.oscillator",
    )


def _checks_irreps(ws: _Workspace):
    """Ladder and Casimir checks read the generator blocks.  The integrals
    (the <+|-> overlaps and the cross-sector elements of block-diagonality)
    are projected from 1-D Gauss sums with ``generators.project``; the
    odd actions, the n = 0 family coincidence and the vanishing two-fermion
    states are field identities, checked pointwise on the grids."""
    label = ws.label
    yield (
        "ladder-matrix-elements",
        "K+ rungs equal sqrt((N+1)(2 tau + N)) with positive sign in every tower",
        label,
        ws.result("ladder-matrix-elements"),
        "irreps.ladder",
    )
    yield (
        "odd-action-fields",
        "V+- on zero-fermion states reproduce their closed-form expansions; W+- annihilate them",
        label,
        ws.result("odd-action-fields"),
        "irreps.odd-action",
    )
    yield (
        "one-fermion-overlap",
        "<+|-> = sqrt(N[N+(2n+a+b)k] / ([N+(n+a+b)k][N+nk])); at n = 0 the one-fermion "
        "families coincide and the two-fermion states vanish",
        label,
        ws.result("one-fermion-overlap"),
        "irreps.overlap",
    )
    yield (
        "casimir",
        "C2 and C3 are scalar n(n+a+b)k^2 and -(a+b)n(n+a+b)k^3/2 per sector (zero at n = 0); C2 commutes with all generators",
        label,
        ws.result("casimir"),
        "irreps.casimir",
    )
    yield (
        "block-diagonality",
        "generators do not couple different angular sectors (projected cross-sector matrix elements vanish)",
        label,
        ws.result("block-diagonality"),
        "irreps.block-diagonal",
    )


# ---------------------------------------------------------------------------
# The per-set tasks.  A check task returns its residual (or, when it
# computes several checks, {check: residual}); a sector part returns one
# sector's share of a residual, and the sectors' shares combine into it.


def _orthonormality(ws: _Workspace) -> float:
    gram = gen.wavefunction_gram(ws.params, (6, 6), *ws.config.quad_orders)
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


# operator and residual (of p, N, n, field, image) of the pointwise eigen-checks of Psi_{N,n}|0>
_EIGEN_CHECKS = {
    "eigenvalue-residual": ("H", lambda p, N, n, fv, hv: np.max(np.abs(hv - model.energy(p, N, n) * fv)) / np.max(np.abs(fv))),
    "spectrum": ("Hs", lambda p, N, n, fv, hv: _deviation(hv, 4.0 * p.omega * (N + n * p.k) * fv, fv)),
}


def _eigen_images(ws: _Workspace) -> dict[str, float]:
    """{check: residual} of ``eigenvalue-residual`` (H) and ``spectrum``
    (Hs), those of the selected suites, from one bundle of each
    Psi_{N,n}|0> for N, n in 0..6 on sector n's grid, whose table expands
    all seven states in one call; each bundle is handed both operators."""
    p, selected = ws.params, ws.config.selected()
    checks = [c for c, suite in _CHECK_TASKS["eigen-images"][1].items() if suite in selected]
    res: dict[str, list] = {c: [] for c in checks}
    for n in range(7):
        table = ws.table(n)
        for N, bundle in enumerate(table.bundles([irreps.zero_fermion_state(p, N, n) for N in range(7)])):
            images = gen.apply_operators([_EIGEN_CHECKS[c][0] for c in checks], bundle, table)
            for c, image in zip(checks, images):
                res[c].append(_EIGEN_CHECKS[c][1](p, N, n, bundle.val, image))
    return {c: _worst(r) for c, r in res.items()}


def _hs_routes(ws: _Workspace) -> float:
    """Deviations of the operator-table Hs from ``hamiltonian_super`` on two
    sector-1 states, both expanded in one call."""
    p, table = ws.params, ws.table(1)
    res = []
    for bundle in table.bundles([irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("+", p, 0, 1)]):
        (h1,) = gen.apply_operators(("Hs",), bundle, table)
        h2 = gen.hamiltonian_super(bundle, p, table.r, table.phi)
        res.append(_deviation(h1, h2, h1))
    return _worst(res)


def _susy_ground(ws: _Workspace) -> float:
    """max |Q psi_0| and max |Qdag psi_0| on the sector-0 grid."""
    table = ws.table(0)
    (bundle,) = table.bundles([irreps.zero_fermion_state(ws.params, 0, 0)])
    return _worst([np.max(np.abs(f)) for f in gen.apply_operators(("Q", "Qdag"), bundle, table)])


def _scaling_conditions(ws: _Workspace) -> float:
    p = ws.params
    rng = UniformStream(ws.config.seed)
    r = rng.uniform(0.5, 2.0, 40)
    phi_s = rng.uniform(0.1, 0.9, 40) * p.phi_max
    res = []
    for st in (irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("-", p, 1, 1)):
        d = gen.dilation_identity_residuals(st, p, r, phi_s)
        res += [d["D"], d["Gamma"]]
    return _worst(res)


def _odd_action_fields(ws: _Workspace) -> float:
    """Deviations of V+- images of zero-fermion states from their
    closed-form expansions, and max |W+- psi|, in sectors 0, 1 and 2.
    Each table expands its states in one call: the odd grid's the
    zero-fermion states and, in another, their closed-form images."""
    p = ws.params
    res = []
    for n in (0, 1, 2):
        table, table_e = ws.table(n, odd=True), ws.table(n)
        states = [irreps.zero_fermion_state(p, N, n) for N in (0, 1, 3)]
        refs = table.fields([irreps.v_action(sign, p, N, n) for N in (0, 1, 3) for sign in ("+", "-")])
        for bundle in table.bundles(states):
            res += [_deviation(out, ref, ref) for out, ref in zip(gen.apply_operators(("V+", "V-"), bundle, table), refs)]
        for bundle in table_e.bundles(states):
            res += [np.max(np.abs(wout)) for wout in gen.apply_operators(("W+", "W-"), bundle, table_e)]
    return _worst(res)


def _one_fermion_overlap(ws: _Workspace) -> float:
    """Projected <+|-> overlaps against ``irreps.overlap``; at n = 0 the
    pointwise coincidence of the one-fermion families and the vanishing
    of the two-fermion states, each family of fields from one call."""
    p = ws.params
    res = []
    for n in range(1, min(4, ws.config.truncation[1]) + 1):
        plus = [irreps.one_fermion_state("+", p, N - 1, n) for N in range(1, 6)]
        minus = [irreps.one_fermion_state("-", p, N, n) for N in range(1, 6)]
        measured = np.diag(gen.project(("1",), plus, minus, ws.grid(n, odd=True))["1"])
        res += [abs(m - irreps.overlap(p, N, n)) for N, m in enumerate(measured, start=1)]
    pairs = [(irreps.one_fermion_state("+", p, N - 1, 0), irreps.one_fermion_state("-", p, N, 0)) for N in range(1, 5)]
    fields = ws.table(0, odd=True).fields([st for pair in pairs for st in pair])
    # one iterator zipped with itself: consecutive (+, -) fields
    res += [np.max(np.abs(plus - minus)) for plus, minus in zip(fields, fields)]
    res += [np.max(np.abs(two)) for two in ws.table(0).fields([irreps.two_fermion_state(p, N, 0) for N in range(3)])]
    return _worst(res)


def _block_diagonality(ws: _Workspace) -> float:
    """Every cross-sector element <s1|G|s2> between the level-1 basis
    states of sectors 0, 1 and 2 of one fermion parity, one projection
    per generator."""
    level1 = {n: [s.state for s in irreps.sector_basis(ws.params, n, 1) if s.level == 1] for n in range(3)}
    res = []
    for n1, n2 in ((0, 1), (1, 2), (0, 2)):
        for odd in (False, True):
            rows, cols = ([st for st in level1[n] if st.fermion_parity() == odd] for n in (n1, n2))
            for m in gen.project(("K0", "K+", "Y"), rows, cols, ws.grid(n1, n2, odd=odd)).values():
                res.append(np.max(np.abs(m)))
    return _worst(res)


# task -> (function of the workspace, {check it computes: the check's suite})
_CHECK_TASKS = {
    "orthonormality": (_orthonormality, {"orthonormality": "model"}),
    "eigen-images": (_eigen_images, {"eigenvalue-residual": "model", "spectrum": "algebra"}),
    "hs-routes": (_hs_routes, {"hs-routes": "algebra"}),
    "susy-ground": (_susy_ground, {"susy-ground": "algebra"}),
    "scaling-conditions": (_scaling_conditions, {"scaling-conditions": "algebra"}),
    "odd-action-fields": (_odd_action_fields, {"odd-action-fields": "irreps"}),
    "one-fermion-overlap": (_one_fermion_overlap, {"one-fermion-overlap": "irreps"}),
    "block-diagonality": (_block_diagonality, {"block-diagonality": "irreps"}),
}


def _structure_part(ws: _Workspace, n: int, block: dict, states: list) -> dict[str, float]:
    """{relation: residual} on sector n's interior; {} if it is empty."""
    inner = gen.interior_mask(states, ws.config.truncation)
    return {c.name: c.residual for c in gen.check_structure_constants(block, inner)} if inner.any() else {}


def _ladder_part(ws: _Workspace, n: int, block: dict, states: list) -> tuple[float, bool]:
    """(worst relative deviation of sector n's K+ rungs from their closed
    form, whether every rung is positive)."""
    p, N_max = ws.params, ws.config.truncation[0]
    index = {(s.family, s.level): i for i, s in enumerate(states)}
    res = []
    sign_ok = True
    for s in states:
        if s.level + 1 > N_max:
            continue
        tau_fam = irreps.weights_of(p, n).tau + irreps.FAMILIES[s.family][0]
        expect = irreps.k_ladder_coeff("+", tau_fam, s.level)
        measured = block["K+"][index[s.family, s.level + 1], index[s.family, s.level]]
        sign_ok = sign_ok and measured > 0
        res.append(abs(measured - expect) / expect)
    return _worst(res), bool(sign_ok)


def _casimir_part(ws: _Workspace, n: int, block: dict, states: list) -> list[float]:
    """[worst deviation of C2 and C3 from their closed forms and of
    [C2, G] from zero on sector n's depth-2 interior], or [] if it is
    empty."""
    inner = gen.interior_mask(states, ws.config.truncation, depth=2)
    if not inner.any():
        return []
    c2, c3 = irreps.casimir_matrices(block)
    c2_th, c3_th = irreps.casimir_eigenvalues(ws.params, n)
    eye = np.eye(int(inner.sum()))
    res = [np.max(np.abs(c2[np.ix_(inner, inner)] - c2_th * eye)), np.max(np.abs(c3[np.ix_(inner, inner)] - c3_th * eye))]
    for gname in gen.GENERATOR_NAMES:
        g = block[gname]
        res.append(np.max(np.abs(c2[inner] @ g[:, inner] - g[inner] @ c2[:, inner])))
    return [_worst(res)]


# check -> (suite, its part from one sector's block and states, how the sectors' parts combine)
_SECTOR_CHECKS = {
    "structure": ("algebra", _structure_part, _worst_per_name),
    "hermiticity": ("algebra", lambda ws, n, block, states: gen.hermiticity_residuals(block), _worst_per_name),
    "ladder-matrix-elements": (
        "irreps",
        _ladder_part,
        lambda parts: _worst([res for res, _ in parts]) if all(ok for _, ok in parts) else float("inf"),
    ),
    "casimir": ("irreps", _casimir_part, lambda parts: _worst([res for part in parts for res in part])),
}


# k -> (check-name prefix, cartesian Hs and Q, cartesian superpotential), and the claims of its two checks
_CARTESIAN = {1.0: ("sw", special_cases.sw_super, special_cases.sw_superpotential), 2.0: ("bc2", special_cases.bc2_super, special_cases.bc2_superpotential)}
_CLAIMS = {
    1.0: ("cartesian Hs and Q at k = 1 equal the polar construction", "-a ln|x| - b ln|y| equals the polar superpotential at k = 1"),
    2.0: ("cartesian Hs and Q at k = 2 equal the polar construction on 0 < y < x", "pair/axis superpotential equals the polar one plus the constant b ln 2"),
}


def _checks_special(config: SuiteConfig):
    rng = UniformStream(config.seed)
    n_pts = 200
    for p in config.models():
        label = _params_label(p)
        if p.k in _CARTESIAN:
            (prefix, super_fn, superpotential), claims = _CARTESIAN[p.k], _CLAIMS[p.k]
            yield (f"{prefix}-pointwise", claims[0], label, _cartesian_agreement(p, super_fn, rng, n_pts), "special.pointwise")
            r = rng.uniform(0.5, 2.0, 50)
            phi = rng.uniform(0.1, 0.9, 50) * p.phi_max
            x, y = r * np.cos(phi), r * np.sin(phi)
            # the pair/axis superpotential exceeds the polar one by b ln 2
            diff = superpotential(p, x, y) - gen.superpotential(p, r, phi) - (p.b * math.log(2.0) if p.k == 2.0 else 0.0)
            yield (f"{prefix}-superpotential", claims[1], label, float(np.max(np.abs(diff))), "special.pointwise")
        elif p.k == 3.0:
            yield from _checks_cmw(p, label, rng, n_pts)


def _cartesian_agreement(p: ModelParams, cart_fn, rng, n_pts: int) -> float:
    r = rng.uniform(0.4, 2.2, n_pts)
    phi = rng.uniform(0.08, 0.92, n_pts) * p.phi_max
    x, y = r * np.cos(phi), r * np.sin(phi)
    table = FactorTable(p, r, phi)
    catalog = (
        irreps.zero_fermion_state(p, 1, 1),
        irreps.one_fermion_state("+", p, 0, 1),
        irreps.one_fermion_state("-", p, 1, 2),
        irreps.two_fermion_state(p, 1, 1),
    )
    polygauss = [special_cases.random_polygauss(rng, p.omega) for _ in range(2)]
    # (cartesian data, polar bundle) of each test spinor, made as the loop reaches it
    spinors = itertools.chain(
        ((special_cases.cart_from_polar(b, r, phi), b) for b in table.bundles(catalog)),
        (g.sample(r, phi) for g in polygauss),
    )
    res = []
    for cart, bundle in spinors:
        h_c, q_c = cart_fn(p, cart, x, y)
        h_p, q_p = gen.apply_operators(("Hs", "Q"), bundle, table)
        res += [_deviation(h_c, h_p, h_p), _deviation(q_c, q_p, q_p)]
    return _worst(res)


def _cmw_split(p: ModelParams, rel, cm: np.ndarray, r, phi, X) -> list:
    """Deviations of the three-particle Hs and Q from their relative plus
    centre-of-mass parts on the product of the relative spinor with polar
    bundle ``rel`` and the cm spinor ``cm``; the arrays die with the call."""
    data = special_cases.make_cmw_test_state(rel, cm, p, r, phi, X)
    h_f, q_f = special_cases.cmw_super(p, data)
    h_r, q_r = special_cases.cmw_rel_super(p, data)
    h_c, q_c = special_cases.cm_super(p, data)
    return [_deviation(h_f - h_r, h_c, h_f), _deviation(q_f - q_r, q_c, q_f)]


def _cmw_rel_vs_polar(table: FactorTable, bundle, cm_vac: np.ndarray, X) -> list:
    """Relative deviations of the relative part's Q and Hs from the polar
    k = 3 ones, on a catalog state times the cm vacuum: the state's one
    bundle from ``table`` is both embedded and applied."""
    p, r, phi = table.params, table.r, table.phi
    h_r, q_r = special_cases.cmw_rel_super(p, special_cases.make_cmw_test_state(bundle, cm_vac, p, r, phi, X))
    chi = np.exp(-0.5 * p.omega * X**2)
    cm_field = np.stack([chi, np.zeros_like(chi)])
    q_ref, h_ref = (special_cases.embed_product_values(f, cm_field) for f in gen.apply_operators(("Q", "Hs"), bundle, table))
    return [_deviation(q_r, q_ref, q_ref), _deviation(h_r, h_ref, h_ref)]


def _checks_cmw(p: ModelParams, label: str, rng, n_pts: int):
    r = rng.uniform(0.5, 2.0, n_pts)
    phi = rng.uniform(0.08, 0.92, n_pts) * p.phi_max
    X = rng.uniform(-1.5, 1.5, n_pts)

    _, _, cops = special_cases.cmw_mode_matrices()
    eye = np.eye(8)
    res = []
    for i in range(3):
        for j in range(3):
            anti = cops[i] @ cops[j].T + cops[j].T @ cops[i]
            res.append(np.max(np.abs(anti - (eye if i == j else 0.0))))
            res.append(np.max(np.abs(cops[i] @ cops[j] + cops[j] @ cops[i])))
    yield ("cmw-mode-transform", "the orthogonal three-mode transform preserves the anticommutation relations", label, _worst(res), "special.pointwise")

    phi_t = rng.uniform(0.0, 2 * math.pi, 64)
    lhs_c = sum(1.0 / np.cos(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    lhs_s = sum(1.0 / np.sin(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    res = _worst(
        [
            np.max(np.abs(lhs_c - 9.0 / np.cos(3 * phi_t) ** 2) / (9.0 / np.cos(3 * phi_t) ** 2)),
            np.max(np.abs(lhs_s - 9.0 / np.sin(3 * phi_t) ** 2) / (9.0 / np.sin(3 * phi_t) ** 2)),
        ]
    )
    yield ("cmw-trig-resummation", "the six angular centers resum to the k = 3 sec^2/csc^2 structure", label, res, "special.pointwise")

    table = FactorTable(p, r, phi)
    # the table's one call: two split states, two relative-vs-polar states, then the ground state
    bundles = table.bundles(
        [
            irreps.zero_fermion_state(p, 1, 1),
            irreps.one_fermion_state("+", p, 0, 2),
            irreps.zero_fermion_state(p, 2, 1),
            irreps.one_fermion_state("+", p, 1, 1),
            irreps.zero_fermion_state(p, 0, 0),
        ]
    )
    gauss = special_cases.random_polygauss(rng, p.omega)
    res = []
    for rel in (next(bundles), next(bundles), gauss.sample(r, phi)[1]):
        res += _cmw_split(p, rel, rng.uniform(-1.0, 1.0, size=(2, 3)), r, phi, X)
    yield ("cmw-split", "Hs and Q of the three-particle model split into relative + centre-of-mass parts", label, _worst(res), "special.pointwise")

    cm_vac = np.zeros((2, 2))
    cm_vac[0, 0] = 1.0
    res = []
    for bundle in (next(bundles), next(bundles)):
        res += _cmw_rel_vs_polar(table, bundle, cm_vac, X)
    yield ("cmw-rel-vs-polar", "the relative part reproduces the polar k = 3 construction; Q_rel = 2 sqrt(omega) W+", label, _worst(res), "special.pointwise")

    data = special_cases.make_cmw_test_state(next(bundles), cm_vac, p, r, phi, X)
    h_c, q_c = special_cases.cm_super(p, data)
    res = _worst([np.max(np.abs(h_c)), np.max(np.abs(q_c))])
    yield ("cmw-cm-ground", "the centre-of-mass superoscillator annihilates its Gaussian ground state", label, res, "special.pointwise")


# ---------------------------------------------------------------------------
# Runner and CLI


def _suite_failure(suite: str, error: str, wall_ms: float) -> CheckRecord:
    return CheckRecord(
        name=f"{suite}-suite",
        suite=suite,
        claim="suite executed without errors",
        params=None,
        residual=float("inf"),
        tolerance=0.0,
        passed=False,
        wall_ms=wall_ms,
        error=error,
    )


def _error_line(exc: Exception) -> str:
    """The last line of an exception's traceback: its type and message."""
    if isinstance(exc, _TaskError):
        return exc.args[0]
    return "".join(traceback.format_exception_only(type(exc), exc)).strip().splitlines()[-1]


def _stopwatch(workspace: _Workspace | None = None):
    """A clock whose every reading is the ms since its previous reading (or
    its start), plus the task time the workspace charged in between."""
    t_prev, charged_prev = time.perf_counter(), 0.0

    def elapsed_ms() -> float:
        nonlocal t_prev, charged_prev
        now, charged = time.perf_counter(), workspace.charged_ms if workspace else 0.0
        out = (now - t_prev) * 1e3 + (charged - charged_prev)
        t_prev, charged_prev = now, charged
        return out

    return elapsed_ms


def _collect(suite: str, produce, config: SuiteConfig, elapsed_ms) -> list[CheckRecord]:
    """The records of one suite's checks from ``produce()``, which yields
    each check, or a list of the checks of a group computed as a whole;
    each check of a group is charged an equal share of the group's time.
    A suite that raises keeps the checks it already yielded and ends with
    a failed ``<suite>-suite`` record."""
    records = []
    try:
        for item in produce():
            group = item if isinstance(item, list) else [item]
            wall_ms = elapsed_ms() / max(len(group), 1)
            for name, claim, plabel, residual, tol_key in group:
                tol = config.tol(tol_key)
                records.append(
                    CheckRecord(
                        name=name,
                        suite=suite,
                        claim=claim,
                        params=plabel,
                        residual=float(residual),
                        tolerance=tol,
                        passed=bool(residual <= tol),
                        wall_ms=wall_ms,
                    )
                )
    except Exception as exc:
        records.append(_suite_failure(suite, _error_line(exc), elapsed_ms()))
    return records


def _timed(fn, *args) -> tuple:
    """(``fn(*args)``, or the ``_TaskError`` of what it raised; the ms it took)."""
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:
        value = _TaskError(_error_line(exc))
    return value, (time.perf_counter() - t0) * 1e3


def _tasks(config: SuiteConfig) -> list[tuple]:
    """The per-set tasks of a run, as (set index, check task name or
    sector n): each set's check tasks of the selected suites, then one
    task per angular sector if a selected suite reads the generator
    blocks."""
    selected = config.selected()
    checks = [task for task, (_, suites) in _CHECK_TASKS.items() if set(suites.values()) & set(selected)]
    reads_blocks = any(suite in selected for suite, *_ in _SECTOR_CHECKS.values())
    sectors = range(config.truncation[1] + 1) if reads_blocks else range(0)
    return [(index, key) for index in range(len(config.param_sets)) for key in (*checks, *sectors)]


def _run_task(config: SuiteConfig, task: tuple) -> tuple[dict, float]:
    """One task, in this process: ({check: (residual or sector part, ms
    charged to the check)}, ms of the generator-block build).  A check
    whose computation raises gets its ``_TaskError`` in place of a value.

    A sector task builds sector n's eight blocks, reduces them to the
    parts of the selected checks that read them, each timed on its own,
    and drops them.  A check task that computes several checks charges
    each an equal share of its time."""
    index, key = task
    ws = _Workspace(ModelParams(**config.param_sets[index]), config)
    selected = config.selected()
    if isinstance(key, str):
        fn, suites = _CHECK_TASKS[key]
        checks = [c for c, suite in suites.items() if suite in selected]
        value, ms = _timed(fn, ws)
        values = value if isinstance(value, dict) else dict.fromkeys(checks, value)
        return {c: (values[c], ms / len(checks)) for c in checks}, 0.0
    parts = {c: part for c, (suite, part, _) in _SECTOR_CHECKS.items() if suite in selected}
    built, build_ms = _timed(gen.sector_matrices, ws.params, key, config.truncation[0], *config.quad_orders)
    if isinstance(built, _TaskError):
        return dict.fromkeys(parts, (built, 0.0)), build_ms
    return {c: _timed(part, ws, key, *built) for c, part in parts.items()}, build_ms


def _set_records(config: SuiteConfig, index: int, outputs: list) -> tuple[dict, float]:
    """The selected model, algebra and irreps records of parameter set
    ``index`` from the outputs of its tasks, in task order: {suite:
    records}, and the set's generator-block build time in ms."""
    ws = _Workspace(ModelParams(**config.param_sets[index]), config)
    parts: dict[str, list] = {}
    build_ms = 0.0
    for task_parts, ms in outputs:
        build_ms += ms
        for check, part in task_parts.items():
            parts.setdefault(check, []).append(part)
    for check, check_parts in parts.items():
        values = [value for value, _ in check_parts]
        failed = [value for value in values if isinstance(value, _TaskError)]
        combine = _SECTOR_CHECKS[check][2] if check in _SECTOR_CHECKS else lambda values: values[0]
        ws.results[check] = failed[0] if failed else combine(values)
        ws.charges[check] = sum(ms for _, ms in check_parts)
    producers = {
        "model": lambda: _checks_model(ws),
        "algebra": lambda: _checks_algebra(ws),
        "irreps": lambda: _checks_irreps(ws),
    }
    elapsed_ms = _stopwatch(ws)
    results = {suite: _collect(suite, producers[suite], config, elapsed_ms) for suite in config.selected() if suite in producers}
    return results, build_ms


def _parent_checks(config: SuiteConfig) -> dict:
    """The checks that are not per-set tasks: specfun, the algebra suite's
    parameter-free oscillator check and special-cases, whose sets draw
    their points from one random generator in sequence.  {suite:
    records}."""
    producers = {
        "specfun": _checks_specfun,
        "algebra": _checks_oscillator,
        "special-cases": lambda: _checks_special(config),
    }
    elapsed_ms = _stopwatch()
    return {suite: _collect(suite, producers[suite], config, elapsed_ms) for suite in config.selected() if suite in producers}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the OpenBLAS that numpy loaded, if any, on one
    thread, and restore its thread count after; forked workers inherit
    the one thread.  OpenBLAS's threads spin while they wait, so two
    workers that each wake a second thread for the larger products
    contend for two cores: at truncation (40, 30) a run on two such
    workers took 18.6 s, against 2.6 s in one process.  Its threaded and
    one-thread products also differ in the last bits, so one thread in
    every process keeps the report independent of the number of CPUs.
    The library is found by name in /proc/self/maps; where that file
    does not exist, the BLAS is left as it is."""
    restore = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the plain names, and those of numpy's own scipy-openblas build with 64-bit integers
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"), ("scipy_openblas", "64_")):
            get, put = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get is not None and put is not None:
                restore.append((put, get()))
                put(1)
    try:
        yield
    finally:
        for put, threads in reversed(restore):
            put(threads)


def _worker(config: SuiteConfig, tasks: list, queue: int, out: int) -> None:
    """A forked worker: until the queue is empty, take a task index from
    it, write the index and then the task's output, each pickled, to
    ``out``.  It never returns."""
    status = 1
    try:
        with os.fdopen(out, "wb") as stream:
            while chunk := os.read(queue, 4):
                i = int.from_bytes(chunk, "little")
                pickle.dump(i, stream)
                stream.flush()
                pickle.dump(_run_task(config, tasks[i]), stream)
                stream.flush()
        status = 0
    except BaseException:
        traceback.print_exc()
        raise
    finally:
        os._exit(status)


def _receive(fd: int, outputs: list) -> int | None:
    """Read a worker's stream into ``outputs`` until it ends: the index of
    a task it took and gave no output for, or None."""
    with os.fdopen(fd, "rb") as stream:
        while True:
            try:
                i = pickle.load(stream)
            except EOFError:
                return None
            try:
                outputs[i] = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):  # the stream ends inside the output
                return i


def _start_workers(config: SuiteConfig, tasks: list, workers: int) -> tuple[int, dict[int, int]]:
    """Fork up to ``workers`` workers and queue every task index for them:
    (the read end of the queue, {worker pid: the read end of its result
    pipe}).  Each index is 4 bytes, and pipe writes of at most PIPE_BUF
    (>= 512) bytes are atomic, so a worker always reads whole indices."""
    queue, queue_in = os.pipe()
    streams: dict[int, int] = {}
    for _ in range(workers):
        fd, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no further worker can be started
            os.close(fd)
            os.close(out)
            break
        if pid == 0:
            for inherited in (queue_in, fd, *streams.values()):
                os.close(inherited)
            _worker(config, tasks, queue, out)
        os.close(out)
        streams[pid] = fd
    indices = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    for start in range(0, len(indices), 512):
        os.write(queue_in, indices[start : start + 512])
    os.close(queue_in)
    return queue, streams


def _run_tasks(config: SuiteConfig, tasks: list) -> tuple[dict, list]:
    """(``_parent_checks``, the ``_run_task`` output of every task, or a
    ``_TaskError`` for a task whose worker died).

    With more than one task and usable CPU, min(tasks, usable CPUs)
    workers are forked with ``os.fork``, so each starts from this
    process's state, the config and any monkeypatches included, without
    a fresh import.  (Python 3.12 and later warn when a process that
    runs threads, such as OpenBLAS's pool, forks.)  The task indices
    wait in one pipe, from which each worker takes the next whenever it
    is free, and each worker returns its outputs through a pipe of its
    own while this process runs its own checks.  Tasks that no worker
    took, because none could be started or every one died, run here.
    With one usable CPU or no ``os.fork``, every task runs here, one
    after the other."""
    workers = min(len(tasks), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers < 2:
        return _parent_checks(config), [_run_task(config, task) for task in tasks]
    queue, streams = _start_workers(config, tasks, workers)
    parent = _parent_checks(config)
    outputs: list = [None] * len(tasks)
    for pid, fd in streams.items():
        lost = _receive(fd, outputs)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if lost is not None:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            outputs[lost] = _TaskError(f"worker process {pid} failed: {how}")
    while chunk := os.read(queue, 4):
        i = int.from_bytes(chunk, "little")
        outputs[i] = _run_task(config, tasks[i])
    os.close(queue)
    return parent, outputs


def run(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; failures are recorded, never raised.

    The model, algebra and irreps checks of each parameter set are
    computed as tasks (``_tasks``): one per angular sector, which builds
    that sector's generator blocks, reduces them to its part of each
    check that reads them and drops them, and one per remaining check,
    except the closed-form checks that take well under a millisecond
    (``riccati``, ``riccati-control``, ``spectrum-identities`` and
    ``susy-anticommutator``, which the suites compute as they reach them).
    The tasks run in forked workers when there are several and several
    usable CPUs (see ``_run_tasks``); the rest runs in this process.
    Each set's suites then yield their records from the task results, so
    a set's records are the same wherever its tasks ran.  The records are
    merged by one rule: suite by suite, each set's records in
    parameter-set order, then this process's, so the oscillator check
    comes after the algebra suite's per-set checks.

    Each check is timed by the task work charged to it, plus the time
    from the previous record of its stream (this process's checks, or
    one set's) to the moment its suite yields it.  A sector task's
    block build is charged to no check: the builds are summed per
    parameter set in ``matrices_ms``.  Each reduction of a sector's
    blocks is charged to its check, and a task that computes several
    checks (``eigenvalue-residual`` and ``spectrum`` share their state
    bundles) charges each an equal share.  The checks of a group that a
    suite computes as a whole, such as ``structure[...]``, are yielded
    together and share their time equally.

    A suite whose computation raises in one set keeps the checks it
    already yielded there and ends that set's part with one failed
    ``<suite>-suite`` record; the other sets and this process's checks of
    the suite are kept, since they do not depend on it.  A set that lost
    a task with a dead worker fails each of its suites with one such
    record, which names the worker.  A run in which no suite raises is
    not touched by this rule: its report lists every check in the order
    above.
    """
    tasks = _tasks(config)
    with _one_blas_thread():
        parent, outputs = _run_tasks(config, tasks)
    per_set = []
    for index in range(len(config.param_sets)):
        outs = [out for (i, _), out in zip(tasks, outputs) if i == index]
        lost = next((out for out in outs if isinstance(out, _TaskError)), None)
        if lost is None:
            per_set.append(_set_records(config, index, outs))
        else:
            per_set.append(({s: [_suite_failure(s, lost.args[0], 0.0)] for s in config.selected() if s in PER_SET_SUITES}, 0.0))
    records: list[CheckRecord] = []
    for suite in config.selected():
        for results, _ in per_set:
            records += results.get(suite, [])
        records += parent.get(suite, [])
    matrices_ms = {_params_label(p): build_ms for p, (_, build_ms) in zip(config.models(), per_set) if build_ms}
    return VerificationReport(config, records, matrices_ms)


def _parse_param(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"bad --param entry {part!r}; expected key=value")
        key, val = part.split("=", 1)
        out[key.strip()] = float(val)
    # SuiteConfig reports unknown and missing keys
    out.setdefault("omega", 1.0)
    return out


def _build_config(args) -> SuiteConfig:
    data: dict = {}
    config_path = args.config or os.environ.get("TTWSUSY_CONFIG")
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            data = json.load(fh)
        _check_object(data)
    if args.param:
        data["param_sets"] = args.param
    if args.suite:
        data["suites"] = args.suite
    if args.nmax is not None:
        trunc = data.get("truncation", list(SuiteConfig.truncation))
        if isinstance(trunc, list):
            data["truncation"] = [args.nmax, *trunc[1:]]
    if args.seed is not None:
        data["seed"] = args.seed
    return SuiteConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ttwsusy", description="supersymmetric deformed-oscillator verification suite")
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run the verification suites and write a report")
    ver.add_argument("--config", help="JSON config file (default: $TTWSUSY_CONFIG if set)")
    ver.add_argument("--suite", action="append", choices=SUITES + ("all",), help="suite to run (repeatable)")
    ver.add_argument("--param", action="append", type=_parse_param, metavar="k=..,a=..,b=..,omega=..")
    ver.add_argument("--nmax", type=int, help="radial truncation level")
    ver.add_argument("--out", help="write the report to this path (default: stdout)")
    ver.add_argument("--format", choices=("json", "text"), default="text")
    ver.add_argument("--seed", type=int, help="seed for the random sample points")
    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
        # opened before the run, so that a path that cannot be written is a usage error
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))

    report = run(config)
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if out is None:
        print(rendered)
    else:
        with out:
            out.write(rendered + "\n")
    return min(report.n_failed, 120)


if __name__ == "__main__":
    sys.exit(main())
