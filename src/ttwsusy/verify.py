"""Verification-suite orchestration, configuration and reporting.

``run`` executes the selected check suites over a list of parameter
sets, records one residual per check, and never aborts on a failed
check.  The report lists the suites in dependency order (specfun ->
model -> algebra -> irreps -> special-cases), each suite's checks in
parameter-set order.  Reports are deterministic for a fixed config and
seed (wall-clock fields aside) and can be rendered as JSON or a text
table.  The seeded sample points (``scaling-conditions`` and
special-cases) come from the package's own ``_rng.UniformStream``, which
draws exactly what ``numpy.random.default_rng(seed).uniform`` draws;
each task that draws them starts a stream of the seed of its own, so the
points are fixed by the seed and the set alone, and no run loads
``numpy.random``.

One unit system holds throughout: the modules below work in oscillator
units, r the oscillator radius rho = sqrt(omega) r_phys, and take no
omega, the points are drawn in rho, and every residual is read in those
units (energies, H and Hs in units of omega, Q and Qdag of sqrt(omega)).
So every check but ``spectrum-identities`` (the physical closed forms)
and ``eigenvalue-residual`` (``model.energy`` / omega) reads the same at
every omega.

The parameter sets share nothing but the order of the report, and
every generator preserves the angular sector n.  So every check is
computed by a task (``_tasks``) of one group: a parameter set, or the
set-free group of specfun and the parameter-free
``oscillator-realization``.  ``_CHECKS`` lists every suite's checks in
report order, with their claims and tolerance keys.  A check task is a
row of ``_CHECK_TASKS``: a function of a ``_Workspace`` that returns a
residual or {check: residual}, and the groups that run it, every set,
the sets with k in {1, 2, 3}, whose cartesian special cases it checks,
or the set-free group.  Each set also has one task per angular sector,
which builds that sector's eight generator blocks
(``generators.sector_matrices``), reduces them to its part of each
selected check that reads them, and drops them.  A task reads a
``_Workspace``: its group's parameters (None for the set-free group)
and the config, from which it takes its grids, one per exponent and
orders in each process, and builds its factor tables at the configured
orders; the 1-D angular functions on a set's grids are evaluated once
per set in a process (``model.AngularRow``).  With several tasks and
usable CPUs they run in forked worker processes, dealt by group, the
set-free group after the sets: each worker takes its own tasks one at a
time from a queue of its own, then helps with the others' queues, and
appends its outputs to a file of its own, while this process only
deals, waits, reads the files, merges the records and renders them.
With one usable CPU, or without ``os.fork`` or ``os.memfd_create``,
they run here, one after the other.  Every task gives ({check: (value,
ms)}, ms of its block build), and each group's records are built from
its tasks' values and times, so the records are the same either way.  A
task that raises, or that is lost with a dead worker, ends its group's
part of each suite it computes a check of with a failed
``<suite>-suite`` record and keeps every other record (see ``run``).

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
from .states import FactorTable, SpinorField

__all__ = ["SuiteConfig", "CheckRecord", "VerificationReport", "run", "main"]

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


def _max_abs(f, g=None) -> float:
    """max |f - g|, g zero by default, of two arrays, or of two compact
    ``SpinorField``s on the components either reaches: a component that
    one field does not reach reads as its zero there, and a field that
    reaches no component as 0.0, as the four dense rows would."""
    if isinstance(f, SpinorField):
        reached = tuple(sorted({*f.reached, *(g.reached if g is not None else ())}))
        f, g = f.on(reached), None if g is None else g.on(reached)
    diff = f if g is None else f - g
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def _deviation(f, g, scale) -> float:
    """max |f - g| / max(max |scale|, 1) (see ``_max_abs``): relative, or
    absolute for small fields."""
    return _max_abs(f, g) / max(_max_abs(scale), 1.0)


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
    """What one group's tasks read: its ``params`` (None for the set-free
    group) and the ``config``; a set's tasks build its quadrature grids
    and factor tables at the configured orders."""

    def __init__(self, params: ModelParams | None, config: SuiteConfig):
        self.params = params
        self.config = config

    def grid(self, n1: int, n2: int | None = None) -> Grid:
        """``Grid.for_pair(n1, n2)`` (n2 defaults to n1), exact for states of
        either fermion parity: the one grid of its exponent and the
        configured orders in this process."""
        m_rad, m_ang = self.config.quad_orders
        return Grid.for_pair(self.params, n1, n1 if n2 is None else n2, m_rad, m_ang)

    def table(self, n: int) -> FactorTable:
        """A fresh ``FactorTable`` on ``grid(n)``, whose angular functions of
        phi the set's angular row keeps."""
        return FactorTable.on(self.grid(n))


# ---------------------------------------------------------------------------
# The check tasks.  A check task is a function of a workspace that returns
# its check's residual or, when it computes several checks, {check:
# residual}; a sector part returns one sector's share of a residual, and
# the sectors' shares combine into it.


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


def _recurrence(poly, series, grid, args) -> float:
    """Worst deviation of ``poly(n, *a, grid)`` from the exact series
    ``series(n, *a, grid)`` for degrees n = 0..12 and each ``a`` of
    ``args``, relative where the series exceeds 1."""
    res = []
    for n in range(13):
        for a in args:
            ref = series(n, *a, grid)
            res.append(np.max(np.abs(poly(n, *a, grid) - ref) / np.maximum(np.abs(ref), 1.0)))
    return _worst(res)


def _laguerre_recurrence(ws: _Workspace) -> float:
    return _recurrence(specfun.laguerre, _series_laguerre, np.linspace(0.05, 30.0, 41), [(alpha,) for alpha in (-0.4, 0.0, 0.7, 2.5, 10.0)])


def _jacobi_recurrence(ws: _Workspace) -> float:
    return _recurrence(specfun.jacobi, _series_jacobi, np.linspace(-0.999, 0.999, 41), ((-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0)))


def _derivative_identities(ws: _Workspace) -> float:
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
    return _worst(res)


def _gauss_moments(ws: _Workspace) -> float:
    res = []
    for alpha in (0.0, 2.5, 14.2):
        rule = specfun.gauss_rule("gauss-laguerre", 12, alpha=alpha)
        for j in range(0, 24, 3):
            approx = float(np.sum(rule.weights * rule.nodes**j))
            exact = math.exp(math.lgamma(alpha + j + 1.0))
            res.append(abs(approx / exact - 1.0))
    for alpha, beta in ((0.0, 0.0), (0.7, 1.9)):
        rule = specfun.gauss_rule("gauss-jacobi", 10, alpha=alpha, beta=beta)
        for i in range(0, 10, 3):
            for j in range(0, 9, 3):
                approx = float(np.sum(rule.weights * (1 - rule.nodes) ** i * (1 + rule.nodes) ** j))
                exact = math.exp(
                    (alpha + beta + i + j + 1) * math.log(2.0)
                    + math.lgamma(alpha + i + 1.0)
                    + math.lgamma(beta + j + 1.0)
                    - math.lgamma(alpha + beta + i + j + 2.0)
                )
                res.append(abs(approx / exact - 1.0))
    return _worst(res)


def _oscillator(ws: _Workspace) -> float:
    """The parameter-free matrix realization: every relation, and K0 on
    the diagonal."""
    osc = gen.oscillator_realization()
    # the structure relations include {V-, W+} = K0 + Y, i.e. {Q, Qdag} = Hs
    res = list(gen.check_structure_constants(osc.mats, osc.interior).values())
    res.append(np.max(np.abs(np.diag(osc.mats["K0"])[osc.interior] - 0.5 * (osc.boson_numbers[osc.interior] + 0.5))))
    return _worst(res)


# suite -> its checks in report order, as (check, claim, tolerance key).  A check whose claim is
# None is a group: one record per entry of its {relation: residual}, named check[relation]
_CHECKS = {
    "specfun": (
        ("laguerre-recurrence", "three-term recurrence equals the explicit series sum", "specfun.recurrence"),
        ("jacobi-recurrence", "three-term recurrence equals the explicit series sum", "specfun.recurrence"),
        ("derivative-identities", "dL_N/dz = -L_{N-1}^(alpha+1); dP_n/dx = (n+alpha+beta+1)/2 P_{n-1}^(alpha+1,beta+1)", "specfun.derivative"),
        ("gauss-moments", "m-point rules integrate degree <= 2m-1 monomials against their weight (moments via log-gamma)", "specfun.quadrature"),
    ),
    "model": (
        ("orthonormality", "Gram matrix of the normalized eigenfunctions is the identity", "model.orthonormality"),
        ("eigenvalue-residual", "H_k Psi_{N,n} = 2 omega [2N + (2n+a+b)k + 1] Psi_{N,n}", "model.eigenvalue"),
        ("spectrum-identities", "E_{N,n} - E_{0,0} = 4 omega (N + nk); tau + q = nk (zero exactly at n = 0)", "model.identity"),
    ),
    "algebra": (
        (
            "riccati",
            "-F'' + F'^2 + C^2 = k^2 [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)] for "
            "F = -a ln cos(k phi) - b ln sin(k phi), C = -k(a+b)",
            "algebra.riccati",
        ),
        ("riccati-control", "perturbing a -> a+0.01 inside F must break the identity by more than 1e-3 (shortfall reported)", "algebra.riccati-control"),
        ("structure", None, "algebra.structure"),
        ("hermiticity", None, "algebra.hermiticity"),
        ("spectrum", "Hs Psi_{N,n}|0> = 4 omega (N + nk) Psi_{N,n}|0>", "algebra.spectrum"),
        ("hs-routes", "H_k + 4 omega (Gamma + Y) equals 4 omega (K0 + Y) built from the superpotential", "algebra.routes"),
        ("susy-ground", "Q and Qdag annihilate the ground state (unbroken supersymmetry)", "algebra.susy-ground"),
        ("susy-anticommutator", "{Q, Qdag} = Hs with Q = 2 sqrt(omega) W+, Qdag = 2 sqrt(omega) V-", "algebra.susy-anticommutator"),
        ("scaling-conditions", "D and Gamma are homogeneous of degree -2 in r (integrated form of [r d_r, O] = -2 O)", "algebra.conditions"),
        (
            "oscillator-realization",
            "boson-fermion matrix realization satisfies every superalgebra relation; K0 = (adag a + 1/2)/2; {Q,Qdag} = Hs",
            "algebra.oscillator",
        ),
    ),
    "irreps": (
        ("ladder-matrix-elements", "K+ rungs equal sqrt((N+1)(2 tau + N)) with positive sign in every tower", "irreps.ladder"),
        ("odd-action-fields", "V+- on zero-fermion states reproduce their closed-form expansions; W+- annihilate them", "irreps.odd-action"),
        (
            "one-fermion-overlap",
            "<+|-> = sqrt(N[N+(2n+a+b)k] / ([N+(n+a+b)k][N+nk])); at n = 0 the one-fermion "
            "families coincide and the two-fermion states vanish",
            "irreps.overlap",
        ),
        ("casimir", "C2 and C3 are scalar n(n+a+b)k^2 and -(a+b)n(n+a+b)k^3/2 per sector (zero at n = 0); C2 commutes with all generators", "irreps.casimir"),
        ("block-diagonality", "generators do not couple different angular sectors (projected cross-sector matrix elements vanish)", "irreps.block-diagonal"),
    ),
    "special-cases": (
        ("sw-pointwise", "cartesian Hs and Q at k = 1 equal the polar construction", "special.pointwise"),
        ("sw-superpotential", "-a ln|x| - b ln|y| equals the polar superpotential at k = 1", "special.pointwise"),
        ("bc2-pointwise", "cartesian Hs and Q at k = 2 equal the polar construction on 0 < y < x", "special.pointwise"),
        ("bc2-superpotential", "pair/axis superpotential equals the polar one plus the constant b ln 2", "special.pointwise"),
        ("cmw-mode-transform", "the orthogonal three-mode transform preserves the anticommutation relations", "special.pointwise"),
        ("cmw-trig-resummation", "the six angular centers resum to the k = 3 sec^2/csc^2 structure", "special.pointwise"),
        ("cmw-split", "Hs and Q of the three-particle model split into relative + centre-of-mass parts", "special.pointwise"),
        ("cmw-rel-vs-polar", "the relative part reproduces the polar k = 3 construction; Q_rel = 2 sqrt(omega) W+", "special.pointwise"),
        ("cmw-cm-ground", "the centre-of-mass superoscillator annihilates its Gaussian ground state", "special.pointwise"),
    ),
}
SUITES = tuple(_CHECKS)
_SUITE_OF = {check: suite for suite, checks in _CHECKS.items() for check, _, _ in checks}


def _selected(config: SuiteConfig, checks) -> list[str]:
    """The checks of the selected suites among ``checks``."""
    return [c for c in checks if _SUITE_OF[c] in config.selected()]


def _orthonormality(ws: _Workspace) -> float:
    """max |G - 1| of the Gram matrix, an integral taken as products of
    1-D radial and angular Gauss sums (``generators.wavefunction_gram``)."""
    gram = gen.wavefunction_gram(ws.params, (6, 6), *ws.config.quad_orders)
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def _scaled(c: float, f: SpinorField) -> SpinorField:
    return SpinorField(c * f.rows, f.reached)


# operator and residual (of p, N, n, field, image) of the pointwise eigen-checks of Psi_{N,n}|0>
_EIGEN_CHECKS = {
    "eigenvalue-residual": ("H", lambda p, N, n, fv, hv: _max_abs(hv, _scaled(model.energy(p, N, n) / p.omega, fv)) / _max_abs(fv)),
    "spectrum": ("Hs", lambda p, N, n, fv, hv: _deviation(hv, _scaled(4.0 * (N + n * p.k), fv), fv)),
}


def _eigen_images(ws: _Workspace) -> dict[str, float]:
    """{check: residual} of ``eigenvalue-residual`` (H) and ``spectrum``
    (Hs), those of the selected suites, from one bundle of each
    Psi_{N,n}|0> for N, n in 0..6 on sector n's grid, whose table expands
    all seven states in one call; each bundle is handed both operators."""
    p, checks = ws.params, _selected(ws.config, _EIGEN_CHECKS)
    res: dict[str, list] = {c: [] for c in checks}
    for n in range(7):
        table = ws.table(n)
        for N, bundle in enumerate(table.bundles([irreps.zero_fermion_state(p, N, n) for N in range(7)])):
            images = gen.apply_operators([_EIGEN_CHECKS[c][0] for c in checks], bundle, table)
            for c, image in zip(checks, images):
                res[c].append(_EIGEN_CHECKS[c][1](p, N, n, bundle.field, image))
    return {c: _worst(r) for c, r in res.items()}


def _spectrum_identities(ws: _Workspace) -> float:
    """The closed forms of the spectrum and the weights, for N, n in 0..8."""
    p = ws.params
    res = []
    for n in range(9):
        w = model.weights_of(p, n)
        res.append(abs(w.tau + w.q - n * p.k))
        for N in range(9):
            res.append(abs(model.susy_energy(p, N, n) - 4.0 * p.omega * (N + n * p.k)) / (1.0 + 4 * p.omega * (N + n * p.k)))
    return _worst(res)


def _riccati(ws: _Workspace) -> dict[str, float]:
    """{check: residual} of ``riccati`` and of ``riccati-control``, whose
    residual is the shortfall of the perturbed identity's break from 1e-3."""
    p = ws.params
    phi = np.linspace(p.phi_max / 51.0, p.phi_max * 50.0 / 51.0, 50)
    measured = float(np.max(gen.riccati_residual(p, phi, perturb_a=0.01)))
    return {"riccati": float(np.max(gen.riccati_residual(p, phi))), "riccati-control": float(np.maximum(0.0, 1e-3 - measured))}


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
    return _worst([_max_abs(f) for f in gen.apply_operators(("Q", "Qdag"), bundle, table)])


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
    The sector's table expands its states in one call and, in another,
    their closed-form images; each state's one bundle is handed all four
    operators."""
    p = ws.params
    res = []
    for n in (0, 1, 2):
        table = ws.table(n)
        states = [irreps.zero_fermion_state(p, N, n) for N in (0, 1, 3)]
        refs = table.fields([irreps.v_action(sign, p, N, n) for N in (0, 1, 3) for sign in ("+", "-")])
        for bundle in table.bundles(states):
            v_plus, v_minus, *w_images = gen.apply_operators(("V+", "V-", "W+", "W-"), bundle, table)
            res += [_deviation(out, ref, ref) for out, ref in zip((v_plus, v_minus), refs)]
            # W+- reach no component of a zero-fermion state: each image reads 0.0
            res += [_max_abs(wout) for wout in w_images]
    return _worst(res)


def _one_fermion_overlap(ws: _Workspace) -> float:
    """Projected <+|-> overlaps against ``irreps.overlap``; at n = 0 the
    pointwise coincidence of the one-fermion families and the vanishing
    of the two-fermion states, each family of fields from one call on
    the sector-0 table."""
    p = ws.params
    res = []
    for n in range(1, min(4, ws.config.truncation[1]) + 1):
        plus = [irreps.one_fermion_state("+", p, N - 1, n) for N in range(1, 6)]
        minus = [irreps.one_fermion_state("-", p, N, n) for N in range(1, 6)]
        measured = np.diag(gen.project(("1",), plus, minus, ws.grid(n))["1"])
        res += [abs(m - irreps.overlap(p, N, n)) for N, m in enumerate(measured, start=1)]
    pairs = [(irreps.one_fermion_state("+", p, N - 1, 0), irreps.one_fermion_state("-", p, N, 0)) for N in range(1, 5)]
    table = ws.table(0)
    fields = table.fields([st for pair in pairs for st in pair])
    # one iterator zipped with itself: consecutive (+, -) fields
    res += [_max_abs(plus, minus) for plus, minus in zip(fields, fields)]
    res += [_max_abs(two) for two in table.fields([irreps.two_fermion_state(p, N, 0) for N in range(3)])]
    return _worst(res)


def _block_diagonality(ws: _Workspace) -> float:
    """Every cross-sector element <s1|G|s2> between the level-1 basis
    states of sectors 0, 1 and 2, both fermion parities in one projection
    per sector pair on the pair's grid."""
    level1 = {n: [s.state for s in irreps.sector_basis(ws.params, n, 1) if s.level == 1] for n in range(3)}
    res = []
    for n1, n2 in ((0, 1), (1, 2), (0, 2)):
        for m in gen.project(("K0", "K+", "Y"), level1[n1], level1[n2], ws.grid(n1, n2)).values():
            res.append(np.max(np.abs(m)))
    return _worst(res)


def _structure_part(ws: _Workspace, n: int, block: dict, states: list) -> dict[str, float]:
    """{relation: residual} on sector n's interior."""
    return gen.check_structure_constants(block, gen.interior_mask(states, ws.config.truncation[0]))


def _ladder_part(ws: _Workspace, n: int, block: dict, states: list) -> float:
    """Worst relative deviation of sector n's K+ rungs from their closed
    form, or inf if a rung is not positive."""
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
    return _worst(res) if sign_ok else float("inf")


def _casimir_part(ws: _Workspace, n: int, block: dict, states: list) -> float:
    """Worst deviation of C2 and C3 from their closed forms and of
    [C2, G] from zero on sector n's depth-2 interior."""
    inner = gen.interior_mask(states, ws.config.truncation[0], depth=2)
    c2, c3 = irreps.casimir_matrices(block)
    c2_th, c3_th = irreps.casimir_eigenvalues(ws.params, n)
    eye = np.eye(int(inner.sum()))
    res = [np.max(np.abs(c2[np.ix_(inner, inner)] - c2_th * eye)), np.max(np.abs(c3[np.ix_(inner, inner)] - c3_th * eye))]
    for gname in gen.GENERATOR_NAMES:
        g = block[gname]
        res.append(np.max(np.abs(c2[inner] @ g[:, inner] - g[inner] @ c2[:, inner])))
    return _worst(res)


# check -> its part from one sector's block and states
_SECTOR_CHECKS = {
    "structure": _structure_part,
    "hermiticity": lambda ws, n, block, states: gen.hermiticity_residuals(block),
    "ladder-matrix-elements": _ladder_part,
    "casimir": _casimir_part,
}


def _special_cases(ws: _Workspace) -> dict[str, float]:
    """{check: residual} of the cartesian model of the set's k (1, 2 or
    3), at points drawn from a stream of the config's seed of its own, so
    that they depend on the set and the seed alone.  The model functions
    are read from ``special_cases`` when the task runs."""
    p, rng = ws.params, UniformStream(ws.config.seed)
    if p.k == 3.0:
        return _cmw(p, rng, 200)
    prefix, super_fn, superpotential = ("sw", special_cases.sw_super, special_cases.sw_superpotential) if p.k == 1.0 else ("bc2", special_cases.bc2_super, special_cases.bc2_superpotential)
    pointwise = _cartesian_agreement(p, super_fn, rng, 200)
    r = rng.uniform(0.5, 2.0, 50)
    phi = rng.uniform(0.1, 0.9, 50) * p.phi_max
    x, y = r * np.cos(phi), r * np.sin(phi)
    # the pair/axis superpotential exceeds the polar one by b ln 2
    diff = superpotential(p, x, y) - gen.superpotential(p, r, phi) - (p.b * math.log(2.0) if p.k == 2.0 else 0.0)
    return {f"{prefix}-pointwise": pointwise, f"{prefix}-superpotential": float(np.max(np.abs(diff)))}


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
    polygauss = [special_cases.random_polygauss(rng) for _ in range(2)]
    # (cartesian data, polar bundle) of each test spinor, made as the loop reaches it
    spinors = itertools.chain(
        ((special_cases.cart_from_polar(b, r, phi), b) for b in table.bundles(catalog)),
        (g.sample(r, phi) for g in polygauss),
    )
    res = []
    for cart, bundle in spinors:
        h_c, q_c = cart_fn(p, cart, x, y)
        h_p, q_p = (f.dense() for f in gen.apply_operators(("Hs", "Q"), bundle, table))
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
    chi = np.exp(-0.5 * X**2)
    cm_field = np.stack([chi, np.zeros_like(chi)])
    q_ref, h_ref = (special_cases.embed_product_values(f.dense(), cm_field) for f in gen.apply_operators(("Q", "Hs"), bundle, table))
    return [_deviation(q_r, q_ref, q_ref), _deviation(h_r, h_ref, h_ref)]


def _cmw(p: ModelParams, rng, n_pts: int) -> dict[str, float]:
    """{check: residual} of the three-particle model at k = 3."""
    r = rng.uniform(0.5, 2.0, n_pts)
    phi = rng.uniform(0.08, 0.92, n_pts) * p.phi_max
    X = rng.uniform(-1.5, 1.5, n_pts)

    cops = special_cases.cmw_mode_matrices()
    eye = np.eye(8)
    res = []
    for i in range(3):
        for j in range(3):
            anti = cops[i] @ cops[j].T + cops[j].T @ cops[i]
            res.append(np.max(np.abs(anti - (eye if i == j else 0.0))))
            res.append(np.max(np.abs(cops[i] @ cops[j] + cops[j] @ cops[i])))
    out = {"cmw-mode-transform": _worst(res)}

    phi_t = rng.uniform(0.0, 2 * math.pi, 64)
    lhs_c = sum(1.0 / np.cos(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    lhs_s = sum(1.0 / np.sin(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    out["cmw-trig-resummation"] = _worst(
        [
            np.max(np.abs(lhs_c - 9.0 / np.cos(3 * phi_t) ** 2) / (9.0 / np.cos(3 * phi_t) ** 2)),
            np.max(np.abs(lhs_s - 9.0 / np.sin(3 * phi_t) ** 2) / (9.0 / np.sin(3 * phi_t) ** 2)),
        ]
    )

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
    gauss = special_cases.random_polygauss(rng)
    res = []
    for rel in (next(bundles), next(bundles), gauss.sample(r, phi)[1]):
        res += _cmw_split(p, rel, rng.uniform(-1.0, 1.0, size=(2, 3)), r, phi, X)
    out["cmw-split"] = _worst(res)

    cm_vac = np.zeros((2, 2))
    cm_vac[0, 0] = 1.0
    res = []
    for bundle in (next(bundles), next(bundles)):
        res += _cmw_rel_vs_polar(table, bundle, cm_vac, X)
    out["cmw-rel-vs-polar"] = _worst(res)

    data = special_cases.make_cmw_test_state(next(bundles), cm_vac, p, r, phi, X)
    h_c, q_c = special_cases.cm_super(p, data)
    out["cmw-cm-ground"] = _worst([np.max(np.abs(h_c)), np.max(np.abs(q_c))])
    return out


def _every_set(p: ModelParams | None) -> bool:
    return p is not None


def _cartesian_sets(p: ModelParams | None) -> bool:
    return p is not None and p.k in (1.0, 2.0, 3.0)


def _set_free(p: ModelParams | None) -> bool:
    return p is None


# task -> (function of the workspace, the checks it computes, which groups run it: a predicate of
# the group's parameters, None for the set-free group); each group runs its tasks in this order
_CHECK_TASKS = {
    "laguerre-recurrence": (_laguerre_recurrence, ("laguerre-recurrence",), _set_free),
    "jacobi-recurrence": (_jacobi_recurrence, ("jacobi-recurrence",), _set_free),
    "derivative-identities": (_derivative_identities, ("derivative-identities",), _set_free),
    "gauss-moments": (_gauss_moments, ("gauss-moments",), _set_free),
    "oscillator-realization": (_oscillator, ("oscillator-realization",), _set_free),
    "orthonormality": (_orthonormality, ("orthonormality",), _every_set),
    "eigen-images": (_eigen_images, ("eigenvalue-residual", "spectrum"), _every_set),
    "spectrum-identities": (_spectrum_identities, ("spectrum-identities",), _every_set),
    "riccati": (_riccati, ("riccati", "riccati-control"), _every_set),
    "hs-routes": (_hs_routes, ("hs-routes",), _every_set),
    "susy-ground": (_susy_ground, ("susy-ground",), _every_set),
    "scaling-conditions": (_scaling_conditions, ("scaling-conditions",), _every_set),
    "odd-action-fields": (_odd_action_fields, ("odd-action-fields",), _every_set),
    "one-fermion-overlap": (_one_fermion_overlap, ("one-fermion-overlap",), _every_set),
    "block-diagonality": (_block_diagonality, ("block-diagonality",), _every_set),
    "special-cases": (_special_cases, tuple(check for check, _, _ in _CHECKS["special-cases"]), _cartesian_sets),
}


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


def _record(suite: str, name: str, claim: str, params: str | None, residual, tol: float, wall_ms: float) -> CheckRecord:
    return CheckRecord(name, suite, claim, params, float(residual), tol, bool(residual <= tol), wall_ms)


def _timed(fn, *args) -> tuple:
    """(``fn(*args)``, or the ``_TaskError`` of what it raised; the ms it took)."""
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:
        value = _TaskError(_error_line(exc))
    return value, (time.perf_counter() - t0) * 1e3


def _group_params(config: SuiteConfig, index: int) -> ModelParams | None:
    """The parameters of group ``index``: a set's, or None for the
    set-free group, which takes the index one past the last set."""
    return ModelParams(**config.param_sets[index]) if index < len(config.param_sets) else None


def _task_checks(config: SuiteConfig, key) -> list[str]:
    """The checks of the selected suites that task ``key`` (a check
    task's name or a sector n) computes."""
    return _selected(config, _CHECK_TASKS[key][1] if isinstance(key, str) else _SECTOR_CHECKS)


def _tasks(config: SuiteConfig) -> list[tuple]:
    """The tasks of a run, as (group index, key): for each parameter set,
    then for the set-free group (``_group_params``), the rows of
    ``_CHECK_TASKS`` that the group runs and that compute a check of the
    selected suites, keyed by their names; then, for each set, one task
    per angular sector n, keyed by n, if a selected suite reads the
    generator blocks."""
    out = []
    for index in range(len(config.param_sets) + 1):
        p = _group_params(config, index)
        out += [(index, key) for key, (_, checks, runs) in _CHECK_TASKS.items() if runs(p) and _selected(config, checks)]
        if p is not None and _selected(config, _SECTOR_CHECKS):
            out += [(index, n) for n in range(config.truncation[1] + 1)]
    return out


def _run_task(config: SuiteConfig, task: tuple) -> tuple:
    """One task, in this process: ({check: (residual or sector part, ms
    charged to the check)}, ms of the generator-block build).  A check
    whose computation raises gets its ``_TaskError`` in place of a value.

    A check task runs its function on the workspace of its group (set
    parameters None for the set-free group); one that computes several
    checks charges each an equal share of its time.  A sector task builds
    sector n's eight blocks, reduces them to the parts of the selected
    checks that read them, each timed on its own, and drops them."""
    index, key = task
    ws = _Workspace(_group_params(config, index), config)
    checks = _task_checks(config, key)
    if isinstance(key, str):
        value, ms = _timed(_CHECK_TASKS[key][0], ws)
        values = value if isinstance(value, dict) else dict.fromkeys(checks, value)
        return {c: (v, ms / len(values)) for c, v in values.items()}, 0.0
    built, build_ms = _timed(gen.sector_matrices, ws.params, key, config.truncation[0], *config.quad_orders)
    if isinstance(built, _TaskError):
        return dict.fromkeys(checks, (built, 0.0)), build_ms
    return {c: _timed(_SECTOR_CHECKS[c], ws, key, *built) for c in checks}, build_ms


def _group_records(config: SuiteConfig, index: int, outputs: list) -> tuple[dict, float]:
    """The records of group ``index`` (a parameter set, or the set-free
    group one past the last) from the outputs of its tasks, in task
    order: {suite: records}, and the group's generator-block build time
    in ms.

    A check's value is the worst of its parts, taken per relation for a
    group, and its record carries the task time charged to it; the
    records of a group share it equally, and ``susy-anticommutator``,
    read off ``structure``, carries none.  The records follow
    ``_CHECKS``, with each check that a task of the group computed; a
    check whose computation raised ends its suite with a failed
    ``<suite>-suite`` record."""
    p = _group_params(config, index)
    label = None if p is None else _params_label(p)
    parts: dict[str, list] = {}
    charged: dict[str, float] = {}
    build_ms = 0.0
    for task_parts, ms in outputs:
        build_ms += ms
        for check, (part, part_ms) in task_parts.items():
            parts.setdefault(check, []).append(part)
            charged[check] = charged.get(check, 0.0) + part_ms
    values = {}
    for check, check_parts in parts.items():
        failed = [part for part in check_parts if isinstance(part, _TaskError)]
        values[check] = failed[0] if failed else (_worst_per_name if isinstance(check_parts[0], dict) else _worst)(check_parts)
    if isinstance(values.get("structure"), dict):
        # {Q, Qdag} = Hs is, in units of omega, 4 times the structure relation {V-, W+} = K0 + Y
        values["susy-anticommutator"] = 4.0 * values["structure"]["{V-,W+} = +1 K0 +1 Y"]
    results = {}
    for suite in config.selected():
        records = results[suite] = []
        for check, claim, tol_key in _CHECKS[suite]:
            if check not in values:
                continue
            value, wall_ms, tol = values[check], charged.get(check, 0.0), config.tol(tol_key)
            if isinstance(value, _TaskError):
                records.append(_suite_failure(suite, value.args[0], wall_ms))
                break
            if claim is None:
                share = wall_ms / max(len(value), 1)
                records += [_record(suite, f"{check}[{name}]", name, label, res, tol, share) for name, res in value.items()]
            else:
                records.append(_record(suite, check, claim, label, value, tol, wall_ms))
    return results, build_ms


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


def _worker(config: SuiteConfig, tasks: list, queues: list, out: int) -> None:
    """A forked worker: for each of the ``queues`` in turn, its own first,
    until that queue is empty, take a task index from it, append the
    index (4 bytes) to its file ``out``, run the task, and append the
    task's output pickled, after the pickle's length (8 bytes).  It
    never returns."""
    status = 1
    try:
        with os.fdopen(out, "wb") as stream:
            for queue in queues:
                while chunk := os.read(queue, 4):
                    stream.write(chunk)
                    stream.flush()
                    data = pickle.dumps(_run_task(config, tasks[int.from_bytes(chunk, "little")]))
                    stream.write(len(data).to_bytes(8, "little") + data)
                    stream.flush()
        status = 0
    except BaseException:
        traceback.print_exc()
        raise
    finally:
        os._exit(status)


def _read_outputs(stream) -> tuple[dict, int | None]:
    """The outputs in a worker's file (``_worker``), read from its start:
    ({task index: output}, the index of a task whose output is cut short
    or missing, because the worker died running or answering it, or
    None)."""
    outputs = {}
    while len(chunk := stream.read(4)) == 4:
        i = int.from_bytes(chunk, "little")
        head = stream.read(8)
        data = stream.read(int.from_bytes(head, "little")) if len(head) == 8 else b""
        if len(head) < 8 or len(data) < int.from_bytes(head, "little"):
            return outputs, i
        outputs[i] = pickle.loads(data)
    return outputs, None


def _run_tasks(config: SuiteConfig, tasks: list) -> list:
    """The ``_run_task`` output of every task; a task lost with a worker
    that died gives each of its checks the worker's ``_TaskError``, as a
    raise does.

    With more than one task and usable CPU, W = min(tasks, usable CPUs)
    workers are forked with ``os.fork``, so each starts from this
    process's state, the config, the quadrature caches and any
    monkeypatches included, without a fresh import.  (Python 3.12 and
    later warn when a process that runs threads, such as OpenBLAS's
    pool, forks.)  The tasks are dealt by their index (``_tasks``): the
    indices of the tasks of groups w, w + W, ... wait in pipe w, so the
    set-free group's tasks, indexed one past the last set, wait behind the
    sets of their pipe.  Worker w takes the next index from its own pipe
    whenever it is free, and once that is empty, from the other pipes in
    turn (w + 1, w + 2, ...); so each worker builds the Gauss rules,
    grids and angular row of its own sets once (``model.Grid``), and
    meets another set's only for the tasks it takes over at the end.
    Each index is 4 bytes, and pipe writes of at most PIPE_BUF (>= 512)
    bytes are atomic, so a worker always reads whole indices.  Each
    worker appends its outputs to an unnamed file of its own
    (``os.memfd_create``), which never fills, so no worker waits on it.
    This process runs no task of its own: it waits for every worker,
    and then reads each file (``_read_outputs``).  Tasks that no worker
    took, because none could be started or every one died, run here.  With one usable CPU, or without ``os.fork`` or
    ``os.memfd_create``, every task runs here, one after the other."""
    can_fork = hasattr(os, "fork") and hasattr(os, "memfd_create")
    workers = min(len(tasks), _usable_cpus()) if can_fork else 1
    if workers < 2:
        return [_run_task(config, task) for task in tasks]
    pipes = [os.pipe() for _ in range(workers)]
    queues = [read for read, _ in pipes]
    files: dict[int, int] = {}
    for w in range(workers):
        out = -1
        try:
            out = os.memfd_create("ttwsusy-worker")
            pid = os.fork()
        except OSError:  # no further worker can be started
            if out >= 0:
                os.close(out)
            break
        if pid == 0:
            for inherited in (*(write for _, write in pipes), *files.values()):
                os.close(inherited)
            _worker(config, tasks, queues[w:] + queues[:w], out)
        files[pid] = out
    for w, (_, queue_in) in enumerate(pipes):
        indices = b"".join(i.to_bytes(4, "little") for i, (index, _) in enumerate(tasks) if index % workers == w)
        for start in range(0, len(indices), 512):
            os.write(queue_in, indices[start : start + 512])
        os.close(queue_in)
    outputs: list = [None] * len(tasks)
    failed = None
    for pid, out in files.items():
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        with os.fdopen(out, "rb") as stream:
            stream.seek(0)
            done, lost = _read_outputs(stream)
        for i, output in done.items():
            outputs[i] = output
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            failed = _TaskError(f"worker process {pid} failed: {how}")
            if lost is not None:
                outputs[lost] = failed
    for queue in queues:
        while chunk := os.read(queue, 4):
            i = int.from_bytes(chunk, "little")
            outputs[i] = _run_task(config, tasks[i])
        os.close(queue)
    # a worker that died between taking a task and appending its index left no output and named no task;
    # each check of a lost task gets the error of its worker
    outputs = [failed if output is None else output for output in outputs]
    return [(dict.fromkeys(_task_checks(config, key), (out, 0.0)), 0.0) if isinstance(out, _TaskError) else out for (_, key), out in zip(tasks, outputs)]


def run(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; failures are recorded, never raised.

    Every check is computed by a task (``_tasks``) of one group: a
    parameter set, or the set-free group of specfun and
    ``oscillator-realization``.  A check task is a row of
    ``_CHECK_TASKS``; each set also has one task per angular sector,
    which builds that sector's generator blocks, reduces them to its part
    of each check that reads them and drops them.  The tasks run in
    forked workers when there are several and several usable CPUs (see
    ``_run_tasks``), else in this process; either way this process builds
    each group's records from its task values (``_group_records``), so
    they are the same wherever its tasks ran, and a group's records
    depend on that group and the config's seed alone.  The records are
    merged by one rule: suite by suite, in the order of ``_CHECKS``, each
    group's records in parameter-set order, the set-free group last, so
    the oscillator check comes after the algebra suite's per-set checks.

    A check's ``wall_ms`` is the task time charged to it.  A check task
    that computes several checks (``eigenvalue-residual`` and
    ``spectrum`` share their state bundles, ``riccati`` and
    ``riccati-control`` one task, and each set's special cases another)
    charges each an equal share.  A sector task's block build is charged
    to no check: the builds are summed per parameter set in
    ``matrices_ms``; each reduction of a sector's blocks is charged to
    its check, summed over the sectors.  The records of a group, such as
    ``structure[...]``, share their check's time equally, and
    ``susy-anticommutator`` carries none.

    One failure rule holds: a task that raises, or that is lost with a
    dead worker, gives each of its checks a ``_TaskError``, which ends
    that group's part of the check's suite with one failed
    ``<suite>-suite`` record, after the suite's earlier checks; every
    other record is kept.  A run in which nothing raises is not touched
    by this rule: its report lists every check in the order above.
    """
    tasks = _tasks(config)
    with _one_blas_thread():
        outputs = _run_tasks(config, tasks)
    groups = []
    for index in range(len(config.param_sets) + 1):
        outs = [out for (i, _), out in zip(tasks, outputs) if i == index]
        groups.append(_group_records(config, index, outs))
    records = [record for suite in config.selected() for results, _ in groups for record in results[suite]]
    matrices_ms = {_params_label(p): build_ms for p, (_, build_ms) in zip(config.models(), groups) if build_ms}
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
