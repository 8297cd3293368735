"""Verification-suite orchestration, configuration and reporting.

``run`` executes the selected check suites over a list of parameter
sets, records one residual per check, and never aborts on a failed
check.  The report lists the suites in dependency order (specfun ->
model -> algebra -> irreps -> special-cases), each suite's checks in
parameter-set order.  Reports are deterministic for a fixed config and
seed (wall-clock fields aside) and can be rendered as JSON or a text
table.

The parameter sets share nothing but the order of the report.  So the
model, algebra and irreps checks of one set run as one job
(``_set_job``) with its own matrix workspace, and with several sets and
several usable CPUs the jobs run in forked worker processes while this
process runs specfun, the parameter-free oscillator-realization check
and special-cases (whose sets draw their points from one random
generator in sequence).  With one set, one usable CPU or no fork start
method the jobs run here, one after the other; the records are the
same either way.

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
import json
import math
import numbers
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import generators as gen
from . import irreps, model, special_cases, specfun
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
    finite real numbers that ``ModelParams`` accepts."""
    if not isinstance(ps, dict):
        raise ValueError(f"a parameter set must be a mapping of k, a, b, omega, got {ps!r}")
    problems = [f"unknown key {key!r}" for key in sorted(set(ps) - {"k", "a", "b", "omega"}, key=str)]
    problems += [f"missing key {key!r}" for key in sorted({"k", "a", "b"} - set(ps))]
    if problems:
        raise ValueError(f"parameter set {ps!r}: " + ", ".join(problems))
    for key, value in ps.items():
        if not (_is_real(value) and math.isfinite(value)):
            raise ValueError(f"parameter set {ps!r}: {key} must be a finite real number, got {value!r}")
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
        for ps in self.param_sets:
            _check_param_set(ps)
        self.param_sets = tuple(dict(ps) for ps in self.param_sets)
        _check_int_pair("truncation", self.truncation, 2)
        _check_int_pair("quad_orders", self.quad_orders, 1)
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance key {name!r}")
            if not (_is_real(tol) and math.isfinite(tol) and tol >= 0):
                raise ValueError(f"tolerance {name!r} must be a finite nonnegative real number, got {tol!r}")
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
        kwargs = {}
        if "param_sets" in data:
            kwargs["param_sets"] = data["param_sets"]
        for key in ("truncation", "quad_orders"):
            if key in data:
                kwargs[key] = tuple(data[key]) if isinstance(data[key], list) else data[key]
        if "tolerances" in data:
            if not isinstance(data["tolerances"], dict):
                raise ValueError(f"tolerances must be a mapping of tolerance keys to numbers, got {data['tolerances']!r}")
            kwargs["tolerances"] = dict(data["tolerances"])
        if "suites" in data:
            if not isinstance(data["suites"], list):
                raise ValueError(f"suites must be a list of suite names, got {data['suites']!r}")
            kwargs["suites"] = tuple(data["suites"])
        if "seed" in data:
            kwargs["seed"] = data["seed"]
        return cls(**kwargs)


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
    # wall time of each parameter set's generator-matrix build, which no check is charged for
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


def _worst_per_name(results) -> dict[str, float]:
    """Each name's ``_worst`` over a sequence of {name: residual} dicts,
    one per sector."""
    per_name: dict[str, list] = {}
    for result in results:
        for name, res in result.items():
            per_name.setdefault(name, []).append(res)
    return {name: _worst(res) for name, res in per_name.items()}


def _images(names, table: FactorTable, state):
    """The state's field and its images under the named operators at the
    table's points, all from one bundle of the state."""
    bundle = table.bundle(state)
    return bundle.val, [gen.apply_operator(g, bundle, table.params, table.r, table.phi) for g in names]


def _sectors(blocks: list, basis: list, mask: np.ndarray):
    """(n, block, mask restricted to the block's states) for every sector
    n whose part of ``mask`` is nonempty."""
    sectors = np.array([s.n for s in basis])
    for n, block in enumerate(blocks):
        inner = mask[sectors == n]
        if inner.any():
            yield n, block, inner


class _Workspace:
    """Per-parameter-set cache of expensive intermediates."""

    def __init__(self, params: ModelParams, config: SuiteConfig):
        self.params = params
        self.config = config
        self._blocks = None
        self._basis = None
        self.build_ms = 0.0

    @property
    def matrices(self):
        """(per-sector generator blocks, basis), built on first use."""
        if self._blocks is None:
            m_rad, m_ang = self.config.quad_orders
            t0 = time.perf_counter()
            self._blocks, self._basis = gen.generator_matrices(self.params, self.config.truncation, m_rad, m_ang)
            self.build_ms = (time.perf_counter() - t0) * 1e3
        return self._blocks, self._basis


# ---------------------------------------------------------------------------
# Individual checks.  Each yields (name, claim, params_label, residual, tol_key).


# The series oracles import ``fractions`` when they run: it loads ``decimal``,
# 0.45 MB of peak memory that runs without the specfun suite need not pay.


def _binom_frac(top: numbers.Rational, m: int) -> numbers.Rational:
    c = 1
    for i in range(1, m + 1):
        c *= (top - m + i) / i
    return c


def _common_denominator(coeffs: list[numbers.Rational]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator D, and D."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _series_laguerre(N, alpha, z):
    """Series-sum oracle with exact rational coefficients (and exact
    rational argument), immune to the cancellation that a float series
    suffers at large z.  The coefficients are built once per call and
    put over one common denominator D; each sample z = m/d (d a power of
    two) is summed exactly in integers by Horner's rule as
    sum_j D c_j m^j d^(N-j) and rounded once after dividing by D d^N."""
    from fractions import Fraction

    af = Fraction(alpha)
    nums, den = _common_denominator(
        [Fraction(-1) ** j / math.factorial(j) * _binom_frac(af + N, N - j) for j in range(N + 1)]
    )
    out = []
    for zv in np.atleast_1d(z):
        m, d = float(zv).as_integer_ratio()
        acc, d_pow = nums[N], 1
        for c in reversed(nums[:N]):
            d_pow *= d
            acc = acc * m + c * d_pow
        out.append(float(Fraction(acc, den * d_pow)))
    return np.array(out)


def _series_jacobi(n, alpha, beta, x):
    """Exact series oracle sum_j c_j ((x-1)/2)^j ((x+1)/2)^(n-j), summed
    like ``_series_laguerre``: with x = m/d the two factors are
    (m -+ d) / (2d), so the sum is an integer over D (2d)^n."""
    from fractions import Fraction

    af, bf = Fraction(alpha), Fraction(beta)
    nums, den = _common_denominator([_binom_frac(af + n, n - j) * _binom_frac(bf + n, j) for j in range(n + 1)])
    out = []
    for xv in np.atleast_1d(x):
        m, d = float(xv).as_integer_ratio()
        lo, hi = [1], [1]
        for _ in range(n):
            lo.append(lo[-1] * (m - d))
            hi.append(hi[-1] * (m + d))
        acc = sum(c * lo[j] * hi[n - j] for j, c in enumerate(nums))
        out.append(float(Fraction(acc, den * (2 * d) ** n)))
    return np.array(out)


def _checks_specfun(config: SuiteConfig):
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


def _checks_model(config: SuiteConfig):
    """Orthonormality is an integral, taken as products of 1-D radial and
    angular Gauss sums (``generators.wavefunction_gram``); the eigenvalue
    residual is a field identity, checked pointwise on the sector grids."""
    m_rad, m_ang = config.quad_orders
    for p in config.models():
        label = _params_label(p)
        gram = gen.wavefunction_gram(p, (6, 6), m_rad, m_ang)
        res = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        yield ("orthonormality", "Gram matrix of the normalized eigenfunctions is the identity", label, res, "model.orthonormality")

        res = []
        for n in range(7):
            grid = Grid.for_sector(p, n, m_rad=m_rad, m_ang=m_ang)
            table = FactorTable(p, grid.r, grid.phi)
            # top level first: the table's one radial pass then serves every N
            for N in reversed(range(7)):
                fv, (hv,) = _images(("H",), table, irreps.zero_fermion_state(p, N, n))
                res.append(np.max(np.abs(hv - model.energy(p, N, n) * fv)) / np.max(np.abs(fv)))
        yield ("eigenvalue-residual", "H_k Psi_{N,n} = 2 omega [2N + (2n+a+b)k + 1] Psi_{N,n}", label, _worst(res), "model.eigenvalue")

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


def _checks_algebra(config: SuiteConfig, workspaces: dict):
    m_rad, m_ang = config.quad_orders
    for p in config.models():
        label = _params_label(p)
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

        blocks, basis = workspaces[label].matrices
        interior = gen.interior_mask(basis, config.truncation)
        structure = _worst_per_name(
            {c.name: c.residual for c in gen.check_structure_constants(block, inner)}
            for _, block, inner in _sectors(blocks, basis, interior)
        )
        for name, res in structure.items():
            yield (f"structure[{name}]", name, label, res, "algebra.structure")
        for name, res in _worst_per_name(gen.hermiticity_residuals(block) for block in blocks).items():
            yield (f"hermiticity[{name}]", name, label, res, "algebra.hermiticity")

        res = []
        for n in range(7):
            grid = Grid.for_sector(p, n, m_rad=m_rad, m_ang=m_ang)
            table = FactorTable(p, grid.r, grid.phi)
            for N in reversed(range(7)):  # top level first, as in eigenvalue-residual
                fv, (hv,) = _images(("Hs",), table, irreps.zero_fermion_state(p, N, n))
                target = 4.0 * p.omega * (N + n * p.k)
                res.append(np.max(np.abs(hv - target * fv)) / max(np.max(np.abs(fv)), 1.0))
        yield ("spectrum", "Hs Psi_{N,n}|0> = 4 omega (N + nk) Psi_{N,n}|0>", label, _worst(res), "algebra.spectrum")

        res = []
        grid = Grid.for_sector(p, 1, m_rad=m_rad, m_ang=m_ang)
        table = FactorTable(p, grid.r, grid.phi)
        for st in (irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("+", p, 0, 1)):
            bundle = table.bundle(st)
            h1 = gen.apply_operator("Hs", bundle, p, grid.r, grid.phi)
            h2 = gen.hamiltonian_super(bundle, p, grid.r, grid.phi)
            res.append(np.max(np.abs(h1 - h2)) / max(np.max(np.abs(h1)), 1.0))
        yield (
            "hs-routes",
            "H_k + 4 omega (Gamma + Y) equals 4 omega (K0 + Y) built from the superpotential",
            label,
            _worst(res),
            "algebra.routes",
        )

        grid0 = Grid.for_sector(p, 0, m_rad=m_rad, m_ang=m_ang)
        table = FactorTable(p, grid0.r, grid0.phi)
        _, (qf, qdf) = _images(("Q", "Qdag"), table, irreps.zero_fermion_state(p, 0, 0))
        yield (
            "susy-ground",
            "Q and Qdag annihilate the ground state (unbroken supersymmetry)",
            label,
            _worst([np.max(np.abs(qf)), np.max(np.abs(qdf))]),
            "algebra.susy-ground",
        )

        # {Q, Qdag} = Hs is 4 omega times the structure relation {V-, W+} = K0 + Y
        anti = structure["{V-,W+} = +1 K0 +1 Y"]
        yield ("susy-anticommutator", "{Q, Qdag} = Hs with Q = 2 sqrt(omega) W+, Qdag = 2 sqrt(omega) V-", label, 4.0 * p.omega * anti, "algebra.susy-anticommutator")

        rng = np.random.default_rng(config.seed)
        r = rng.uniform(0.5, 2.0, 40)
        phi_s = rng.uniform(0.1, 0.9, 40) * p.phi_max
        res = []
        for st in (irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("-", p, 1, 1)):
            d = gen.dilation_identity_residuals(st, p, r, phi_s)
            res += [d["D"], d["Gamma"]]
        yield (
            "scaling-conditions",
            "D and Gamma are homogeneous of degree -2 in r (integrated form of [r d_r, O] = -2 O)",
            label,
            _worst(res),
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


def _checks_irreps(config: SuiteConfig, workspaces: dict):
    """Ladder and Casimir checks read the generator blocks.  The integrals
    (the <+|-> overlaps and the cross-sector elements of block-diagonality)
    are projected from 1-D Gauss sums with ``generators.project``; the
    odd actions, the n = 0 family coincidence and the vanishing two-fermion
    states are field identities, checked pointwise on the grids."""
    m_rad, m_ang = config.quad_orders
    N_max, n_max = config.truncation
    for p in config.models():
        label = _params_label(p)
        blocks, basis = workspaces[label].matrices
        tau_off = {"zero": 0.0, "lower": -0.5, "upper": 0.5, "double": 0.0}

        res = []
        sign_ok = True
        for n, block in enumerate(blocks):
            states = [s for s in basis if s.n == n]
            index = {(s.family, s.level): i for i, s in enumerate(states)}
            for s in states:
                if s.level + 1 > N_max:
                    continue
                tau_fam = irreps.weights_of(p, n).tau + tau_off[s.family]
                expect = irreps.k_ladder_coeff("+", tau_fam, s.level)
                measured = block["K+"][index[s.family, s.level + 1], index[s.family, s.level]]
                sign_ok = sign_ok and measured > 0
                res.append(abs(measured - expect) / expect)
        yield (
            "ladder-matrix-elements",
            "K+ rungs equal sqrt((N+1)(2 tau + N)) with positive sign in every tower",
            label,
            _worst(res) if sign_ok else float("inf"),
            "irreps.ladder",
        )

        res = []
        for n in (0, 1, min(2, n_max)):
            grid = Grid.for_sector(p, n, odd=True, m_rad=m_rad, m_ang=m_ang)
            table = FactorTable(p, grid.r, grid.phi)
            grid_e = Grid.for_sector(p, n, odd=False, m_rad=m_rad, m_ang=m_ang)
            table_e = FactorTable(p, grid_e.r, grid_e.phi)
            for N in (0, 1, 3):
                st = irreps.zero_fermion_state(p, N, n)
                _, v_outs = _images(("V+", "V-"), table, st)
                for sign, out in zip(("+", "-"), v_outs):
                    ref = table.field(irreps.v_action(sign, p, N, n))
                    scale = max(np.max(np.abs(ref)), 1.0)
                    res.append(np.max(np.abs(out - ref)) / scale)
                _, w_outs = _images(("W+", "W-"), table_e, st)
                res += [np.max(np.abs(wout)) for wout in w_outs]
        yield (
            "odd-action-fields",
            "V+- on zero-fermion states reproduce their closed-form expansions; W+- annihilate them",
            label,
            _worst(res),
            "irreps.odd-action",
        )

        res = []
        for n in range(1, min(4, n_max) + 1):
            grid = Grid.for_sector(p, n, odd=True, m_rad=m_rad, m_ang=m_ang)
            plus = [irreps.one_fermion_state("+", p, N - 1, n) for N in range(1, 6)]
            minus = [irreps.one_fermion_state("-", p, N, n) for N in range(1, 6)]
            measured = np.diag(gen.project(("1",), plus, minus, grid)["1"])
            res += [abs(m - irreps.overlap(p, N, n)) for N, m in enumerate(measured, start=1)]
        grid = Grid.for_sector(p, 0, odd=True, m_rad=m_rad, m_ang=m_ang)
        table = FactorTable(p, grid.r, grid.phi)
        for N in range(1, 5):
            plus = table.field(irreps.one_fermion_state("+", p, N - 1, 0))
            minus = table.field(irreps.one_fermion_state("-", p, N, 0))
            res.append(np.max(np.abs(plus - minus)))
        grid_e = Grid.for_sector(p, 0, odd=False, m_rad=m_rad, m_ang=m_ang)
        table = FactorTable(p, grid_e.r, grid_e.phi)
        for N in range(3):
            two = irreps.two_fermion_state(p, N, 0)
            res.append(0.0 if two.is_zero else np.max(np.abs(table.field(two))))
        yield (
            "one-fermion-overlap",
            "<+|-> = sqrt(N[N+(2n+a+b)k] / ([N+(n+a+b)k][N+nk])); at n = 0 the one-fermion "
            "families coincide and the two-fermion states vanish",
            label,
            _worst(res),
            "irreps.overlap",
        )

        # C2, C3 and [C2, G] one sector block at a time
        interior2 = gen.interior_mask(basis, config.truncation, depth=2)
        res = []
        for n, block, inner in _sectors(blocks, basis, interior2):
            c2, c3 = irreps.casimir_matrices(block)
            c2_th, c3_th = irreps.casimir_eigenvalues(p, n)
            eye = np.eye(int(inner.sum()))
            res.append(np.max(np.abs(c2[np.ix_(inner, inner)] - c2_th * eye)))
            res.append(np.max(np.abs(c3[np.ix_(inner, inner)] - c3_th * eye)))
            for gname in gen.GENERATOR_NAMES:
                g = block[gname]
                res.append(np.max(np.abs(c2[inner] @ g[:, inner] - g[inner] @ c2[:, inner])))
        yield (
            "casimir",
            "C2 and C3 are scalar n(n+a+b)k^2 and -(a+b)n(n+a+b)k^3/2 per sector (zero at n = 0); C2 commutes with all generators",
            label,
            _worst(res),
            "irreps.casimir",
        )

        # every cross-sector element <s1|G|s2> between the level-1 states of
        # the families of one fermion parity, one projection per generator
        res = []
        for n1, n2 in ((0, 1), (1, 2), (0, 2)):
            if max(n1, n2) > n_max:
                continue
            for odd in (False, True):
                grid = Grid.for_pair(p, n1, n2, m_rad, m_ang, odd=odd)
                fam = ("lower", "upper") if odd else ("zero", "double")
                rows, cols = (
                    [s.state for s in irreps.sector_basis(p, n, 1) if s.level == 1 and s.family in fam] for n in (n1, n2)
                )
                for m in gen.project(("K0", "K+", "Y"), rows, cols, grid).values():
                    res.append(np.max(np.abs(m)))
        yield (
            "block-diagonality",
            "generators do not couple different angular sectors (projected cross-sector matrix elements vanish)",
            label,
            _worst(res),
            "irreps.block-diagonal",
        )


def _checks_special(config: SuiteConfig):
    rng = np.random.default_rng(config.seed)
    n_pts = 200
    for p in config.models():
        label = _params_label(p)
        if p.k == 1.0:
            yield ("sw-pointwise", "cartesian Hs and Q at k = 1 equal the polar construction", label, _cartesian_agreement(p, special_cases.sw_super, rng, n_pts), "special.pointwise")
            r = rng.uniform(0.5, 2.0, 50)
            phi = rng.uniform(0.1, 0.9, 50) * p.phi_max
            x, y = r * np.cos(phi), r * np.sin(phi)
            res = float(np.max(np.abs(special_cases.sw_superpotential(p, x, y) - gen.superpotential(p, r, phi))))
            yield ("sw-superpotential", "-a ln|x| - b ln|y| equals the polar superpotential at k = 1", label, res, "special.pointwise")
        elif p.k == 2.0:
            yield ("bc2-pointwise", "cartesian Hs and Q at k = 2 equal the polar construction on 0 < y < x", label, _cartesian_agreement(p, special_cases.bc2_super, rng, n_pts), "special.pointwise")
            r = rng.uniform(0.5, 2.0, 50)
            phi = rng.uniform(0.1, 0.9, 50) * p.phi_max
            x, y = r * np.cos(phi), r * np.sin(phi)
            diff = special_cases.bc2_superpotential(p, x, y) - gen.superpotential(p, r, phi)
            res = float(np.max(np.abs(diff - p.b * math.log(2.0))))
            yield ("bc2-superpotential", "pair/axis superpotential equals the polar one plus the constant b ln 2", label, res, "special.pointwise")
        elif p.k == 3.0:
            yield from _checks_cmw(p, label, rng, n_pts)


def _cartesian_agreement(p: ModelParams, cart_fn, rng, n_pts: int) -> float:
    r = rng.uniform(0.4, 2.2, n_pts)
    phi = rng.uniform(0.08, 0.92, n_pts) * p.phi_max
    x, y = r * np.cos(phi), r * np.sin(phi)
    states = [
        special_cases.CatalogTestSpinor(irreps.zero_fermion_state(p, 1, 1)),
        special_cases.CatalogTestSpinor(irreps.one_fermion_state("+", p, 0, 1)),
        special_cases.CatalogTestSpinor(irreps.one_fermion_state("-", p, 1, 2)),
        special_cases.CatalogTestSpinor(irreps.two_fermion_state(p, 1, 1)),
        special_cases.random_polygauss(rng, p.omega),
        special_cases.random_polygauss(rng, p.omega),
    ]
    res = []
    for st in states:
        cart = st.cart_data(p, r, phi)
        h_c, q_c = cart_fn(p, cart, x, y)
        bundle = st.polar_bundle(p, r, phi)
        h_p = gen.apply_operator("Hs", bundle, p, r, phi)
        q_p = gen.apply_operator("Q", bundle, p, r, phi)
        res.append(np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0))
        res.append(np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0))
    return _worst(res)


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

    res = []
    for rel in (
        special_cases.CatalogTestSpinor(irreps.zero_fermion_state(p, 1, 1)),
        special_cases.CatalogTestSpinor(irreps.one_fermion_state("+", p, 0, 2)),
        special_cases.random_polygauss(rng, p.omega),
    ):
        cm = rng.uniform(-1.0, 1.0, size=(2, 3))
        data = special_cases.make_cmw_test_state(rel, cm, p, r, phi, X)
        h_f, q_f = special_cases.cmw_super(p, data)
        h_r, q_r = special_cases.cmw_rel_super(p, data)
        h_c, q_c = special_cases.cm_super(p, data)
        res.append(np.max(np.abs(h_f - h_r - h_c)) / max(np.max(np.abs(h_f)), 1.0))
        res.append(np.max(np.abs(q_f - q_r - q_c)) / max(np.max(np.abs(q_f)), 1.0))
    yield ("cmw-split", "Hs and Q of the three-particle model split into relative + centre-of-mass parts", label, _worst(res), "special.pointwise")

    cm_vac = np.zeros((2, 2))
    cm_vac[0, 0] = 1.0
    chi = np.exp(-0.5 * p.omega * X**2)
    cm_field = np.stack([chi, np.zeros_like(chi)])
    res = []
    table = FactorTable(p, r, phi)
    for st in (irreps.zero_fermion_state(p, 2, 1), irreps.one_fermion_state("+", p, 1, 1)):
        data = special_cases.make_cmw_test_state(special_cases.CatalogTestSpinor(st), cm_vac, p, r, phi, X)
        h_r, q_r = special_cases.cmw_rel_super(p, data)
        _, (q_p, h_p) = _images(("Q", "Hs"), table, st)
        q_ref = special_cases.embed_product_values(q_p, cm_field)
        h_ref = special_cases.embed_product_values(h_p, cm_field)
        res.append(np.max(np.abs(q_r - q_ref)) / max(np.max(np.abs(q_ref)), 1.0))
        res.append(np.max(np.abs(h_r - h_ref)) / max(np.max(np.abs(h_ref)), 1.0))
    yield ("cmw-rel-vs-polar", "the relative part reproduces the polar k = 3 construction; Q_rel = 2 sqrt(omega) W+", label, _worst(res), "special.pointwise")

    data = special_cases.make_cmw_test_state(
        special_cases.CatalogTestSpinor(irreps.zero_fermion_state(p, 0, 0)), cm_vac, p, r, phi, X
    )
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


def _stopwatch(workspace: _Workspace | None = None):
    """A clock whose every reading is the ms since its previous reading (or
    its start), less the workspace's generator-matrix builds in between."""
    t_prev, built_prev = time.perf_counter(), 0.0

    def elapsed_ms() -> float:
        nonlocal t_prev, built_prev
        now, built = time.perf_counter(), workspace.build_ms if workspace else 0.0
        out = (now - t_prev) * 1e3 - (built - built_prev)
        t_prev, built_prev = now, built
        return out

    return elapsed_ms


def _collect(suite: str, produce, config: SuiteConfig, elapsed_ms) -> tuple[list[CheckRecord], bool]:
    """The records of one suite's checks from ``produce()``, and whether the
    suite raised: then it keeps the checks it already yielded and ends
    with a failed ``<suite>-suite`` record."""
    records = []
    try:
        for name, claim, plabel, residual, tol_key in produce():
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
                    wall_ms=elapsed_ms(),
                )
            )
    except Exception:
        records.append(_suite_failure(suite, traceback.format_exc(limit=2).strip().splitlines()[-1], elapsed_ms()))
        return records, True
    return records, False


def _set_job(config: SuiteConfig, index: int) -> tuple[dict, float]:
    """The selected model, algebra and irreps checks of parameter set
    ``index``, with a workspace of their own: {suite: (records, raised)},
    and the set's generator-matrix build time in ms.  ``run`` calls it in
    this process or in a forked worker; the records are the same."""
    one = replace(config, param_sets=(config.param_sets[index],))
    (p,) = one.models()
    workspace = _Workspace(p, one)
    workspaces = {_params_label(p): workspace}
    producers = {
        "model": lambda: _checks_model(one),
        "algebra": lambda: _checks_algebra(one, workspaces),
        "irreps": lambda: _checks_irreps(one, workspaces),
    }
    elapsed_ms = _stopwatch(workspace)
    results = {suite: _collect(suite, producers[suite], one, elapsed_ms) for suite in one.selected() if suite in producers}
    return results, workspace.build_ms


def _parent_checks(config: SuiteConfig) -> dict:
    """The checks that are not per-set jobs: specfun, the algebra suite's
    parameter-free oscillator check and special-cases, whose sets draw
    their points from one random generator in sequence.  {suite:
    (records, raised)}."""
    producers = {
        "specfun": lambda: _checks_specfun(config),
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


def _job_result(config: SuiteConfig, future) -> tuple[dict, float]:
    """A job's result from its future.  A job whose worker died, or that
    could not be queued, fails each of its suites with one
    ``<suite>-suite`` record."""
    try:
        return future.result()
    except Exception as exc:
        error = f"worker process failed: {type(exc).__name__}: {exc}"
        return {s: ([_suite_failure(s, error, 0.0)], True) for s in config.selected() if s in PER_SET_SUITES}, 0.0


def _run_jobs(config: SuiteConfig, jobs: range) -> tuple[dict, list]:
    """(``_parent_checks``, the ``_set_job`` result of every job index).

    With more than one job and usable CPU, the jobs go to a pool of
    min(jobs, usable CPUs) forked workers while this process runs its own
    checks.  Fork, not spawn: a worker starts from this process's state,
    the config and any monkeypatches included, without paying for a
    fresh import.  (Python 3.12 and later warn when a process that runs
    threads, such as OpenBLAS's pool, forks.)  Otherwise the jobs run
    here, one after the other."""
    workers = min(len(jobs), _usable_cpus())
    if workers > 1:
        # imported here, so that importing the package does not load them
        import concurrent.futures
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                futures = []
                for i in jobs:
                    try:
                        futures.append(pool.submit(_set_job, config, i))
                    except Exception as exc:  # no worker could be started, or the pool broke first
                        futures.append(concurrent.futures.Future())
                        futures[-1].set_exception(exc)
                parent = _parent_checks(config)
                return parent, [_job_result(config, f) for f in futures]
    return _parent_checks(config), [_set_job(config, i) for i in jobs]


def run(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; failures are recorded, never raised.

    The model, algebra and irreps checks of each parameter set run as one
    job, in forked workers when there are several sets and several
    usable CPUs (see ``_run_jobs``); the rest run in this process.  The
    records are merged suite by suite, each suite's in parameter-set
    order, with the oscillator check after the algebra suite's per-set
    checks.

    Each check is timed from the previous record of its process's stream
    (this process's checks, or one job's) to the moment its suite yields
    it, minus any generator-matrix build that happened in between: those
    builds are reported per parameter set in ``matrices_ms``.  A suite
    that raises in a set keeps its records of the earlier sets and the
    checks it already yielded in that set, and adds one failed
    ``<suite>-suite`` record; its later sets, and the oscillator check
    after a failed algebra set, are dropped.  A job whose worker dies
    fails each of its suites in the same way.
    """
    jobs = range(len(config.param_sets)) if set(PER_SET_SUITES) & set(config.selected()) else range(0)
    parent, per_set = _run_jobs(config, jobs)
    records: list[CheckRecord] = []
    for suite in config.selected():
        raised = False
        if suite in PER_SET_SUITES:
            for results, _ in per_set:
                suite_records, raised = results[suite]
                records += suite_records
                if raised:
                    break
        if not raised and suite in parent:
            records += parent[suite][0]
    matrices_ms = {_params_label(p): build_ms for p, (_, build_ms) in zip(config.models(), per_set) if build_ms}
    return VerificationReport(config, records, matrices_ms)


def _parse_param(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"bad --param entry {part!r}; expected key=value")
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in ("k", "a", "b", "omega"):
            raise argparse.ArgumentTypeError(f"unknown parameter {key!r}")
        out[key] = float(val)
    missing = {"k", "a", "b"} - set(out)
    if missing:
        raise argparse.ArgumentTypeError(f"--param is missing {sorted(missing)}")
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))

    report = run(config)
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return min(report.n_failed, 120)


if __name__ == "__main__":
    sys.exit(main())
