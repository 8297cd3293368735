"""Verification-suite orchestration, configuration and reporting.

``run`` executes the selected check suites in dependency order
(specfun -> model -> algebra -> irreps -> special-cases) over a list
of parameter sets, records one residual per check, and never aborts on
a failed check.  Reports are deterministic for a fixed config and seed
(wall-clock fields aside) and can be rendered as JSON or a text table.

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
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import generators as gen
from . import irreps, model, special_cases, specfun
from .model import Grid, ModelParams
from .states import state_field

__all__ = ["SuiteConfig", "CheckRecord", "VerificationReport", "run", "main"]

SUITES = ("specfun", "model", "algebra", "irreps", "special-cases")

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


@dataclass
class SuiteConfig:
    param_sets: tuple = DEFAULT_PARAM_SETS
    truncation: tuple[int, int] = (8, 6)
    quad_orders: tuple[int, int] = (80, 80)
    tolerances: dict = field(default_factory=dict)
    suites: tuple[str, ...] = ("all",)
    seed: int = 20260809

    def __post_init__(self):
        if not self.param_sets:
            raise ValueError("at least one parameter set is required")
        if self.truncation[0] < 2 or self.truncation[1] < 2:
            raise ValueError("truncation must be at least (2, 2)")
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance key {name!r}")
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError("tolerances must be finite and nonnegative")
        bad = set(self.suites) - set(SUITES) - {"all"}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")

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
        kwargs = {}
        if "param_sets" in data:
            kwargs["param_sets"] = tuple(dict(ps) for ps in data["param_sets"])
        for key in ("truncation", "quad_orders"):
            if key in data:
                kwargs[key] = tuple(data[key])
        if "tolerances" in data:
            kwargs["tolerances"] = dict(data["tolerances"])
        if "suites" in data:
            kwargs["suites"] = tuple(data["suites"])
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
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


class _Workspace:
    """Per-parameter-set cache of expensive intermediates."""

    def __init__(self, params: ModelParams, config: SuiteConfig):
        self.params = params
        self.config = config
        self._mats = None
        self._basis = None
        self.build_ms = 0.0

    @property
    def matrices(self):
        if self._mats is None:
            m_rad, m_ang = self.config.quad_orders
            t0 = time.perf_counter()
            self._mats, self._basis = gen.generator_matrices(self.params, self.config.truncation, m_rad, m_ang)
            self.build_ms = (time.perf_counter() - t0) * 1e3
        return self._mats, self._basis


# ---------------------------------------------------------------------------
# Individual checks.  Each yields (name, claim, params_label, residual, tol_key).


def _binom_frac(top: Fraction, m: int) -> Fraction:
    c = Fraction(1)
    for i in range(1, m + 1):
        c *= (top - m + i) / i
    return c


def _series_laguerre(N, alpha, z):
    """Series-sum oracle with exact rational coefficients (and exact
    rational argument), immune to the cancellation that a float series
    suffers at large z."""
    af = Fraction(alpha)
    out = []
    for zv in np.atleast_1d(z):
        zf = Fraction(float(zv))
        total = Fraction(0)
        for j in range(N + 1):
            total += Fraction(-1) ** j / math.factorial(j) * _binom_frac(af + N, N - j) * zf**j
        out.append(float(total))
    return np.array(out)


def _series_jacobi(n, alpha, beta, x):
    af, bf = Fraction(alpha), Fraction(beta)
    out = []
    for xv in np.atleast_1d(x):
        xf = Fraction(float(xv))
        total = Fraction(0)
        for j in range(n + 1):
            total += (
                _binom_frac(af + n, n - j) * _binom_frac(bf + n, j) * ((xf - 1) / 2) ** j * ((xf + 1) / 2) ** (n - j)
            )
        out.append(float(total))
    return np.array(out)


def _checks_specfun(config: SuiteConfig):
    zgrid = np.linspace(0.05, 30.0, 41)
    xgrid = np.linspace(-0.999, 0.999, 41)
    res = 0.0
    for N in range(13):
        for alpha in (-0.4, 0.0, 0.7, 2.5, 10.0):
            ref = _series_laguerre(N, alpha, zgrid)
            val = specfun.laguerre(N, alpha, zgrid)
            res = max(res, np.max(np.abs(val - ref) / np.maximum(np.abs(ref), 1.0)))
    yield ("laguerre-recurrence", "three-term recurrence equals the explicit series sum", None, res, "specfun.recurrence")

    res = 0.0
    for n in range(13):
        for alpha, beta in ((-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0)):
            ref = _series_jacobi(n, alpha, beta, xgrid)
            val = specfun.jacobi(n, alpha, beta, xgrid)
            res = max(res, np.max(np.abs(val - ref) / np.maximum(np.abs(ref), 1.0)))
    yield ("jacobi-recurrence", "three-term recurrence equals the explicit series sum", None, res, "specfun.recurrence")

    h = 1e-6
    res = 0.0
    for N in (1, 2, 5, 9):
        for alpha in (0.0, 1.0, 3.5):
            z = np.linspace(0.5, 12.0, 9)
            fd = (specfun.laguerre(N, alpha, z + h) - specfun.laguerre(N, alpha, z - h)) / (2 * h)
            res = max(res, np.max(np.abs(specfun.laguerre_deriv(N, alpha, z) - fd)))
    for n in (1, 2, 5, 9):
        for ab in ((0.5, 0.5), (1.5, 2.5)):
            x = np.linspace(-0.9, 0.9, 9)
            fd = (specfun.jacobi(n, *ab, x + h) - specfun.jacobi(n, *ab, x - h)) / (2 * h)
            res = max(res, np.max(np.abs(specfun.jacobi_deriv(n, *ab, x) - fd)))
    yield (
        "derivative-identities",
        "dL_N/dz = -L_{N-1}^(alpha+1); dP_n/dx = (n+alpha+beta+1)/2 P_{n-1}^(alpha+1,beta+1)",
        None,
        res,
        "specfun.derivative",
    )

    res = 0.0
    for alpha in (0.0, 2.5, 14.2):
        rule = specfun.gauss_rule("gauss-laguerre", 12, alpha=alpha)
        for j in range(0, 24, 3):
            approx = float(np.sum(rule.weights * rule.nodes**j))
            exact = math.exp(specfun.log_gamma(alpha + j + 1.0))
            res = max(res, abs(approx / exact - 1.0))
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
                res = max(res, abs(approx / exact - 1.0))
    yield (
        "gauss-moments",
        "m-point rules integrate degree <= 2m-1 monomials against their weight (moments via log-gamma)",
        None,
        res,
        "specfun.quadrature",
    )


def _checks_model(config: SuiteConfig):
    m_rad, m_ang = config.quad_orders
    for p in config.models():
        label = _params_label(p)
        gram = model.wavefunction_gram(p, (6, 6), m_rad, m_ang)
        res = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        yield ("orthonormality", "Gram matrix of the normalized eigenfunctions is the identity", label, res, "model.orthonormality")

        res = 0.0
        for n in range(7):
            grid = Grid.for_sector(p, n, m_rad=m_rad, m_ang=m_ang)
            for N in range(7):
                st = irreps.zero_fermion_state(p, N, n)
                hv = gen.apply_hamiltonian(st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                res = max(res, float(np.max(np.abs(hv - model.energy(p, N, n) * fv)) / np.max(np.abs(fv))))
        yield ("eigenvalue-residual", "H_k Psi_{N,n} = 2 omega [2N + (2n+a+b)k + 1] Psi_{N,n}", label, res, "model.eigenvalue")

        res = 0.0
        for n in range(9):
            for N in range(9):
                res = max(res, abs(model.susy_energy(p, N, n) - (model.energy(p, N, n) - model.energy(p, 0, 0))))
                res = max(res, abs(model.susy_energy(p, N, n) - 4.0 * p.omega * (N + n * p.k)) / (1.0 + 4 * p.omega * (N + n * p.k)))
        w_res = max(abs(model.weights_of(p, n).tau + model.weights_of(p, n).q - n * p.k) for n in range(9))
        yield (
            "spectrum-identities",
            "E_{N,n} - E_{0,0} = 4 omega (N + nk); tau + q = nk (zero exactly at n = 0)",
            label,
            max(res, w_res),
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
        shortfall = max(0.0, 1e-3 - measured)
        yield (
            "riccati-control",
            "perturbing a -> a+0.01 inside F must break the identity by more than 1e-3 (shortfall reported)",
            label,
            shortfall,
            "algebra.riccati-control",
        )

        mats, basis = workspaces[label].matrices
        interior = gen.interior_mask(basis, config.truncation)
        for check in gen.check_structure_constants(mats, interior):
            yield (f"structure[{check.name}]", check.name, label, check.residual, "algebra.structure")
        for name, res in gen.hermiticity_residuals(mats).items():
            yield (f"hermiticity[{name}]", name, label, res, "algebra.hermiticity")

        res = 0.0
        for n in range(7):
            grid = Grid.for_sector(p, n, m_rad=m_rad, m_ang=m_ang)
            for N in range(7):
                st = irreps.zero_fermion_state(p, N, n)
                hv = gen.hamiltonian_super(st, p, grid.r, grid.phi)
                fv = state_field(st, p, grid.r, grid.phi)
                target = 4.0 * p.omega * (N + n * p.k)
                res = max(res, float(np.max(np.abs(hv - target * fv)) / max(np.max(np.abs(fv)), 1.0)))
        yield ("spectrum", "Hs Psi_{N,n}|0> = 4 omega (N + nk) Psi_{N,n}|0>", label, res, "algebra.spectrum")

        res = 0.0
        grid = Grid.for_sector(p, 1, m_rad=m_rad, m_ang=m_ang)
        for st in (irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("+", p, 0, 1)):
            h1 = gen.hamiltonian_super(st, p, grid.r, grid.phi, route="potential")
            h2 = gen.hamiltonian_super(st, p, grid.r, grid.phi, route="superpotential")
            res = max(res, float(np.max(np.abs(h1 - h2)) / max(np.max(np.abs(h1)), 1.0)))
        yield (
            "hs-routes",
            "H_k + 4 omega (Gamma + Y) equals 4 omega (K0 + Y) built from the superpotential",
            label,
            res,
            "algebra.routes",
        )

        grid0 = Grid.for_sector(p, 0, m_rad=m_rad, m_ang=m_ang)
        ground = irreps.zero_fermion_state(p, 0, 0)
        qf, qdf = gen.supercharges(ground, p, grid0.r, grid0.phi)
        yield (
            "susy-ground",
            "Q and Qdag annihilate the ground state (unbroken supersymmetry)",
            label,
            float(max(np.max(np.abs(qf)), np.max(np.abs(qdf)))),
            "algebra.susy-ground",
        )

        w4 = 4.0 * p.omega
        anti = w4 * (mats["W+"] @ mats["V-"] + mats["V-"] @ mats["W+"])
        hs = w4 * (mats["K0"] + mats["Y"])
        res = float(np.max(np.abs((anti - hs)[np.ix_(interior, interior)])))
        yield ("susy-anticommutator", "{Q, Qdag} = Hs with Q = 2 sqrt(omega) W+, Qdag = 2 sqrt(omega) V-", label, res, "algebra.susy-anticommutator")

        rng = np.random.default_rng(config.seed)
        r = rng.uniform(0.5, 2.0, 40)
        phi_s = rng.uniform(0.1, 0.9, 40) * p.phi_max
        res = 0.0
        for st in (irreps.zero_fermion_state(p, 1, 1), irreps.one_fermion_state("-", p, 1, 1)):
            d = gen.dilation_identity_residuals(st, p, r, phi_s)
            res = max(res, d["D"], d["Gamma"])
        yield (
            "scaling-conditions",
            "D and Gamma are homogeneous of degree -2 in r (integrated form of [r d_r, O] = -2 O)",
            label,
            res,
            "algebra.conditions",
        )

    osc = gen.oscillator_realization(nu=1, cutoff=12)
    worst = max(c.residual for c in gen.check_structure_constants(osc.mats, osc.interior))
    k0_dev = float(np.max(np.abs(np.diag(osc.mats["K0"])[osc.interior] - 0.5 * (osc.boson_numbers[osc.interior, 0] + 0.5))))
    anti = osc.mats["W+"] @ osc.mats["V-"] + osc.mats["V-"] @ osc.mats["W+"]
    hs_dev = float(np.max(np.abs((anti - (osc.mats["K0"] + osc.mats["Y"]))[np.ix_(osc.interior, osc.interior)])))
    yield (
        "oscillator-realization",
        "boson-fermion matrix realization satisfies every superalgebra relation; K0 = (adag a + 1/2)/2; {Q,Qdag} = Hs",
        None,
        max(worst, k0_dev, hs_dev),
        "algebra.oscillator",
    )


def _checks_irreps(config: SuiteConfig, workspaces: dict):
    m_rad, m_ang = config.quad_orders
    N_max, n_max = config.truncation
    for p in config.models():
        label = _params_label(p)
        mats, basis = workspaces[label].matrices
        tau_off = {"zero": 0.0, "lower": -0.5, "upper": 0.5, "double": 0.0}
        index = {(s.n, s.family, s.level): i for i, s in enumerate(basis)}

        res = 0.0
        sign_ok = True
        for s in basis:
            if s.level + 1 > N_max:
                continue
            j = index[(s.n, s.family, s.level)]
            i = index[(s.n, s.family, s.level + 1)]
            tau_fam = irreps.weights_of(p, s.n).tau + tau_off[s.family]
            expect = irreps.k_ladder_coeff("+", tau_fam, s.level)
            measured = mats["K+"][i, j]
            sign_ok = sign_ok and measured > 0
            res = max(res, abs(measured - expect) / expect)
        yield (
            "ladder-matrix-elements",
            "K+ rungs equal sqrt((N+1)(2 tau + N)) with positive sign in every tower",
            label,
            res if sign_ok else float("inf"),
            "irreps.ladder",
        )

        res = 0.0
        for n in (0, 1, min(2, n_max)):
            grid = Grid.for_sector(p, n, odd=True, m_rad=m_rad, m_ang=m_ang)
            grid_e = Grid.for_sector(p, n, odd=False, m_rad=m_rad, m_ang=m_ang)
            for N in (0, 1, 3):
                st = irreps.zero_fermion_state(p, N, n)
                for sign in ("+", "-"):
                    out = gen.apply_generator("V" + sign, st, p, grid.r, grid.phi)
                    ref = state_field(irreps.v_action(sign, p, N, n), p, grid.r, grid.phi)
                    scale = max(np.max(np.abs(ref)), 1.0)
                    res = max(res, float(np.max(np.abs(out - ref)) / scale))
                    wout = gen.apply_generator("W" + sign, st, p, grid_e.r, grid_e.phi)
                    res = max(res, float(np.max(np.abs(wout))))
        yield (
            "odd-action-fields",
            "V+- on zero-fermion states reproduce their closed-form expansions; W+- annihilate them",
            label,
            res,
            "irreps.odd-action",
        )

        res = 0.0
        for n in range(1, min(4, n_max) + 1):
            grid = Grid.for_sector(p, n, odd=True, m_rad=m_rad, m_ang=m_ang)
            for N in range(1, 6):
                plus = state_field(irreps.one_fermion_state("+", p, N - 1, n), p, grid.r, grid.phi)
                minus = state_field(irreps.one_fermion_state("-", p, N, n), p, grid.r, grid.phi)
                measured = grid.inner(plus, minus)
                res = max(res, abs(measured - irreps.overlap(p, N, n)))
        grid = Grid.for_sector(p, 0, odd=True, m_rad=m_rad, m_ang=m_ang)
        for N in range(1, 5):
            plus = state_field(irreps.one_fermion_state("+", p, N - 1, 0), p, grid.r, grid.phi)
            minus = state_field(irreps.one_fermion_state("-", p, N, 0), p, grid.r, grid.phi)
            res = max(res, float(np.max(np.abs(plus - minus))))
        grid_e = Grid.for_sector(p, 0, odd=False, m_rad=m_rad, m_ang=m_ang)
        for N in range(3):
            two = irreps.two_fermion_state(p, N, 0)
            res = max(res, 0.0 if two.is_zero else float(np.max(np.abs(state_field(two, p, grid_e.r, grid_e.phi)))))
        yield (
            "one-fermion-overlap",
            "<+|-> = sqrt(N[N+(2n+a+b)k] / ([N+(n+a+b)k][N+nk])); at n = 0 the one-fermion "
            "families coincide and the two-fermion states vanish",
            label,
            res,
            "irreps.overlap",
        )

        c2, c3 = irreps.casimir_matrices(mats)
        interior2 = gen.interior_mask(basis, config.truncation, depth=2)
        res = 0.0
        for n in range(n_max + 1):
            sel = np.array([s.n == n for s in basis]) & interior2
            if not sel.any():
                continue
            c2_th, c3_th = irreps.casimir_eigenvalues(p, n)
            eye = np.eye(int(sel.sum()))
            res = max(res, float(np.max(np.abs(c2[np.ix_(sel, sel)] - c2_th * eye))))
            res = max(res, float(np.max(np.abs(c3[np.ix_(sel, sel)] - c3_th * eye))))
        for gname in gen.GENERATOR_NAMES:
            comm = c2 @ mats[gname] - mats[gname] @ c2
            res = max(res, float(np.max(np.abs(comm[np.ix_(interior2, interior2)]))))
        yield (
            "casimir",
            "C2 and C3 are scalar n(n+a+b)k^2 and -(a+b)n(n+a+b)k^3/2 per sector (zero at n = 0); C2 commutes with all generators",
            label,
            res,
            "irreps.casimir",
        )

        res = 0.0
        for n1, n2 in ((0, 1), (1, 2), (0, 2)):
            if max(n1, n2) > n_max:
                continue
            for odd in (False, True):
                alpha_pair = (n1 + n2 + p.a + p.b) * p.k - (1.0 if odd else 0.0)
                grid = Grid(p, alpha_pair, m_rad, m_ang)
                fam = ("lower", "upper") if odd else ("zero", "double")
                for f1 in fam:
                    for f2 in fam:
                        try:
                            s1 = irreps.sp2_family_state(p, f1, 1, n1)
                            s2 = irreps.sp2_family_state(p, f2, 1, n2)
                        except ValueError:
                            continue
                        v1 = state_field(s1, p, grid.r, grid.phi)
                        for gname in ("K0", "K+", "Y"):
                            out = gen.apply_generator(gname, s2, p, grid.r, grid.phi)
                            res = max(res, abs(grid.inner(v1, out)))
        yield (
            "block-diagonality",
            "generators do not couple different angular sectors (sampled cross-sector matrix elements vanish)",
            label,
            res,
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
    worst = 0.0
    for st in states:
        cart = st.cart_data(p, r, phi)
        h_c, q_c = cart_fn(p, cart, x, y)
        bundle = st.polar_bundle(p, r, phi)
        h_p = gen._apply_h(bundle, p, r, phi) + 4.0 * p.omega * (
            gen._apply_gamma(bundle, p, r, phi) + gen._apply_y(bundle, p)
        )
        q_p = 2.0 * math.sqrt(p.omega) * gen._apply_bundle("W+", bundle, p, r, phi)
        worst = max(worst, float(np.max(np.abs(h_c - h_p)) / max(np.max(np.abs(h_p)), 1.0)))
        worst = max(worst, float(np.max(np.abs(q_c - q_p)) / max(np.max(np.abs(q_p)), 1.0)))
    return worst


def _checks_cmw(p: ModelParams, label: str, rng, n_pts: int):
    r = rng.uniform(0.5, 2.0, n_pts)
    phi = rng.uniform(0.08, 0.92, n_pts) * p.phi_max
    X = rng.uniform(-1.5, 1.5, n_pts)

    _, _, cops = special_cases.cmw_mode_matrices()
    eye = np.eye(8)
    res = 0.0
    for i in range(3):
        for j in range(3):
            anti = cops[i] @ cops[j].T + cops[j].T @ cops[i]
            res = max(res, float(np.max(np.abs(anti - (eye if i == j else 0.0)))))
            res = max(res, float(np.max(np.abs(cops[i] @ cops[j] + cops[j] @ cops[i]))))
    yield ("cmw-mode-transform", "the orthogonal three-mode transform preserves the anticommutation relations", label, res, "special.pointwise")

    phi_t = rng.uniform(0.0, 2 * math.pi, 64)
    lhs_c = sum(1.0 / np.cos(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    lhs_s = sum(1.0 / np.sin(phi_t - 2 * math.pi * j / 3) ** 2 for j in range(3))
    res = float(
        max(
            np.max(np.abs(lhs_c - 9.0 / np.cos(3 * phi_t) ** 2) / (9.0 / np.cos(3 * phi_t) ** 2)),
            np.max(np.abs(lhs_s - 9.0 / np.sin(3 * phi_t) ** 2) / (9.0 / np.sin(3 * phi_t) ** 2)),
        )
    )
    yield ("cmw-trig-resummation", "the six angular centers resum to the k = 3 sec^2/csc^2 structure", label, res, "special.pointwise")

    split_res = 0.0
    rel_polar_res = 0.0
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
        split_res = max(
            split_res,
            float(np.max(np.abs(h_f - h_r - h_c)) / max(np.max(np.abs(h_f)), 1.0)),
            float(np.max(np.abs(q_f - q_r - q_c)) / max(np.max(np.abs(q_f)), 1.0)),
        )
    yield ("cmw-split", "Hs and Q of the three-particle model split into relative + centre-of-mass parts", label, split_res, "special.pointwise")

    cm_vac = np.zeros((2, 2))
    cm_vac[0, 0] = 1.0
    chi = np.exp(-0.5 * p.omega * X**2)
    cm_field = np.stack([chi, np.zeros_like(chi)])
    for st in (irreps.zero_fermion_state(p, 2, 1), irreps.one_fermion_state("+", p, 1, 1)):
        data = special_cases.make_cmw_test_state(special_cases.CatalogTestSpinor(st), cm_vac, p, r, phi, X)
        h_r, q_r = special_cases.cmw_rel_super(p, data)
        q_p, _ = gen.supercharges(st, p, r, phi)
        h_p = gen.hamiltonian_super(st, p, r, phi)
        q_ref = special_cases.embed_product_values(q_p, cm_field)
        h_ref = special_cases.embed_product_values(h_p, cm_field)
        rel_polar_res = max(
            rel_polar_res,
            float(np.max(np.abs(q_r - q_ref)) / max(np.max(np.abs(q_ref)), 1.0)),
            float(np.max(np.abs(h_r - h_ref)) / max(np.max(np.abs(h_ref)), 1.0)),
        )
    yield ("cmw-rel-vs-polar", "the relative part reproduces the polar k = 3 construction; Q_rel = 2 sqrt(omega) W+", label, rel_polar_res, "special.pointwise")

    data = special_cases.make_cmw_test_state(
        special_cases.CatalogTestSpinor(irreps.zero_fermion_state(p, 0, 0)), cm_vac, p, r, phi, X
    )
    h_c, q_c = special_cases.cm_super(p, data)
    res = float(max(np.max(np.abs(h_c)), np.max(np.abs(q_c))))
    yield ("cmw-cm-ground", "the centre-of-mass superoscillator annihilates its Gaussian ground state", label, res, "special.pointwise")


# ---------------------------------------------------------------------------
# Runner and CLI


def run(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; failures are recorded, never raised.

    Each check is timed from the previous record to the moment its suite
    yields it, minus any generator-matrix build that happened in between:
    those builds are reported per parameter set in ``matrices_ms``.  A
    suite that raises keeps the checks it already yielded and adds a
    failed ``<suite>-suite`` record.
    """
    workspaces = {_params_label(p): _Workspace(p, config) for p in config.models()}
    producers = {
        "specfun": lambda: _checks_specfun(config),
        "model": lambda: _checks_model(config),
        "algebra": lambda: _checks_algebra(config, workspaces),
        "irreps": lambda: _checks_irreps(config, workspaces),
        "special-cases": lambda: _checks_special(config),
    }

    records: list[CheckRecord] = []
    t_prev, built_prev = time.perf_counter(), 0.0

    def elapsed_ms() -> float:
        nonlocal t_prev, built_prev
        now, built = time.perf_counter(), sum(ws.build_ms for ws in workspaces.values())
        out = (now - t_prev) * 1e3 - (built - built_prev)
        t_prev, built_prev = now, built
        return out

    for suite in config.selected():
        try:
            for name, claim, plabel, residual, tol_key in producers[suite]():
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
            records.append(
                CheckRecord(
                    name=f"{suite}-suite",
                    suite=suite,
                    claim="suite executed without errors",
                    params=None,
                    residual=float("inf"),
                    tolerance=0.0,
                    passed=False,
                    wall_ms=elapsed_ms(),
                    error=traceback.format_exc(limit=2).strip().splitlines()[-1],
                )
            )
    matrices_ms = {label: ws.build_ms for label, ws in workspaces.items() if ws.build_ms}
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
    if args.param:
        data["param_sets"] = args.param
    if args.suite:
        data["suites"] = args.suite
    if args.nmax is not None:
        trunc = data.get("truncation", list(SuiteConfig.truncation))
        data["truncation"] = [args.nmax, trunc[1]]
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
