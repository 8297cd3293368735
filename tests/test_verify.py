import collections
import ctypes
import inspect
import io
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ttwsusy import model, states, verify
from ttwsusy.verify import DEFAULT_TOLERANCES, SuiteConfig, main, run

FAST = dict(
    param_sets=({"k": 2.0, "a": 1.5, "b": 2.5, "omega": 1.0},),
    truncation=(3, 2),
    quad_orders=(40, 40),
    seed=7,
)


def strip_volatile(doc: dict) -> dict:
    for check in doc["checks"]:
        check.pop("wall_ms", None)
    doc.pop("matrices_ms", None)
    return doc


def strict_loads(text: str) -> dict:
    """json.loads that rejects the non-standard NaN / Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def fast_report():
    """One run of the fast specfun + model subset, shared by the report tests."""
    return run(SuiteConfig(**FAST, suites=("specfun", "model")))


def binom_frac(top: Fraction, m: int) -> Fraction:
    """C(top, m) for a rational top, as an exact Fraction."""
    c = Fraction(1)
    for i in range(1, m + 1):
        c *= (top - m + i) / i
    return c


def fraction_laguerre(N, alpha, z):
    """Reference series oracle: the exact Fraction sum, rounded once."""
    af = Fraction(alpha)
    coeffs = [Fraction(-1) ** j / math.factorial(j) * binom_frac(af + N, N - j) for j in range(N + 1)]
    return np.array([float(sum(c * Fraction(float(zv)) ** j for j, c in enumerate(coeffs))) for zv in z])


def fraction_jacobi(n, alpha, beta, x):
    af, bf = Fraction(alpha), Fraction(beta)
    coeffs = [binom_frac(af + n, n - j) * binom_frac(bf + n, j) for j in range(n + 1)]
    out = []
    for xv in x:
        xf = Fraction(float(xv))
        lo, hi = (xf - 1) / 2, (xf + 1) / 2
        out.append(float(sum(c * lo**j * hi ** (n - j) for j, c in enumerate(coeffs))))
    return np.array(out)


class TestSeriesOracle:
    """The integer-arithmetic oracles round the same exact rational as the
    Fraction sums, so they agree bit for bit: on the specfun suite's
    parameters and on exponents with large denominators."""

    def test_laguerre_equals_fraction_sum(self):
        z = np.concatenate([np.linspace(0.05, 30.0, 41), [1e-300, 700.0]])
        for N in range(13):
            for alpha in (-0.4, 0.0, 0.7, 2.5, 10.0, 1 / 3, math.sqrt(2.0), 1e-3):
                assert np.array_equal(verify._series_laguerre(N, alpha, z), fraction_laguerre(N, alpha, z)), (N, alpha)

    def test_jacobi_equals_fraction_sum(self):
        edge = 1.0 - 2.0**-52
        x = np.concatenate([np.linspace(-0.999, 0.999, 41), [-edge, edge]])
        for n in range(13):
            for alpha, beta in ((-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0), (1 / 3, math.sqrt(2.0)), (1e-3, 1 / 3)):
                assert np.array_equal(verify._series_jacobi(n, alpha, beta, x), fraction_jacobi(n, alpha, beta, x)), (n, alpha, beta)


class TestSuiteConfig:
    def test_defaults_cover_special_cases(self):
        cfg = SuiteConfig()
        ks = {ps["k"] for ps in cfg.param_sets}
        assert {1.0, 2.0, 3.0} <= ks
        assert any(abs(k - math.sqrt(2.0)) < 1e-12 for k in ks)

    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(param_sets=())
        with pytest.raises(ValueError):
            SuiteConfig(truncation=(1, 5))
        with pytest.raises(ValueError):
            SuiteConfig(suites=("nonsense",))
        with pytest.raises(ValueError):
            SuiteConfig(tolerances={"no-such-check": 1e-9})
        with pytest.raises(ValueError):
            SuiteConfig(tolerances={"model.orthonormality": -1.0})
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                SuiteConfig(tolerances={"model.orthonormality": bad})

    @pytest.mark.parametrize("orders", [(0, 0), (80.5, 80), (True, 80), (80,)], ids=["zero", "float", "bool", "one"])
    def test_quad_orders_validation(self, orders):
        with pytest.raises(ValueError, match="quad_orders"):
            SuiteConfig(quad_orders=orders)

    @pytest.mark.parametrize(
        "truncation",
        [(1, 5), (8,), (4.5, 3), (8, 6, 4), (True, 3), 8],
        ids=["low", "one", "float", "three", "bool", "scalar"],
    )
    def test_truncation_validation(self, truncation):
        with pytest.raises(ValueError, match="truncation must be two integers >= 2"):
            SuiteConfig(truncation=truncation)
        as_json = list(truncation) if isinstance(truncation, tuple) else truncation
        with pytest.raises(ValueError, match="truncation must be two integers >= 2"):
            SuiteConfig.from_dict({"truncation": as_json})

    @pytest.mark.parametrize(
        "param_sets, match",
        [
            ([{"k": -1, "a": 1, "b": 1}], "k must be positive"),
            ([{"k": 1, "a": 1, "bb": 1}], "unknown key 'bb', missing key 'b'"),
            ([{"k": 1, "a": 1}], "missing key 'b'"),
            ([{"k": 1, "a": 1, "b": 1, "omega": True}], "omega must be a finite real number"),
            ([{"k": "1", "a": 1, "b": 1}], "k must be a finite real number"),
            ([{"k": math.inf, "a": 1, "b": 1}], "k must be a finite real number"),
            ([3.0], "must be a mapping"),
            (3.0, "param_sets must be a nonempty list"),
        ],
        ids=["negative-k", "unknown-key", "missing-key", "bool", "string", "inf", "not-a-mapping", "not-a-list"],
    )
    def test_param_set_validation(self, param_sets, match):
        with pytest.raises(ValueError, match=match):
            SuiteConfig.from_dict({"param_sets": param_sets})

    @pytest.mark.parametrize("tol", [True, False, "1e-8", None], ids=["true", "false", "string", "null"])
    def test_tolerance_must_be_a_real_number(self, tol):
        with pytest.raises(ValueError, match="tolerance 'model.eigenvalue' must be a finite nonnegative real number"):
            SuiteConfig.from_dict({"tolerances": {"model.eigenvalue": tol}})

    @pytest.mark.parametrize(
        "data, match",
        [
            ([1], "a config must be a JSON object"),
            ({"suites": 5}, "suites must be a list"),
            ({"tolerances": [1]}, "tolerances must be a mapping"),
            ({"seed": [1]}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
        ],
        ids=["not-an-object", "suites-not-a-list", "tolerances-not-a-mapping", "seed-list", "seed-bool"],
    )
    def test_payload_types(self, data, match):
        with pytest.raises(ValueError, match=match):
            SuiteConfig.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"tolerances": [1]}, "tolerances must be a mapping"),
            ({"suites": 5}, "suites must be a list"),
            ({"suites": "model"}, "suites must be a list"),
            ({"suites": [["model"]]}, "suites must be a list"),
        ],
        ids=["tolerances-list", "suites-int", "suites-string", "suites-nested"],
    )
    def test_constructor_checks_types(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SuiteConfig(**kwargs)

    def test_constructor_makes_tuples(self):
        cfg = SuiteConfig(truncation=[3, 2], quad_orders=[40, 40], suites=["model"], tolerances={"model.identity": 1e-9})
        assert (cfg.truncation, cfg.quad_orders, cfg.suites) == ((3, 2), (40, 40), ("model",))
        assert cfg == SuiteConfig.from_dict({"truncation": [3, 2], "quad_orders": [40, 40], "suites": ["model"], "tolerances": {"model.identity": 1e-9}})

    def test_sets_sharing_a_label_are_rejected(self):
        # the report and matrices_ms key each set by its label
        sets = [{"k": 1, "a": 1, "b": 1}, {"k": 1.0000001, "a": 1, "b": 1}]
        message = "parameter sets {'k': 1, 'a': 1, 'b': 1} and {'k': 1.0000001, 'a': 1, 'b': 1} share the report label 'k=1, a=1, b=1, omega=1'"
        with pytest.raises(ValueError, match=re.escape(message)):
            SuiteConfig(param_sets=sets)
        with pytest.raises(ValueError, match="share the report label"):
            SuiteConfig.from_dict({"param_sets": [sets[0], sets[0]]})

    def test_tolerance_override(self):
        cfg = SuiteConfig(tolerances={"model.orthonormality": 1e-6})
        assert cfg.tol("model.orthonormality") == 1e-6
        assert cfg.tol("algebra.structure") == DEFAULT_TOLERANCES["algebra.structure"]

    def test_roundtrip(self):
        cfg = SuiteConfig(**FAST, suites=("specfun", "model"))
        again = SuiteConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.truncation == cfg.truncation
        assert again.selected() == cfg.selected()
        assert again.seed == cfg.seed


class TestRun:
    def test_suite_filtering(self, fast_report):
        assert {c.suite for c in fast_report.checks} == {"specfun", "model"}
        report = run(SuiteConfig(**FAST, suites=("model",)))
        assert {c.suite for c in report.checks} == {"model"}

    def test_fast_subset_passes(self, fast_report):
        assert fast_report.n_failed == 0, fast_report.to_text()

    def test_impossible_tolerance_is_recorded_not_raised(self):
        cfg = SuiteConfig(**FAST, suites=("model",), tolerances={"model.orthonormality": 0.0})
        report = run(cfg)
        assert report.n_failed >= 1
        failed = [c for c in report.checks if not c.passed]
        assert all(c.residual > c.tolerance for c in failed)

    def test_determinism(self, fast_report):
        cfg = SuiteConfig(**FAST, suites=("specfun", "model"))
        a = strip_volatile(json.loads(fast_report.to_json()))
        b = strip_volatile(json.loads(run(cfg).to_json()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shapes(self, fast_report):
        doc = strict_loads(fast_report.to_json())
        assert doc["schema"] == "ttwsusy-verification-report/2"
        assert doc["summary"]["total"] == len(doc["checks"])
        for check in doc["checks"]:
            keys = {"name", "suite", "claim", "params", "residual", "tolerance", "passed", "wall_ms", "status"}
            assert keys <= set(check)
            assert check["passed"] == (check["residual"] <= check["tolerance"])
            assert check["status"] == ("passed" if check["passed"] else "failed")
        text = fast_report.to_text()
        assert "PASS" in text and "checks passed" in text

    def test_checks_are_timed_as_yielded(self, monkeypatch):
        # a check carries the time of the task that computes it, and no other check does
        eigen_images, computed, runs = verify._CHECK_TASKS["eigen-images"]

        def slow(ws):
            time.sleep(0.2)
            return eigen_images(ws)

        monkeypatch.setitem(verify._CHECK_TASKS, "eigen-images", (slow, computed, runs))
        checks = run(SuiteConfig(**FAST, suites=("model",))).checks
        assert [c.name for c in checks] == ["orthonormality", "eigenvalue-residual", "spectrum-identities"]
        for c in checks:
            assert (c.wall_ms >= 200.0) == (c.name == "eigenvalue-residual"), (c.name, c.wall_ms)

    def test_matrix_build_reported_separately(self, monkeypatch, fast_report):
        build = verify.gen.sector_matrices

        def slow_build(*args, **kwargs):
            time.sleep(0.1)
            return build(*args, **kwargs)

        monkeypatch.setattr(verify.gen, "sector_matrices", slow_build)
        config = SuiteConfig(**FAST, suites=("algebra",))
        sectors = config.truncation[1] + 1
        # in one process, every ms of the run is a check's or a build's
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        t0 = time.perf_counter()
        report = run(config)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        (label,) = {c.params for c in report.checks if c.params}
        assert set(report.matrices_ms) == {label}
        assert report.matrices_ms[label] >= 100.0 * sectors
        # no check is charged for a build, not even the first that reads the blocks
        assert max(c.wall_ms for c in report.checks) < 100.0
        accounted = sum(c.wall_ms for c in report.checks) + report.matrices_ms[label]
        assert 0.95 * elapsed_ms <= accounted <= elapsed_ms
        doc = strict_loads(report.to_json())
        assert doc["matrices_ms"] == {label: round(report.matrices_ms[label], 3)}
        assert strict_loads(fast_report.to_json())["matrices_ms"] == {}
        # the builds of forked workers are reported the same way
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = run(config)
        assert set(pooled.matrices_ms) == {label} and pooled.matrices_ms[label] >= 100.0 * sectors
        assert max(c.wall_ms for c in pooled.checks) < 100.0

    def test_group_records_share_its_time(self):
        # a group computed as a whole charges each of its records an equal share
        report = run(SuiteConfig(**FAST, suites=("algebra",)))
        for prefix in ("structure[", "hermiticity["):
            times = [c.wall_ms for c in report.checks if c.name.startswith(prefix)]
            assert len(times) > 1 and len(set(times)) == 1 and times[0] > 0.0, (prefix, times)

    def test_nan_in_one_sector_reaches_the_report(self, monkeypatch):
        build = verify.gen.sector_matrices
        truncation = (3, 3)

        # NaN at an interior entry of the V+ block of sector 1, neither the first nor the last sector with an interior
        def planted_build(params, n, *args, **kwargs):
            block, states = build(params, n, *args, **kwargs)
            if n == 1:
                i = np.flatnonzero(verify.gen.interior_mask(states, truncation[0]))[1]
                block["V+"][i, i] = np.nan
            return block, states

        monkeypatch.setattr(verify.gen, "sector_matrices", planted_build)
        report = run(SuiteConfig(**dict(FAST, truncation=truncation), suites=("algebra",)))
        structure = [c for c in strict_loads(report.to_json())["checks"] if c["name"].startswith("structure[")]
        assert len(structure) == len(verify.gen.RELATIONS)
        for check in structure:
            assert (check["status"] == "non-finite") == ("V+" in check["claim"]), check["name"]

    def test_crashing_suite_keeps_yielded_checks_and_writes_standard_json(self, monkeypatch):
        def crashing(ws):
            raise RuntimeError("boom")

        _, computed, runs = verify._CHECK_TASKS["eigen-images"]
        monkeypatch.setitem(verify._CHECK_TASKS, "eigen-images", (crashing, computed, runs))
        report = run(SuiteConfig(**FAST, suites=("model",)))
        # the suite keeps the check before the one that raised, and ends there
        assert [c.name for c in report.checks] == ["orthonormality", "model-suite"]
        crashed = report.checks[-1]
        assert crashed.residual == float("inf") and not crashed.passed
        assert "boom" in crashed.error
        assert math.isinf(crashed.to_dict()["residual"])
        doc = strict_loads(report.to_json())
        assert doc["checks"][0]["status"] == "passed"
        assert doc["checks"][1]["residual"] is None
        assert doc["checks"][1]["status"] == "non-finite"
        assert doc["summary"]["failed"] == 1

    def test_nan_part_of_a_residual_is_not_dropped(self, monkeypatch):
        overlap = verify.irreps.overlap
        # NaN for one state in the middle of the loop, so it is neither the first nor the last value
        monkeypatch.setattr(verify.irreps, "overlap", lambda p, N, n: float("nan") if (N, n) == (3, 1) else overlap(p, N, n))
        report = run(SuiteConfig(**FAST, suites=("irreps",)))
        (rec,) = [c for c in report.checks if c.name == "one-fermion-overlap"]
        assert math.isnan(rec.residual) and not rec.passed
        (entry,) = [c for c in strict_loads(report.to_json())["checks"] if c["name"] == "one-fermion-overlap"]
        assert entry["status"] == "non-finite" and entry["residual"] is None and entry["passed"] is False
        assert all(c.passed for c in report.checks if c is not rec)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_k_passes_without_overflow(self):
        # alpha = 168 in sector 6 at k = 12: every projected entry stays
        # finite, so no check reads NaN or inf and numpy warns of nothing
        params = ({"k": 12.0, "a": 1.0, "b": 1.0, "omega": 1.0},)
        report = run(SuiteConfig(param_sets=params, suites=("algebra", "irreps")))
        assert report.n_failed == 0, report.to_text()

    @pytest.mark.parametrize("k", [12.5, 15.0])
    def test_past_the_gamma_range_every_check_passes(self, k):
        # the orthonormality check's pair grids reach the radial exponent
        # (6 + 6 + 2) k = 175 and 210, past alpha ~ 171 where Gamma(alpha + 1)
        # leaves the float range
        params = ({"k": k, "a": 1.0, "b": 1.0, "omega": 1.0},)
        config = SuiteConfig(param_sets=params, truncation=(4, 3), quad_orders=(40, 40), suites=("model", "algebra", "irreps"))
        report = run(config)
        assert report.n_failed == 0 and report.checks, report.to_text()
        assert not any(c.name.endswith("-suite") for c in report.checks)

    def test_block_diagonality_sees_a_sector_coupling_term(self, monkeypatch, cold_caches):
        terms = verify.gen._terms

        # K0 + 1e-6 cos(2 k phi): cos(2 k phi) = -xi moves the angular index by one
        def coupled(name, params, phi):
            out = terms(name, params, phi)
            if name == "K0":
                out = out + [verify.gen._Term(1e-6, 0, 0, np.cos(2.0 * params.k * phi), verify.gen._EYE, 0)]
            return out

        monkeypatch.setattr(verify.gen, "_terms", coupled)
        report = run(SuiteConfig(**FAST, suites=("irreps",)))
        (rec,) = [c for c in report.checks if c.name == "block-diagonality"]
        assert not rec.passed and rec.residual > 1e-9


TWO_SETS = dict(
    param_sets=({"k": 1.0, "a": 1.0, "b": 1.0, "omega": 1.0}, {"k": 2.0, "a": 1.5, "b": 2.5, "omega": 1.0}),
    truncation=(3, 2),
    quad_orders=(40, 40),
    seed=7,
)

# one irrational set, which a run with two usable CPUs splits into tasks for two workers
ONE_SET = dict(
    param_sets=({"k": math.sqrt(2.0), "a": 1.2, "b": 0.8, "omega": 1.0},),
    truncation=(4, 3),
    quad_orders=(40, 40),
    seed=7,
)


def record_bits(report):
    return [(c.name, c.suite, c.params, float(c.residual).hex(), c.tolerance, c.passed, c.error) for c in report.checks]


def report_body(report) -> str:
    return json.dumps(strip_volatile(strict_loads(report.to_json())), indent=2, sort_keys=True)


def run_with_a_killed_worker(tmp_path, config: dict, victim: tuple, suites=("specfun", "model", "algebra", "irreps")) -> tuple[list, int, int]:
    """(the check dicts, the parent pid, the pid of the worker that died) of
    a fresh process's run of ``suites`` with two usable CPUs, in which the
    worker that takes task ``victim`` kills itself with SIGKILL before
    running it; a fresh process, so that a hang meets a timeout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    pidfile = str(tmp_path / "victim")
    code = (
        "import json, os, signal\n"
        "from ttwsusy import verify\n"
        "parent, run_task = os.getpid(), verify._run_task\n"
        "def dying(config, task):\n"
        f"    if os.getpid() != parent and task == {victim!r}:\n"
        f"        with open({pidfile!r}, 'w') as fh:\n"
        "            fh.write(str(os.getpid()))\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return run_task(config, task)\n"
        "verify._run_task = dying\n"
        "verify._usable_cpus = lambda: 2\n"
        f"config = verify.SuiteConfig(**{config!r}, suites={tuple(suites)!r})\n"
        "print(os.getpid())\n"
        "print(json.dumps([c.to_dict() for c in verify.run(config).checks]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    parent, checks = proc.stdout.strip().splitlines()[-2:]
    with open(pidfile) as fh:
        return json.loads(checks), int(parent), int(fh.read())


def record_dicts(checks) -> list[tuple]:
    """(name, suite, params, residual, passed, error) of each check dict."""
    return [(c["name"], c["suite"], c["params"], c["residual"], c["passed"], c.get("error")) for c in checks]


def after_loss(serial: list[dict], params, checks, error: str) -> list[tuple]:
    """``record_dicts`` of the one-process check dicts ``serial`` as a run
    gives them when the task of group ``params`` (a set's label, None for
    the set-free group) that computes ``checks`` is lost with ``error``:
    each suite of that group that one of the checks belongs to ends at the
    first of them with a failed ``<suite>-suite`` record, and every other
    record stays as it is."""
    out, ended = [], set()
    for c in serial:
        mine = c["params"] == params
        if mine and c["suite"] in ended:
            continue
        if mine and c["name"].split("[")[0] in checks:
            ended.add(c["suite"])
            out.append((f"{c['suite']}-suite", c["suite"], None, math.inf, False, error))
        else:
            out += record_dicts([c])
    return out


def serial_dicts(monkeypatch, config: dict, suites) -> list[dict]:
    """The check dicts of a one-process run of ``suites``."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    return [c.to_dict() for c in run(SuiteConfig(**config, suites=tuple(suites))).checks]


class TestParallelRun:
    """The per-set tasks give the same records in forked workers as in
    this process; the workers are forced by patching the usable-CPU
    count."""

    def run_both(self, monkeypatch, tmp_path, config):
        """(in-process report, pooled report, pids that built sector blocks in the pooled run)."""
        build = verify.gen.sector_matrices

        def marked_build(*args, **kwargs):
            (tmp_path / str(os.getpid())).touch()
            return build(*args, **kwargs)

        monkeypatch.setattr(verify.gen, "sector_matrices", marked_build)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        serial = run(config)
        assert {f.name for f in tmp_path.iterdir()} == {str(os.getpid())}
        (tmp_path / str(os.getpid())).unlink()
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = run(config)
        return serial, pooled, {int(f.name) for f in tmp_path.iterdir()}

    def test_pool_gives_the_in_process_records(self, monkeypatch, tmp_path):
        serial, pooled, workers = self.run_both(monkeypatch, tmp_path, SuiteConfig(**TWO_SETS))
        assert workers and os.getpid() not in workers, "no worker process built a sector block"
        assert serial.n_failed == 0, serial.to_text()
        assert record_bits(pooled) == record_bits(serial)
        assert report_body(pooled) == report_body(serial)
        assert list(pooled.matrices_ms) == list(serial.matrices_ms) == [c.params for c in serial.checks if c.name == "riccati"]
        suites = [c.suite for c in serial.checks]
        assert suites == sorted(suites, key=verify.SUITES.index)
        assert [c.name for c in serial.checks if c.suite == "algebra"][-1] == "oscillator-realization"

    def test_one_set_pool_gives_the_in_process_records(self, monkeypatch, tmp_path):
        # one set's sector and check tasks are shared out between two workers
        serial, pooled, workers = self.run_both(monkeypatch, tmp_path, SuiteConfig(**ONE_SET))
        assert workers and os.getpid() not in workers, "no worker process built a sector block"
        assert serial.n_failed == 0, serial.to_text()
        assert record_bits(pooled) == record_bits(serial)
        assert report_body(pooled) == report_body(serial)
        assert list(pooled.matrices_ms) == list(serial.matrices_ms)

    def test_suite_error_in_second_set(self, monkeypatch, tmp_path):
        residuals = verify.gen.dilation_identity_residuals

        def failing(state, p, r, phi):
            if p.k == 2.0:
                raise RuntimeError("planted failure")
            return residuals(state, p, r, phi)

        monkeypatch.setattr(verify.gen, "dilation_identity_residuals", failing)
        serial, pooled, _ = self.run_both(monkeypatch, tmp_path, SuiteConfig(**TWO_SETS))
        assert record_bits(pooled) == record_bits(serial)
        assert report_body(pooled) == report_body(serial)
        algebra = [c.name for c in serial.checks if c.suite == "algebra"]
        first, second = (c.params for c in serial.checks if c.name == "riccati")
        # set 1 complete; set 2 up to the failing check, then its suite record; the oscillator check last
        set1 = [c.name for c in serial.checks if c.suite == "algebra" and c.params == first]
        assert algebra[: len(set1)] == set1 and set1[-1] == "scaling-conditions"
        set2 = algebra[len(set1) : -1]
        assert set2[-2:] == ["susy-anticommutator", "algebra-suite"]
        assert set2[:-1] == [c.name for c in serial.checks if c.suite == "algebra" and c.params == second]
        assert algebra[-1] == "oscillator-realization"
        (failed,) = [c for c in serial.checks if not c.passed]
        assert failed.name == "algebra-suite" and failed.error == "RuntimeError: planted failure"

    def test_dead_worker_fails_its_suites(self, monkeypatch, tmp_path):
        """A worker killed mid-task gives each check of that task a failure
        that names the worker, as a raise does: the first set's algebra and
        irreps suites, which its sector 1 task reads, end at their first
        sector check; the other worker takes the tasks that remain, so every
        other record is the one-process run's."""
        suites = ("specfun", "model", "algebra", "irreps")
        checks, parent, victim = run_with_a_killed_worker(tmp_path, TWO_SETS, (0, 1), suites)
        assert victim != parent
        serial = serial_dicts(monkeypatch, TWO_SETS, suites)
        assert all(c["passed"] for c in serial)
        error = f"worker process {victim} failed: killed by signal 9"
        assert record_dicts(checks) == after_loss(serial, "k=1, a=1, b=1, omega=1", verify._SECTOR_CHECKS, error)
        assert [c["name"] for c in checks if c["suite"] == "algebra"][-1] == "oscillator-realization"
        assert [c["name"] for c in checks if not c["passed"]] == ["algebra-suite", "irreps-suite"]

    def test_one_set_dead_worker_fails_its_suites(self, monkeypatch, tmp_path):
        # the only set loses a sector task: its algebra and irreps suites end at their first sector check; its model
        # records, specfun and the oscillator check stay
        suites = ("specfun", "model", "algebra", "irreps")
        checks, parent, victim = run_with_a_killed_worker(tmp_path, ONE_SET, (0, 2), suites)
        assert victim != parent
        serial = serial_dicts(monkeypatch, ONE_SET, suites)
        error = f"worker process {victim} failed: killed by signal 9"
        assert record_dicts(checks) == after_loss(serial, "k=1.41421, a=1.2, b=0.8, omega=1", verify._SECTOR_CHECKS, error)
        algebra = [c["name"] for c in checks if c["suite"] == "algebra"]
        assert algebra == ["riccati", "riccati-control", "algebra-suite", "oscillator-realization"]
        assert [c["name"] for c in checks if c["suite"] == "irreps"] == ["irreps-suite"]

    def test_dead_worker_fails_the_special_cases(self, monkeypatch, tmp_path):
        """The worker that takes the second set's special-cases task dies:
        that set's part of the suite is one ``special-cases-suite`` record
        that names the worker, and every other record, the first set's
        special cases included, is the one-process run's."""
        config = SuiteConfig(**TWO_SETS)
        victim = (1, "special-cases")
        assert victim in verify._tasks(config)
        checks, parent, victim_pid = run_with_a_killed_worker(tmp_path, TWO_SETS, victim, verify.SUITES)
        assert victim_pid != parent
        serial = serial_dicts(monkeypatch, TWO_SETS, verify.SUITES)
        assert [c for c in serial if c["suite"] == "special-cases"] and all(c["passed"] for c in serial)
        error = f"worker process {victim_pid} failed: killed by signal 9"
        special = verify._CHECK_TASKS["special-cases"][1]
        assert record_dicts(checks) == after_loss(serial, "k=2, a=1.5, b=2.5, omega=1", special, error)
        assert [c["name"] for c in checks if c["suite"] == "special-cases"] == ["sw-pointwise", "sw-superpotential", "special-cases-suite"]

    def test_the_parent_only_coordinates(self, monkeypatch, tmp_path, cold_caches):
        """A pooled run's parent calls none of the check task functions and
        builds no Gauss rule, grid or factor table: the workers do all of
        it.  A one-process run calls every task function, so the pooled
        run cannot pass by calling none of them anywhere."""
        log = tmp_path / "calls"

        def logged(what, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(json.dumps([os.getpid(), what]) + "\n")
                return fn(*args, **kwargs)

            return wrapper

        def calls() -> dict:
            """{pid: what it called} since the last reading."""
            out = collections.defaultdict(set)
            with open(log) as fh:
                for pid, what in map(json.loads, fh):
                    out[pid].add(what)
            log.unlink()
            return out

        producers = set(verify._CHECK_TASKS)
        for name, (fn, computed, runs) in verify._CHECK_TASKS.items():
            monkeypatch.setitem(verify._CHECK_TASKS, name, (logged(name, fn), computed, runs))
        monkeypatch.setattr(verify.specfun, "gauss_rule", logged("rule", verify.specfun.gauss_rule))
        monkeypatch.setattr(verify.model, "gauss_rule", logged("rule", verify.model.gauss_rule))
        monkeypatch.setattr(verify.Grid, "__init__", logged("grid", verify.Grid.__init__))
        monkeypatch.setattr(verify.FactorTable, "__init__", logged("table", verify.FactorTable.__init__))
        config = SuiteConfig(**TWO_SETS)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = run(config)
        in_workers = calls()
        assert os.getpid() not in in_workers and len(in_workers) == 2
        assert set().union(*in_workers.values()) == producers | {"rule", "grid", "table"}
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        serial = run(config)
        assert calls() == {os.getpid(): producers | {"rule", "grid", "table"}}
        assert serial.n_failed == 0, serial.to_text()
        assert record_bits(pooled) == record_bits(serial)

    def test_more_workers_than_cores_take_each_task_once(self, monkeypatch, tmp_path):
        """Six workers share the two sets' tasks through one queue, in a
        fresh process with a timeout: every task runs exactly once, each
        in a worker, and the records equal the one-process records."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
        log = str(tmp_path / "tasks")
        code = (
            "import json, os\n"
            "from ttwsusy import verify\n"
            "run_task = verify._run_task\n"
            "def logged(config, task):\n"
            f"    with open({log!r}, 'a') as fh:\n"
            "        fh.write(json.dumps([os.getpid(), task]) + '\\n')\n"
            "    return run_task(config, task)\n"
            "verify._run_task = logged\n"
            "verify._usable_cpus = lambda: 6\n"
            "print(os.getpid())\n"
            f"report = verify.run(verify.SuiteConfig(**{TWO_SETS!r}))\n"
            "print(json.dumps([(c.name, c.suite, c.params, float(c.residual).hex(), c.tolerance, c.passed, c.error) for c in report.checks]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        parent, records = proc.stdout.strip().splitlines()[-2:]
        with open(log) as fh:
            ran = [json.loads(line) for line in fh]
        config = SuiteConfig(**TWO_SETS)
        tasks = [list(task) for task in verify._tasks(config)]
        assert sorted((task for _, task in ran), key=str) == sorted(tasks, key=str)
        assert int(parent) not in {pid for pid, _ in ran}
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        assert [tuple(r) for r in json.loads(records)] == record_bits(run(config))

    def test_workers_never_wait_on_a_full_pipe(self, monkeypatch, tmp_path):
        """Each task's output is padded past a pipe's 64 KB, in a fresh
        process with two workers and a timeout: both workers keep taking
        tasks until the queue is empty, so neither takes fewer than a
        quarter of them (a worker whose pipe nobody reads stops after
        its first task), and the records equal the one-process records."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
        log = str(tmp_path / "tasks")
        config = {**TWO_SETS, "suites": ("algebra", "irreps")}
        code = (
            "import json, os, time\n"
            "from ttwsusy import verify\n"
            "class Padded(float):\n"
            "    pass\n"
            "run_task = verify._run_task\n"
            "def padded(config, task):\n"
            "    parts, build_ms = run_task(config, task)\n"
            "    build_ms = Padded(build_ms)\n"
            "    build_ms.padding = bytes(80000)\n"
            "    time.sleep(0.01)\n"
            f"    with open({log!r}, 'a') as fh:\n"
            "        fh.write(str(os.getpid()) + '\\n')\n"
            "    return parts, build_ms\n"
            "verify._run_task = padded\n"
            "verify._usable_cpus = lambda: 2\n"
            f"report = verify.run(verify.SuiteConfig(**{config!r}))\n"
            "print(json.dumps([(c.name, c.suite, c.params, float(c.residual).hex(), c.tolerance, c.passed, c.error) for c in report.checks]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        with open(log) as fh:
            per_worker = collections.Counter(line.strip() for line in fh)
        tasks = len(verify._tasks(SuiteConfig(**config)))
        assert len(per_worker) == 2 and sum(per_worker.values()) == tasks
        assert min(per_worker.values()) >= tasks / 4, per_worker
        records = json.loads(proc.stdout.strip().splitlines()[-1])
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        assert [tuple(r) for r in records] == record_bits(run(SuiteConfig(**config)))

    def test_tasks_run_on_one_blas_thread(self, monkeypatch, tmp_path):
        """Every task runs with one OpenBLAS thread, in this process and in
        the workers, and the run restores this process's count."""
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()})
        getters = [getattr(ctypes.CDLL(path), name, None) for path in paths for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_")]
        getters = [get for get in getters if get is not None]
        if not getters:
            pytest.skip("numpy's BLAS is not an OpenBLAS found in /proc/self/maps")
        before = [get() for get in getters]
        run_task = verify._run_task

        def counted(config, task):
            (tmp_path / f"{os.getpid()}-{task[1]}").write_text(json.dumps([get() for get in getters]))
            return run_task(config, task)

        monkeypatch.setattr(verify, "_run_task", counted)
        for cpus in (1, 2):
            monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
            assert run(SuiteConfig(**ONE_SET)).n_failed == 0
            assert [get() for get in getters] == before
        pids = {f.name.split("-")[0] for f in tmp_path.iterdir()}
        assert str(os.getpid()) in pids and len(pids) > 1
        assert {f.read_text() for f in tmp_path.iterdir()} == {json.dumps([1] * len(getters))}

    def test_worker_file_reader_names_a_cut_record(self):
        """A worker file cut anywhere in its second record keeps the first
        output, and names the second task as lost once its index is whole;
        a whole file loses nothing."""
        outputs = {3: ({"casimir": (1.5e-12, 0.25)}, 2.0), 7: ({"structure": ({"[K0,Y] = 0": 0.0}, 0.5)}, 4.0)}
        records = [i.to_bytes(4, "little") + len(data).to_bytes(8, "little") + data for i, data in ((i, pickle.dumps(out)) for i, out in outputs.items())]
        whole = b"".join(records)
        assert verify._read_outputs(io.BytesIO(whole)) == (outputs, None)
        first = len(records[0])
        for cut in range(first + 1, len(whole)):
            lost = 7 if cut >= first + 4 else None
            assert verify._read_outputs(io.BytesIO(whole[:cut])) == ({3: outputs[3]}, lost), cut

    def test_a_task_that_no_worker_file_names_fails_its_set(self, monkeypatch):
        # a worker that dies before its file names the task it took still fails that task's checks, naming the worker
        serial = serial_dicts(monkeypatch, ONE_SET, verify.SUITES)
        parent, run_task, read = os.getpid(), verify._run_task, verify._read_outputs

        def dying(config, task):
            if os.getpid() != parent and task == (0, 2):
                os.kill(os.getpid(), signal.SIGKILL)
            return run_task(config, task)

        monkeypatch.setattr(verify, "_run_task", dying)
        monkeypatch.setattr(verify, "_read_outputs", lambda stream: (read(stream)[0], None))
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        checks = [c.to_dict() for c in run(SuiteConfig(**ONE_SET)).checks]
        errors = {c["error"] for c in checks if not c["passed"]}
        assert len(errors) == 1 and re.fullmatch(r"worker process \d+ failed: killed by signal 9", error := errors.pop())
        assert record_dicts(checks) == after_loss(serial, "k=1.41421, a=1.2, b=0.8, omega=1", verify._SECTOR_CHECKS, error)
        assert [c["name"] for c in checks if not c["passed"]] == ["algebra-suite", "irreps-suite"]

    def test_tasks_run_here_when_no_worker_starts(self, monkeypatch):
        # a fork that fails leaves the queued tasks to this process, with the same records
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        serial = run(SuiteConfig(**ONE_SET))

        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(verify.os, "fork", no_fork)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        assert record_bits(run(SuiteConfig(**ONE_SET))) == record_bits(serial)

    def test_sector_blocks_die_with_their_sector(self, monkeypatch):
        """In one process, each sector's blocks are dropped once its task
        has reduced them: none is alive when the next sector is built, or
        after the run."""
        build = verify.gen.sector_matrices
        refs, alive = [], []

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            block, states = build(*args, **kwargs)
            refs.extend(weakref.ref(m) for m in block.values())
            return block, states

        monkeypatch.setattr(verify.gen, "sector_matrices", tracked)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        config = SuiteConfig(**ONE_SET, suites=("algebra", "irreps"))
        report = run(config)
        assert report.n_failed == 0, report.to_text()
        sectors = config.truncation[1] + 1
        assert alive == [0] * sectors
        assert len(refs) == 8 * sectors and not any(ref() is not None for ref in refs)

    def test_set_job_grids_use_the_configured_orders(self, monkeypatch, cold_caches):
        """Every grid a parameter set's tasks build, directly or through
        the generator and Gram builders, is at the configured orders."""
        init = verify.Grid.__init__
        orders = []

        def recording(self, *args, **kwargs):
            bound = inspect.signature(init).bind(self, *args, **kwargs)
            bound.apply_defaults()
            orders.append((bound.arguments["m_rad"], bound.arguments["m_ang"]))
            init(self, *args, **kwargs)

        monkeypatch.setattr(verify.Grid, "__init__", recording)
        # in one process, so that this process sees every grid
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        per_set_suites = ("model", "algebra", "irreps", "special-cases")
        config = SuiteConfig(**FAST, suites=per_set_suites)
        assert config.quad_orders == (40, 40)
        report = run(config)
        assert {c.suite for c in report.checks} == set(per_set_suites)
        assert report.n_failed == 0, report.to_text()
        assert orders and set(orders) == {(40, 40)}


class TestSetIndependence:
    """A set's records depend on that set and the seed alone, so a set
    gives the same records alone as among other sets."""

    def test_a_sets_records_depend_on_that_set_and_the_seed_alone(self, monkeypatch):
        # the default k = 2 and k = 3 sets, whose special cases draw sample points, each run alone at the default
        # seed, pooled and in one process, against the default four-set run
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        default = record_bits(run(SuiteConfig()))
        for ps in verify.DEFAULT_PARAM_SETS[1:3]:
            label = verify._params_label(model.ModelParams(**ps))
            expected = [bits for bits in default if bits[2] == label]
            assert any(bits[0].startswith(("bc2-", "cmw-")) for bits in expected), label
            for cpus in (2, 1):
                monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
                alone = record_bits(run(SuiteConfig(param_sets=(ps,))))
                assert [bits for bits in alone if bits[2] == label] == expected, (label, cpus)


DEFAULT_SMALL = dict(truncation=(4, 3), quad_orders=(40, 40))


class TestSingleEvaluation:
    """In one process, each grid and each angular value of a set is built
    once, and a second run reads them all from the caches."""

    def test_each_grid_and_angular_factor_is_built_once(self, monkeypatch, cold_caches):
        built = collections.Counter()
        init, value, parts = verify.Grid.__init__, model.AngularRow.value, states.angular_parts

        def counted_grid(self, params, alpha, m_rad=80, m_ang=80):
            built["grid", params, alpha, m_rad, m_ang] += 1
            init(self, params, alpha, m_rad, m_ang)

        def counted_value(self, key, compute):
            def counted():
                # a grid's row has weights; the set's angular nodes name the set
                if self.w_phi is not None:
                    built["kept", self.phi.tobytes(), key] += 1
                return compute()

            return value(self, key, counted)

        def counted_parts(params, m, phi, shift=0):
            # a grid's angular row is (1, m_ang); scattered points are 1-D
            if np.ndim(phi) == 2:
                built["parts", params, shift, m] += 1
            return parts(params, m, phi, shift)

        monkeypatch.setattr(verify.Grid, "__init__", counted_grid)
        monkeypatch.setattr(model.AngularRow, "value", counted_value)
        monkeypatch.setattr(states, "angular_parts", counted_parts)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        first = run(SuiteConfig())
        assert first.n_failed == 0, first.to_text()
        kinds = collections.Counter(key[0] for key in built)
        # each kept value: an angular part or an operator's term table
        assert kinds["grid"] > 60 and kinds["parts"] > 40 and kinds["kept"] > kinds["parts"], kinds
        assert set(built.values()) == {1}, [key for key, count in built.items() if count > 1]
        # every set's factors, not only one set's
        for kind in ("kept", "parts"):
            assert len({key[1] for key in built if key[0] == kind}) == len(verify.DEFAULT_PARAM_SETS)
        once = dict(built)
        second = run(SuiteConfig())
        assert built == once
        assert record_bits(second) == record_bits(first)

    def test_rows_keep_only_functions_of_phi(self, monkeypatch, cold_caches):
        """After a one-process default run, every array a set's angular
        row keeps (angular factors and term-table thetas) has at most
        3 m_ang entries: a 1-D function of phi and its first two
        derivatives, never a spinor factor over the four components."""
        rows = []
        init = verify.Grid.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if all(row is not self.angular for row in rows):
                rows.append(self.angular)

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays_in(item)

        monkeypatch.setattr(verify.Grid, "__init__", recording)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        report = run(SuiteConfig())
        assert report.n_failed == 0, report.to_text()
        assert len(rows) == len(verify.DEFAULT_PARAM_SETS)
        for row in rows:
            m_ang = row.phi.size
            assert row.phi.shape == row.w_phi.shape == (1, m_ang) == (1, SuiteConfig().quad_orders[1])
            sizes = [a.size for value in row._values.values() for a in arrays_in(value)]
            assert len(sizes) > 100 and max(sizes) <= 3 * m_ang, max(sizes)
            assert {key[0] for key in row._values} == {"parts", "terms", "trig"}

    def test_fermion_trig_is_formed_once_per_row(self, monkeypatch, cold_caches):
        """In a one-process default run, each angular row forms the (cos
        phi, sin phi) pair of the one-fermion trig once, however many
        one-fermion spinor factors read it: one pair per set on the
        grids, where each pair serves dozens of factors."""
        formed, reads = [], collections.Counter()
        value, trig = model.AngularRow.value, states._occupation_trig

        def counted_value(self, key, compute):
            def counted():
                formed.append(self)
                return compute()

            return value(self, key, counted if key == ("trig",) else compute)

        def counted_trig(occ, row):
            if states.FERMION_NUMBER[occ] == 1:
                reads[row.w_phi is not None] += 1
            return trig(occ, row)

        monkeypatch.setattr(model.AngularRow, "value", counted_value)
        monkeypatch.setattr(states, "_occupation_trig", counted_trig)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        report = run(SuiteConfig())
        assert report.n_failed == 0, report.to_text()
        assert len({id(row) for row in formed}) == len(formed)
        on_grids = [row for row in formed if row.w_phi is not None]
        assert len(on_grids) == len(verify.DEFAULT_PARAM_SETS)
        assert reads[True] >= 20 * len(on_grids) and reads[False] > len(formed) - len(on_grids), (reads, len(formed))


class TestDealing:
    """With two workers, each takes its own sets' tasks first, and so
    builds their Gauss rules once."""

    @staticmethod
    def logged_run(monkeypatch, tmp_path, config):
        """(pooled report, {worker pid: its own pipe's place w}, [(pid, task)]
        in the order each worker took them), with two workers."""
        log, own = tmp_path / "tasks", tmp_path / "own"
        run_task, worker = verify._run_task, verify._worker

        def logged(config, task):
            with open(log, "a") as fh:
                fh.write(json.dumps([os.getpid(), task]) + "\n")
            time.sleep(0.005)
            return run_task(config, task)

        def placed(config, tasks, queues, out):
            # the pipes are made in the order of w, so their read ends rise with it
            with open(own, "a") as fh:
                fh.write(json.dumps([os.getpid(), sorted(queues).index(queues[0])]) + "\n")
            worker(config, tasks, queues, out)

        monkeypatch.setattr(verify, "_run_task", logged)
        monkeypatch.setattr(verify, "_worker", placed)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        report = run(config)
        with open(own) as fh:
            places = dict(json.loads(line) for line in fh)
        with open(log) as fh:
            ran = [(pid, tuple(task)) for pid, task in map(json.loads, fh)]
        return report, places, ran

    def test_workers_take_their_own_sets_first(self, monkeypatch, tmp_path):
        config = SuiteConfig(**DEFAULT_SMALL)
        pooled, places, ran = self.logged_run(monkeypatch, tmp_path, config)
        assert sorted(places.values()) == [0, 1] and os.getpid() not in places
        for pid, w in places.items():
            taken = [task for p, task in ran if p == pid]
            assert taken and taken[0][0] % 2 == w, (w, taken[:3])
        assert sorted((task for _, task in ran), key=str) == sorted(verify._tasks(config), key=str)
        assert {pid for pid, _ in ran} == set(places)
        monkeypatch.undo()
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        assert record_bits(pooled) == record_bits(run(config))

    def test_one_set_is_spread_over_both_workers(self, monkeypatch, tmp_path):
        config = SuiteConfig(**ONE_SET)
        pooled, places, ran = self.logged_run(monkeypatch, tmp_path, config)
        per_worker = collections.Counter(pid for pid, _ in ran)
        tasks = len(verify._tasks(config))
        assert set(per_worker) == set(places) and sum(per_worker.values()) == tasks
        assert min(per_worker.values()) >= tasks / 4, per_worker
        monkeypatch.undo()
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        assert record_bits(pooled) == record_bits(run(config))

    def test_no_process_builds_a_rule_twice(self, monkeypatch, tmp_path, cold_caches):
        log = tmp_path / "rules"
        parent = os.getpid()

        def logging(where, build):
            def logged(kind, order, alpha=0.0, beta=0.0):
                with open(log, "a") as fh:
                    fh.write(json.dumps([os.getpid(), where, kind, order, alpha, beta]) + "\n")
                return build(kind, order, alpha, beta)

            return logged

        monkeypatch.setattr(verify.model, "gauss_rule", logging("model", verify.model.gauss_rule))
        monkeypatch.setattr(verify.specfun, "gauss_rule", logging("specfun", verify.specfun.gauss_rule))
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        report = run(SuiteConfig())
        assert report.n_failed == 0, report.to_text()
        with open(log) as fh:
            builds = [tuple(line) for line in map(json.loads, fh)]
        per_pid = collections.defaultdict(list)
        for pid, *rule in builds:
            per_pid[pid].append(tuple(rule))
        for pid, rules in per_pid.items():
            assert len(rules) == len(set(rules)), pid
        # this process builds none; the specfun check's five are built once, by one worker
        assert parent not in per_pid
        assert len(per_pid) == 2
        specfun_rules = [(pid, rule) for pid, rules in per_pid.items() for rule in rules if rule[0] == "specfun"]
        assert len(specfun_rules) == 5 and len({pid for pid, _ in specfun_rules}) == 1, specfun_rules
        # the grids' rules: about 110 while every worker met every set's tasks
        grid_rules = [len([rule for rule in rules if rule[0] == "model"]) for rules in per_pid.values()]
        assert sum(grid_rules) < 100, grid_rules


class TestRadialPasses:
    """Each pointwise check task hands a table all of its states in one
    call, so one radial pass per (sector, one-fermion) key of that call
    serves every level, and ``eigenvalue-residual`` and ``spectrum``
    share their bundles."""

    @staticmethod
    def calls_per_task(monkeypatch, modules, attr, tasks, suites=("all",)):
        """{task: the argument tuples of the calls of the function ``attr``
        of ``modules`` (all bound to the same function) made while the
        task (a check task's name or a sector n) ran}, on the FAST set
        with the given suites."""
        calls = []
        fn = getattr(modules[0], attr)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, attr, counted)
        config = SuiteConfig(**FAST, suites=suites)
        out = {}
        for task in tasks:
            seen = len(calls)
            parts, _ = verify._run_task(config, (0, task))
            assert not any(isinstance(value, verify._TaskError) for value, _ in parts.values()), parts
            out[task] = calls[seen:]
        return out

    @classmethod
    def passes(cls, monkeypatch, task, suites=("all",)) -> int:
        """radial_levels calls made by one check task."""
        return len(cls.calls_per_task(monkeypatch, [states], "radial_levels", [task], suites)[task])

    def test_eigenvalue_residual(self, monkeypatch):
        assert self.passes(monkeypatch, "eigen-images", suites=("model",)) == 7

    def test_spectrum(self, monkeypatch):
        assert self.passes(monkeypatch, "eigen-images", suites=("algebra",)) == 7
        # with both suites, the two checks share the seven passes
        assert self.passes(monkeypatch, "eigen-images") == 7

    def test_odd_action_fields(self, monkeypatch):
        # per sector n = 0, 1, 2: the odd grid's zero-fermion bundles, its
        # closed-form V images and the even grid's bundles, one pass each
        assert self.passes(monkeypatch, "odd-action-fields") == 9

    def test_one_fermion_overlap(self, monkeypatch):
        # one pass for the rows and columns of each projected sector n = 1,
        # 2, which share their one-fermion key, then one for all eight n = 0
        # one-fermion fields (the n = 0 two-fermion states vanish, so their
        # call evaluates no factor)
        assert self.passes(monkeypatch, "one-fermion-overlap") == 3

    def test_block_diagonality_reads_the_basis(self, monkeypatch):
        # the level-1 states come from one level <= 1 basis of each of the
        # sectors 0, 1 and 2; a sector task builds its sector's basis once
        calls = self.calls_per_task(monkeypatch, [verify.irreps, verify.gen], "sector_basis", ["block-diagonality", 1])
        assert [args[1:] for args in calls["block-diagonality"]] == [(0, 1), (1, 1), (2, 1)]
        assert [args[1:] for args in calls[1]] == [(1, FAST["truncation"][0])]


class TestCheckTable:
    """``_CHECKS`` lists every check of the five suites once, and every
    check but ``susy-anticommutator``, which is read off ``structure``, is
    computed by exactly one task (``tests/test_acceptance.py`` pins the
    order)."""

    def test_every_computed_check_is_listed_once(self):
        assert tuple(verify._CHECKS) == verify.SUITES == ("specfun", "model", "algebra", "irreps", "special-cases")
        listed = [check for checks in verify._CHECKS.values() for check, _, _ in checks]
        computed = [check for _, checks, _ in verify._CHECK_TASKS.values() for check in checks] + list(verify._SECTOR_CHECKS)
        assert len(listed) == len(set(listed))
        assert sorted(computed) == sorted(set(listed) - {"susy-anticommutator"})


class TestFieldResiduals:
    """``_max_abs``, the residual helper of the pointwise checks, reads
    compact fields as their dense four rows read."""

    @staticmethod
    def images():
        """(a zero-fermion state's bundle on a sector-1 grid, its W+, W-, V+
        and Hs images, the table)."""
        from ttwsusy.generators import apply_operators
        from ttwsusy.irreps import zero_fermion_state
        from ttwsusy.model import Grid, ModelParams

        p = ModelParams(**FAST["param_sets"][0])
        grid = Grid.for_pair(p, 1, 1, 20, 20)
        table = states.FactorTable(p, grid.r, grid.phi)
        (bundle,) = table.bundles([zero_fermion_state(p, 2, 1)])
        return bundle, apply_operators(("W+", "W-", "V+", "Hs"), bundle, table), table

    def test_an_image_that_reaches_no_component_reads_zero(self):
        # W+- annihilate a zero-fermion state: no row at all, as in odd-action-fields
        _, (w_plus, w_minus, v_plus, _), table = self.images()
        for image in (w_plus, w_minus):
            assert image.reached == () and image.rows.shape == (0, *table.shape)
            assert not image.dense().any()
            for value in (verify._max_abs(image), verify._max_abs(image, image), verify._deviation(image, image, image)):
                assert value == 0.0 and type(value) is float
            # against a field that reaches components, only that field counts
            assert verify._max_abs(image, v_plus) == verify._max_abs(v_plus) > 0.0

    def test_compact_fields_read_as_their_dense_rows(self):
        bundle, (_, _, v_plus, hs), _ = self.images()
        field = bundle.field
        assert field.reached == hs.reached == (0,) and v_plus.reached == (1, 2)
        for f, g in ((hs, field), (v_plus, field), (field, v_plus), (v_plus, v_plus)):
            dense = float(np.max(np.abs(f.dense() - g.dense())))
            assert verify._max_abs(f, g) == dense
            assert verify._deviation(f, g, g) == dense / max(float(np.max(np.abs(g.dense()))), 1.0)


class TestCli:
    def test_exit_zero_on_success(self, capsys):
        rc = main(["verify", "--suite", "model", "--param", "k=2,a=1.5,b=2.5"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_counts_failures(self, tmp_path, capsys):
        cfg = dict(FAST)
        cfg["param_sets"] = list(cfg["param_sets"])
        cfg["suites"] = ["model"]
        cfg["tolerances"] = {"model.orthonormality": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(path)])
        assert rc >= 1
        capsys.readouterr()

    def test_json_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                "--suite",
                "model",
                "--param",
                "k=1,a=1,b=1",
                "--format",
                "json",
                "--out",
                str(out),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        doc = strict_loads(out.read_text())
        assert doc["config"]["seed"] == 3
        capsys.readouterr()

    def test_out_into_missing_directory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "run", lambda config: ran.append(config))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "specfun", "--out", str(tmp_path / "missing" / "r.json")])
        assert exc.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not ran, "the suites ran before the output path was checked"

    def test_env_var_config(self, tmp_path, monkeypatch, capsys):
        cfg = dict(FAST)
        cfg["param_sets"] = list(cfg["param_sets"])
        cfg["suites"] = ["model"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("TTWSUSY_CONFIG", str(path))
        rc = main(["verify"])
        assert rc == 0
        capsys.readouterr()

    def test_nmax_flag(self, capsys):
        rc = main(["verify", "--suite", "model", "--nmax", "2", "--param", "k=1,a=1,b=1"])
        assert rc == 0
        capsys.readouterr()

    def test_bad_param_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--param", "k=2,a=1.5"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "param, message",
        [
            ("k=2,a=1.5", "parameter set {'k': 2.0, 'a': 1.5, 'omega': 1.0}: missing key 'b'"),
            ("k=2,a=1,b=1,zeta=3", "parameter set {'k': 2.0, 'a': 1.0, 'b': 1.0, 'zeta': 3.0, 'omega': 1.0}: unknown key 'zeta'"),
            ("k=inf,a=1,b=1", "parameter set {'k': inf, 'a': 1.0, 'b': 1.0, 'omega': 1.0}: k must be a finite real number, got inf"),
        ],
        ids=["missing-key", "unknown-key", "inf"],
    )
    def test_param_keys_are_checked_by_suite_config(self, capsys, param, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--param", param])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_quad_orders_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quad_orders": [0, 0]}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code == 2
        assert "quad_orders must be two integers >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "truncation, extra",
        [([8], []), ([8], ["--nmax", "5"]), ([4.5, 3], []), ([8, 6, 4], []), (8, []), (8, ["--nmax", "5"])],
        ids=["one", "one-nmax", "float", "three", "scalar", "scalar-nmax"],
    )
    def test_bad_truncation_rejected(self, tmp_path, capsys, truncation, extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"truncation": truncation}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path), *extra])
        assert exc.value.code == 2
        assert "truncation must be two integers >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"param_sets": [{"k": -1, "a": 1, "b": 1}]}, "k must be positive"),
            ({"param_sets": [{"k": 1, "a": 1, "b": 1, "bb": 1}]}, "unknown key 'bb'"),
            ({"tolerances": {"model.eigenvalue": True}}, "tolerance 'model.eigenvalue'"),
            ({"tolerances": {"model.eigenvalue": "1e-8"}}, "tolerance 'model.eigenvalue'"),
        ],
        ids=["negative-k", "unknown-key", "bool-tolerance", "string-tolerance"],
    )
    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, extra, message",
        [
            ([1], [], "a config must be a JSON object"),
            ([1], ["--suite", "specfun"], "a config must be a JSON object"),
            ({"suites": 5}, [], "suites must be a list"),
            ({"suites": [["model"]]}, [], "suites must be a list"),
            ({"tolerances": [1]}, ["--suite", "specfun"], "tolerances must be a mapping"),
            ({"seed": [1]}, ["--suite", "specfun"], "seed must be an integer"),
            ({"seed": True}, ["--suite", "specfun"], "seed must be an integer"),
        ],
        ids=[
            "not-an-object",
            "not-an-object-suite",
            "suites-not-a-list",
            "suites-nested",
            "tolerances-not-a-mapping",
            "seed-list",
            "seed-bool",
        ],
    )
    def test_bad_config_type_is_a_usage_error(self, tmp_path, capsys, data, extra, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path), *extra])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_sets_sharing_a_label_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--param", "k=1,a=1,b=1", "--param", "k=1.0000001,a=1,b=1"])
        assert exc.value.code == 2
        assert "share the report label 'k=1, a=1, b=1, omega=1'" in capsys.readouterr().err

    def test_bad_key_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--param", "k=2,a=1,b=1,zeta=3"])
        capsys.readouterr()

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default it meant to override
        data = {"truncaton": [3, 2], "quad_orderz": [4, 4]}
        with pytest.raises(ValueError, match="unknown config key 'quad_orderz', 'truncaton'"):
            SuiteConfig.from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code == 2
        assert "unknown config key 'quad_orderz', 'truncaton'" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SuiteConfig(seed=-1)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1", "--suite", "algebra"])
        assert exc.value.code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err


def test_runs_without_scipy(tmp_path):
    """A fresh process imports the package and runs all five suites, first
    for one parameter set in this process (one usable CPU), then for two
    sets with two forced workers, without importing scipy, any of its
    submodules, ``numpy.random`` or ``fractions`` (the series oracles sum
    in plain integers), in this process or in a worker after any task.
    Neither importing the package nor either run, with its workers,
    loads multiprocessing or concurrent.futures."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    code = (
        "import os, sys, ttwsusy\n"
        "from ttwsusy import verify\n"
        "def loaded(*prefixes):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'multiprocessing', 'concurrent') + prefixes or m.startswith('numpy.random'))\n"
        "parent, run_task = os.getpid(), verify._run_task\n"
        "def task_then_modules(config, task):\n"
        "    out = run_task(config, task)\n"
        "    if os.getpid() != parent:\n"
        f"        open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w').close()\n"
        "    assert not loaded(), loaded()\n"
        "    return out\n"
        "verify._run_task = task_then_modules\n"
        "print(loaded())\n"
        "verify._usable_cpus = lambda: 1\n"
        f"report = verify.run(verify.SuiteConfig(**{FAST!r}))\n"
        "assert report.n_failed == 0, report.to_text()\n"
        "print(loaded())\n"
        "verify._usable_cpus = lambda: 2\n"
        f"report = verify.run(verify.SuiteConfig(**{TWO_SETS!r}))\n"
        "assert report.n_failed == 0, report.to_text()\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-3:] == ["[]", "[]", "[]"]
    assert list(tmp_path.iterdir()), "no task ran in a worker"


def test_report_bodies_names_each_difference():
    from report_bodies import differences

    body = strip_volatile(json.loads(run(SuiteConfig(**{**FAST, "suites": ["model"]})).to_json()))
    changed = json.loads(json.dumps(body))
    changed["checks"][1]["residual"] *= 2.0
    changed["summary"]["passed"] -= 1
    names = [f"{c['name']} [{c['params']}]" for c in body["checks"]]
    residual, tolerance = body["checks"][1]["residual"], body["checks"][1]["tolerance"]
    assert differences({"run": body}, {"run": body}) == []
    def worst(b):
        return f"{max(c['residual'] / c['tolerance'] for c in b['checks']):.6g}"

    def moved(by):
        return f"largest move {by:.3g} / tolerance at {names[1]}"

    assert differences({"run": body}, {"run": changed}) == [
        f"run: {names[1]} {residual!r} -> {2.0 * residual!r}",
        "run: summary",
        f"run: 1 records moved, 1 up; worst margin {worst(body)} -> {worst(changed)}; {moved(residual / tolerance)}; 0 passed flipped",
    ]
    # a record that moves down is not counted as up; one that becomes the
    # closest to failing sets the worst margin; one that fails flips
    lower, closer, failing = (json.loads(json.dumps(body)) for _ in range(3))
    lower["checks"][1]["residual"] *= 0.5
    closer["checks"][1]["residual"] = 0.9 * tolerance
    failing["checks"][1].update(residual=2.0 * tolerance, passed=False)
    assert differences({"run": body}, {"run": lower})[-1] == (
        f"run: 1 records moved, 0 up; worst margin {worst(body)} -> {worst(lower)}; {moved(0.5 * residual / tolerance)}; 0 passed flipped"
    )
    assert differences({"run": body}, {"run": closer})[-1] == (
        f"run: 1 records moved, 1 up; worst margin {worst(body)} -> 0.9; {moved(abs(0.9 * tolerance - residual) / tolerance)}; 0 passed flipped"
    )
    assert differences({"run": body}, {"run": failing})[-1].endswith(f"{moved((2.0 * tolerance - residual) / tolerance)}; 1 passed flipped")
    # a run in one file only differs in every check and part, and moves no residual
    only_new = differences({"run": body}, {"run": body, "new": body})
    absent = [f"new: {name} absent -> {c['residual']!r}" for name, c in zip(names, body["checks"])]
    assert only_new[-1] == (
        f"new: {len(names)} records moved, 0 up; worst margin absent -> {worst(body)}; largest move 0 / tolerance at none; 0 passed flipped"
    )
    assert sorted(only_new[:-1]) == sorted(absent + ["new: config", "new: schema", "new: summary"])
