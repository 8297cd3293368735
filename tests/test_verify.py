import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ttwsusy import states, verify
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


def fraction_laguerre(N, alpha, z):
    """Reference series oracle: the exact Fraction sum, rounded once."""
    af = Fraction(alpha)
    coeffs = [Fraction(-1) ** j / math.factorial(j) * verify._binom_frac(af + N, N - j) for j in range(N + 1)]
    return np.array([float(sum(c * Fraction(float(zv)) ** j for j, c in enumerate(coeffs))) for zv in z])


def fraction_jacobi(n, alpha, beta, x):
    af, bf = Fraction(alpha), Fraction(beta)
    coeffs = [verify._binom_frac(af + n, n - j) * verify._binom_frac(bf + n, j) for j in range(n + 1)]
    out = []
    for xv in x:
        xf = Fraction(float(xv))
        lo, hi = (xf - 1) / 2, (xf + 1) / 2
        out.append(float(sum(c * lo**j * hi ** (n - j) for j, c in enumerate(coeffs))))
    return np.array(out)


class TestSeriesOracle:
    """The integer-arithmetic oracles round the same exact rational as the
    Fraction sums, so they agree bit for bit."""

    def test_laguerre_equals_fraction_sum(self):
        z = np.concatenate([np.linspace(0.05, 30.0, 41), [1e-300, 700.0]])
        for N in range(13):
            for alpha in (-0.4, 0.0, 0.7, 2.5, 10.0):
                assert np.array_equal(verify._series_laguerre(N, alpha, z), fraction_laguerre(N, alpha, z)), (N, alpha)

    def test_jacobi_equals_fraction_sum(self):
        edge = 1.0 - 2.0**-52
        x = np.concatenate([np.linspace(-0.999, 0.999, 41), [-edge, edge]])
        for n in range(13):
            for alpha, beta in ((-0.4, 0.3), (0.5, 0.5), (1.5, 0.5), (10.0, 2.0)):
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
        def slow_second(config):
            yield ("first", "yielded at once", None, 0.0, "model.identity")
            time.sleep(0.2)
            yield ("second", "yielded after a pause", None, 0.0, "model.identity")

        monkeypatch.setattr(verify, "_checks_model", slow_second)
        first, second = run(SuiteConfig(**FAST, suites=("model",))).checks
        assert 0.0 <= first.wall_ms < 200.0
        assert second.wall_ms >= 200.0

    def test_matrix_build_reported_separately(self, monkeypatch, fast_report):
        build = verify.gen.generator_matrices

        def slow_build(*args, **kwargs):
            time.sleep(0.3)
            return build(*args, **kwargs)

        monkeypatch.setattr(verify.gen, "generator_matrices", slow_build)
        t0 = time.perf_counter()
        report = run(SuiteConfig(**FAST, suites=("algebra",)))
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        (label,) = {c.params for c in report.checks if c.params}
        assert set(report.matrices_ms) == {label}
        assert report.matrices_ms[label] >= 300.0
        # the check that triggered the lazy build is not charged for it
        trigger = next(c for c in report.checks if c.name.startswith("structure["))
        assert trigger.wall_ms < 300.0
        accounted = sum(c.wall_ms for c in report.checks) + report.matrices_ms[label]
        assert 0.95 * elapsed_ms <= accounted <= elapsed_ms
        doc = strict_loads(report.to_json())
        assert doc["matrices_ms"] == {label: round(report.matrices_ms[label], 3)}
        assert strict_loads(fast_report.to_json())["matrices_ms"] == {}

    def test_nan_in_one_sector_reaches_the_report(self, monkeypatch):
        build = verify.gen.generator_matrices
        truncation = (3, 3)

        # NaN at an interior entry of the V+ block of sector 1, neither the first nor the last sector with an interior
        def planted_build(*args, **kwargs):
            blocks, basis = build(*args, **kwargs)
            inner = verify.gen.interior_mask(basis, truncation)[[s.n == 1 for s in basis]]
            i = np.flatnonzero(inner)[1]
            blocks[1]["V+"][i, i] = np.nan
            return blocks, basis

        monkeypatch.setattr(verify.gen, "generator_matrices", planted_build)
        report = run(SuiteConfig(**dict(FAST, truncation=truncation), suites=("algebra",)))
        structure = [c for c in strict_loads(report.to_json())["checks"] if c["name"].startswith("structure[")]
        assert len(structure) == len(verify.gen.RELATIONS)
        for check in structure:
            assert (check["status"] == "non-finite") == ("V+" in check["claim"]), check["name"]

    def test_crashing_suite_keeps_yielded_checks_and_writes_standard_json(self, monkeypatch):
        def crashing_model(config):
            yield ("before-crash", "a check yielded before the suite fails", None, 0.0, "model.identity")
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "_checks_model", crashing_model)
        report = run(SuiteConfig(**FAST, suites=("model",)))
        assert [c.name for c in report.checks] == ["before-crash", "model-suite"]
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

    def test_block_diagonality_sees_a_sector_coupling_term(self, monkeypatch):
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


def record_bits(report):
    return [(c.name, c.suite, c.params, float(c.residual).hex(), c.tolerance, c.passed, c.error) for c in report.checks]


def report_body(report) -> str:
    return json.dumps(strip_volatile(strict_loads(report.to_json())), indent=2, sort_keys=True)


class TestParallelRun:
    """The per-set jobs give the same records in forked workers as in this
    process; the pool is forced by patching the usable-CPU count."""

    def run_both(self, monkeypatch, tmp_path, config):
        """(in-process report, pooled report, pids that built matrices in the pooled run)."""
        build = verify.gen.generator_matrices

        def marked_build(*args, **kwargs):
            (tmp_path / str(os.getpid())).touch()
            return build(*args, **kwargs)

        monkeypatch.setattr(verify.gen, "generator_matrices", marked_build)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        serial = run(config)
        assert {f.name for f in tmp_path.iterdir()} <= {str(os.getpid())}
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        pooled = run(config)
        return serial, pooled, {int(f.name) for f in tmp_path.iterdir()} - {os.getpid()}

    def test_pool_gives_the_in_process_records(self, monkeypatch, tmp_path):
        serial, pooled, workers = self.run_both(monkeypatch, tmp_path, SuiteConfig(**TWO_SETS))
        assert workers, "no worker process built a matrix"
        assert serial.n_failed == 0, serial.to_text()
        assert record_bits(pooled) == record_bits(serial)
        assert report_body(pooled) == report_body(serial)
        assert list(pooled.matrices_ms) == list(serial.matrices_ms) == [c.params for c in serial.checks if c.name == "riccati"]
        suites = [c.suite for c in serial.checks]
        assert suites == sorted(suites, key=verify.SUITES.index)
        assert [c.name for c in serial.checks if c.suite == "algebra"][-1] == "oscillator-realization"

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
        algebra = [c for c in serial.checks if c.suite == "algebra"]
        first, second = (c.params for c in serial.checks if c.name == "riccati")
        # set 1 complete, set 2 up to the failing check, one suite record, no oscillator check
        assert [c.name for c in algebra if c.params == first][-1] == "scaling-conditions"
        assert [c.name for c in algebra if c.params == second][-1] == "susy-anticommutator"
        assert algebra[-1].name == "algebra-suite" and "planted failure" in algebra[-1].error
        assert "oscillator-realization" not in [c.name for c in algebra]
        assert all(c.passed for c in serial.checks if c.suite != "algebra")

    def test_dead_worker_fails_its_suites(self):
        """A worker that exits mid-job gives failed ``<suite>-suite`` records,
        not an exception; run in a fresh process, so a hang meets a timeout."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
        code = (
            "import json, os\n"
            "from ttwsusy import verify\n"
            "parent, checks_model = os.getpid(), verify._checks_model\n"
            "def dying(config):\n"
            "    if os.getpid() != parent and config.param_sets[0]['k'] == 1.0:\n"
            "        os._exit(3)\n"
            "    return checks_model(config)\n"
            "verify._checks_model = dying\n"
            "verify._usable_cpus = lambda: 2\n"
            f"config = verify.SuiteConfig(**{TWO_SETS!r}, suites=('specfun', 'model', 'algebra', 'irreps'))\n"
            "print(json.dumps([c.to_dict() for c in verify.run(config).checks]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        checks = json.loads(proc.stdout.strip().splitlines()[-1])
        # the first set's job is lost, so each per-set suite ends there
        assert [c["name"] for c in checks if c["suite"] != "specfun"] == ["model-suite", "algebra-suite", "irreps-suite"]
        for c in checks:
            assert c["passed"] == (c["suite"] == "specfun"), c["name"]
        assert all("worker process failed" in c["error"] for c in checks if c["suite"] != "specfun")


class TestRadialPasses:
    """The pointwise loops over N ask each grid's table for its top level
    first, so one radial pass per sector grid serves all seven states."""

    @staticmethod
    def passes_per_check(monkeypatch, checks):
        """{check name: radial_levels calls made while computing it}."""
        calls = []
        levels = states.radial_levels

        def counted(*args, **kwargs):
            calls.append(1)
            return levels(*args, **kwargs)

        monkeypatch.setattr(states, "radial_levels", counted)
        out, seen = {}, 0
        for name, *_ in checks:
            out[name], seen = len(calls) - seen, len(calls)
        return out

    def test_eigenvalue_residual(self, monkeypatch):
        config = SuiteConfig(**FAST)
        assert self.passes_per_check(monkeypatch, verify._checks_model(config))["eigenvalue-residual"] == 7

    def test_spectrum(self, monkeypatch):
        config = SuiteConfig(**FAST)
        (p,) = config.models()
        workspaces = {verify._params_label(p): verify._Workspace(p, config)}
        assert self.passes_per_check(monkeypatch, verify._checks_algebra(config, workspaces))["spectrum"] == 7


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
            ({"tolerances": [1]}, ["--suite", "specfun"], "tolerances must be a mapping"),
            ({"seed": [1]}, ["--suite", "specfun"], "seed must be an integer"),
            ({"seed": True}, ["--suite", "specfun"], "seed must be an integer"),
        ],
        ids=["not-an-object", "not-an-object-suite", "suites-not-a-list", "tolerances-not-a-mapping", "seed-list", "seed-bool"],
    )
    def test_bad_config_type_is_a_usage_error(self, tmp_path, capsys, data, extra, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path), *extra])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

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


def test_runs_without_scipy():
    """A fresh process imports the package and runs the specfun and model
    suites of one parameter set without importing scipy or any of its
    submodules.  Neither importing the package nor a run that needs no
    worker pool loads multiprocessing or concurrent.futures."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    code = (
        "import sys, ttwsusy\n"
        "from ttwsusy import verify\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent'))\n"
        "print(loaded())\n"
        f"config = verify.SuiteConfig(**{FAST!r}, suites=('specfun', 'model'))\n"
        "report = verify.run(config)\n"
        "assert report.n_failed == 0, report.to_text()\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
