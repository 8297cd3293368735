import json
import math
import time

import pytest

from ttwsusy import verify
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

    def test_bad_key_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--param", "k=2,a=1,b=1,zeta=3"])
        capsys.readouterr()
