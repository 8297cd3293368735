"""Write the JSON report bodies of a fixed set of verification runs, or
compare two such files.

    PYTHONPATH=src python tests/report_bodies.py OUT.json
    python tests/report_bodies.py OLD.json NEW.json

The runs are four perfbench workloads at fixed seeds, acceptance at
seeds 1 and 20260809, truncation-16x10 at seed 1 and pointwise at seed 7,
and the omega runs of ``tests/test_omega.py`` (``omega_config``: k = 1,
2, 3 at omega = 1e-8, 1e4 and 1e8), so that compare mode also lists every
reading that moves away from omega = 1.  The timings (every check's ``wall_ms`` and the report's ``matrices_ms``) are
dropped, so a change that keeps every residual gives a byte-identical
file.  Each run is made twice, with the tasks pooled over two worker
processes and with them run in this one process (``verify._usable_cpus``
forced to 2 and to 1); the pooled bodies are written, and the script
lists how the one-process bodies differ from them, as below, and exits
1 if they do.  Given two files, the script prints, per run, each check whose
record differs (or is in one file only) as ``run: name [params] old ->
new`` with its residual in each file (``absent`` in a file that lacks
it), and each other differing part of the body as ``run: part``, and
ends each differing run's listing with a summary line: how many records
moved and how many of them went up, the run's worst margin (residual /
tolerance) before -> after, the largest move |new - old| / tolerance
with its record, and how many records' ``passed`` flipped.  So a change
that moves residuals at roundoff only reads so from that one line.  It
exits 1 when anything differs.  Not a pytest module (pytest collects only
test_*.py); the seven runs take a few seconds in each mode.
"""

import importlib.util
import json
import sys
from pathlib import Path

RUNS = (("acceptance", 1), ("acceptance", 20260809), ("truncation-16x10", 1), ("pointwise", 7))
OMEGAS = (1e-8, 1e4, 1e8)


def omega_config(omega: float) -> dict:
    """The payload of an omega run: k = 1, 2 and 3, each with its special
    cases, at a = 1.2, b = 0.8 and this omega, truncation (4, 3), 40 x 40
    orders, every suite."""
    param_sets = [{"k": k, "a": 1.2, "b": 0.8, "omega": omega} for k in (1.0, 2.0, 3.0)]
    return {"param_sets": param_sets, "truncation": [4, 3], "quad_orders": [40, 40]}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_body(payload: dict) -> dict:
    """The run's JSON report without its timings."""
    # imported here, so that comparing two files needs no PYTHONPATH
    from ttwsusy.verify import SuiteConfig, run

    body = json.loads(run(SuiteConfig.from_dict(payload)).to_json())
    del body["matrices_ms"]
    for check in body["checks"]:
        del check["wall_ms"]
    return body


def bodies(workloads, cpus: int) -> dict:
    """The body of every run with ``verify._usable_cpus`` giving ``cpus``:
    2 pools the tasks over two workers, 1 runs them in this process."""
    from ttwsusy import verify

    usable = verify._usable_cpus
    verify._usable_cpus = lambda: cpus
    try:
        payloads = {f"{name}@{seed}": workloads.config_dict(name, seed) for name, seed in RUNS}
        payloads.update({f"omega@{omega:g}": omega_config(omega) for omega in OMEGAS})
        return {run_name: report_body(payload) for run_name, payload in payloads.items()}
    finally:
        verify._usable_cpus = usable


def _residuals(records) -> str:
    """The residuals of a check's records in one file, or ``absent``."""
    return ", ".join(repr(c["residual"]) for c in records) if records else "absent"


def _worst_margin(body: dict) -> str:
    """The largest residual / tolerance of a body's records, or ``absent``."""
    margins = [c["residual"] / c["tolerance"] for c in body.get("checks", []) if c.get("residual") is not None and c.get("tolerance")]
    return f"{max(margins):.6g}" if margins else "absent"


def _went_up(before, after) -> bool:
    """Whether a record's largest residual grew (a record in one file only did not)."""
    res = [[c["residual"] for c in records if c.get("residual") is not None] for records in (before or [], after or [])]
    return all(res) and max(res[1]) > max(res[0])


def _moves(before, after) -> tuple[float, int]:
    """The largest |new - old| / tolerance over a check's records paired in
    order (0.0 when no pair has both residuals and a tolerance), and how
    many of those pairs flipped ``passed``."""
    pairs = list(zip(before or [], after or []))
    moves = [
        abs(b["residual"] - a["residual"]) / a["tolerance"]
        for a, b in pairs
        if a.get("residual") is not None and b.get("residual") is not None and a.get("tolerance")
    ]
    return max(moves, default=0.0), sum(a.get("passed") != b.get("passed") for a, b in pairs)


def differences(old: dict, new: dict) -> list[str]:
    """``run: name [params] old -> new`` (the residuals) for each check
    record that differs between two files' bodies, ``run: part`` for each
    other differing part, and per differing run a closing ``run: M records
    moved, U up; worst margin before -> after; largest move X / tolerance
    at name [params]; F passed flipped``."""
    out = []
    for run_name in sorted(old.keys() | new.keys()):
        a, b = old.get(run_name, {}), new.get(run_name, {})
        checks = [{}, {}]
        for records, body in zip(checks, (a, b)):
            for c in body.get("checks", []):
                records.setdefault((c["name"], c["params"]), []).append(c)
        moved = up = flipped = 0
        largest, largest_at = 0.0, "none"
        lines = []
        for name, params in sorted(checks[0].keys() | checks[1].keys(), key=str):
            before, after = (c.get((name, params)) for c in checks)
            if before != after:
                moved += 1
                up += _went_up(before, after)
                move, flips = _moves(before, after)
                flipped += flips
                if move > largest:
                    largest, largest_at = move, f"{name} [{params}]"
                lines.append(f"{run_name}: {name} [{params}] {_residuals(before)} -> {_residuals(after)}")
        lines += [f"{run_name}: {part}" for part in sorted((a.keys() | b.keys()) - {"checks"}) if a.get(part) != b.get(part)]
        if lines:
            summary = (
                f"{moved} records moved, {up} up; worst margin {_worst_margin(a)} -> {_worst_margin(b)}; "
                f"largest move {largest:.3g} / tolerance at {largest_at}; {flipped} passed flipped"
            )
            out += lines + [f"{run_name}: {summary}"]
    return out


def main(argv) -> int:
    if len(argv) == 2:
        old, new = (json.loads(Path(path).read_text()) for path in argv)
        diff = differences(old, new)
        print("\n".join(diff) if diff else "no run differs")
        return 1 if diff else 0
    if len(argv) != 1:
        print("usage: python tests/report_bodies.py OUT.json | OLD.json NEW.json", file=sys.stderr)
        return 2
    workloads = _workloads()
    pooled, here = bodies(workloads, 2), bodies(workloads, 1)
    Path(argv[0]).write_text(json.dumps(pooled, indent=2, sort_keys=True) + "\n")
    diff = differences(pooled, here)
    print("pooled -> one process:\n" + "\n".join(diff) if diff else "pooled and one-process bodies agree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
