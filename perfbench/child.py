"""One fresh verification process of the benchmark.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only] [--spans PATH]

It imports ``ttwsusy``, builds the workload's config, calls
``ttwsusy.verify.run`` and renders the JSON report, then prints one JSON
line with its clock readings, resource use, the report's checks and,
with ``--spans``, the per-layer trace.  ``run.py`` starts it and reads
that line; the clock readings use CLOCK_MONOTONIC, which is shared by
every process of the machine.
"""

import argparse
import json
import resource
import sys
import time

from workloads import config_dict


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write its spans to this path")
    args = parser.parse_args()

    import ttwsusy
    import ttwsusy.verify as verify

    config = verify.SuiteConfig.from_dict(config_dict(args.workload, args.seed))
    t_setup = time.monotonic()
    out = {"t_setup": t_setup, "package": ttwsusy.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        tracer.install()

    cpu0 = time.process_time()
    t0 = time.monotonic()
    try:
        # looked up on the module, so a traced run calls the wrapped entry point
        report = verify.run(config)
        report.to_json()  # rendering the report is part of the time to verdict
        error = None
    except Exception as exc:  # the benchmark must report a crashing run, not die with it
        report, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.monotonic()
    cpu1 = time.process_time()

    import numpy
    import scipy

    out.update(
        {
            "verify_s": t1 - t0,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error": error,
            "checks": [c.to_dict() for c in report.checks] if report else [],
            "config": report.config.to_dict() if report else None,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": _blas_name(numpy),
            },
        }
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.span_count()
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
