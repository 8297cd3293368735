"""Benchmark workloads: each maps a seed to a ``SuiteConfig.from_dict`` payload.

The seed becomes ``SuiteConfig.seed``; it drives the random sample points
and the random polynomial x Gaussian test spinors, not the amount of work.
Why each workload exists is recorded in NOTES.md.
"""

import math

# The irrational default parameter set of the library (k = sqrt 2).
IRRATIONAL_SET = {"k": math.sqrt(2.0), "a": 1.2, "b": 0.8, "omega": 1.0}


def _acceptance(seed):
    # The pinned acceptance configuration: every library default.
    return {"seed": seed}


def _truncation_16x10(seed):
    # Quadrature orders are deliberately left at the library default.
    return {
        "param_sets": [dict(IRRATIONAL_SET)],
        "truncation": [16, 10],
        "suites": ["algebra", "irreps"],
        "seed": seed,
    }


def _pointwise(seed):
    # No generator matrices: many small grids with a few states each.
    return {"suites": ["specfun", "model", "special-cases"], "seed": seed}


WORKLOADS = {
    "acceptance": _acceptance,
    "truncation-16x10": _truncation_16x10,
    "pointwise": _pointwise,
}


def config_dict(name, seed):
    """Config payload of workload ``name`` for ``seed``; unknown names raise KeyError."""
    return WORKLOADS[name](int(seed))
