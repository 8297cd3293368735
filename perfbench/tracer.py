"""Span tracer that wraps the package's public functions from outside.

Every function named in a module's ``__all__`` (plus ``Grid.__init__``)
is replaced by one wrapper, at every binding site: the defining module,
each ``from .x import y`` in the other modules, and the package
namespace.  A wrapper records one span (id, parent, function, start,
end) in memory and counts the work it was handed.  A span's self time
is its duration minus the time covered by its child spans; the layer of
a span is the module that defines the function.

Time a hook spends counting work after its span closed is charged to no
layer, so it shows as a gap in coverage instead of inflating the caller.
"""

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import time
from array import array
from dataclasses import replace

import numpy as np

LAYERS = ("specfun", "model", "fock", "states", "irreps", "generators", "special_cases", "verify")

# irreps functions that build catalog states
IRREP_STATE_BUILDERS = ("zero_fermion_state", "one_fermion_state", "two_fermion_state", "sp2_family_state", "v_action")


def _points_key(r, phi):
    """Digest of the sample points, so equal grids built twice count as one."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(r, dtype=float))
    h.update(np.ascontiguousarray(phi, dtype=float))
    return h.digest()


class Tracer:
    """Spans and work counts of one traced run of the package."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.layer_of = []
        self.self_s = []
        self.total_s = []
        self.calls = []
        self._span_id = array("q")
        self._parent = array("q")
        self._fn = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.poly_points = 0
        self.term_evals = 0
        self._term_keys = set()
        self._grid_keys = set()
        self.matrix_dim = 0
        self.columns = 0
        self.relation_flops = 0
        self._relations_per_check = 0
        self._hooks = {
            "specfun.laguerre": lambda a, kw, res: self._count_points(a[2] if len(a) > 2 else kw["z"]),
            "specfun.jacobi": lambda a, kw, res: self._count_points(a[3] if len(a) > 3 else kw["x"]),
            "model.Grid.__init__": lambda a, kw, res: self._count_grid(a[0]),
            "states.state_bundle": self._count_terms,
            "states.state_field": self._count_terms,
            "generators.generator_matrices": self._count_matrices,
            "generators.check_structure_constants": self._count_relations,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer of ``ttwsusy``."""
        import ttwsusy

        modules = {layer: importlib.import_module(f"ttwsusy.{layer}") for layer in LAYERS}
        self._relations_per_check = len(modules["generators"].RELATIONS)
        wrapped = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for namespace in (ttwsusy, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
        grid = modules["model"].Grid
        grid.__init__ = self._wrap(grid.__init__, "model.Grid.__init__", "model")

    def _wrap(self, fn, qualname, layer):
        idx = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        hook = self._hooks.get(qualname)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self._span_id) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[idx] += duration - frame[1]
                self.total_s[idx] += duration
                self.calls[idx] += 1
                self._record(sid, parent, idx, start, end)
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - end
            return result

        return traced

    def _record(self, sid, parent, idx, start, end):
        self._span_id.append(sid)
        self._parent.append(parent)
        self._fn.append(idx)
        self._start.append(start)
        self._end.append(end)

    # -- work counters ----------------------------------------------------

    def _count_points(self, x):
        self.poly_points += int(np.size(x))

    def _count_grid(self, grid):
        self._grid_keys.add((grid.params, round(grid.alpha, 12), grid.m_rad, grid.m_ang))

    def _count_terms(self, args, kwargs, result):
        state, params = args[0], args[1]
        r = args[2] if len(args) > 2 else kwargs["r"]
        phi = args[3] if len(args) > 3 else kwargs["phi"]
        points = _points_key(r, phi)
        for trm in state.terms:
            if not trm.is_zero:
                self.term_evals += 1
                # the coefficient scales a basis function but does not change the work
                self._term_keys.add((replace(trm, coeff=1.0), params, points))

    def _count_matrices(self, args, kwargs, result):
        dim = len(result[1])
        self.matrix_dim = max(self.matrix_dim, dim)
        self.columns += dim

    def _count_relations(self, args, kwargs, result):
        dim = next(iter(args[0].values())).shape[0]
        # two d x d matrix products of 2 d^3 flops per relation
        self.relation_flops += self._relations_per_check * 4 * dim**3

    # -- results ----------------------------------------------------------

    def _by_name(self, values, qualname):
        return values[self.names.index(qualname)]

    def _sum(self, values, qualnames):
        return sum(self._by_name(values, q) for q in qualnames)

    def layer_self_s(self):
        """Self seconds per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, s in zip(self.layer_of, self.self_s):
            out[layer] += s
        return out

    def metrics(self):
        """Per-layer work counts and times, keyed by metric name."""
        calls, total = self.calls, self.total_s
        grid_builds = self._by_name(calls, "model.Grid.__init__")
        layer_calls = dict.fromkeys(LAYERS, 0)
        for layer, n in zip(self.layer_of, calls):
            layer_calls[layer] += n
        out = {f"{layer}.self_s": s for layer, s in self.layer_self_s().items()}
        out.update(
            {
                "generators.matrices_s": self._by_name(total, "generators.generator_matrices"),
                "generators.matrix_dim": self.matrix_dim,
                "generators.columns": self.columns,
                "generators.relation_s": self._by_name(total, "generators.check_structure_constants"),
                "generators.relation_flops": self.relation_flops,
                "states.bundle_calls": self._by_name(calls, "states.state_bundle"),
                "states.field_calls": self._by_name(calls, "states.state_field"),
                "states.term_evals": self.term_evals,
                "states.term_reuse": len(self._term_keys) / self.term_evals if self.term_evals else 1.0,
                "specfun.poly_calls": self._sum(calls, ("specfun.laguerre", "specfun.jacobi")),
                "specfun.poly_points": self.poly_points,
                "specfun.rule_builds": self._by_name(calls, "specfun.gauss_rule"),
                "specfun.rule_s": self._by_name(total, "specfun.gauss_rule"),
                "model.grid_builds": grid_builds,
                "model.grid_reuse": len(self._grid_keys) / grid_builds if grid_builds else 1.0,
                "model.eval_calls": self._sum(
                    calls, ("model.eval_radial", "model.eval_angular", "model.eval_wavefunction")
                ),
                "irreps.casimir_s": self._by_name(total, "irreps.casimir_matrices"),
                "irreps.state_calls": self._sum(calls, [f"irreps.{f}" for f in IRREP_STATE_BUILDERS]),
                "special_cases.calls": layer_calls["special_cases"],
                "fock.calls": layer_calls["fock"],
            }
        )
        return out

    def span_count(self):
        return len(self._span_id)

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for sid, parent, fn, start, end in zip(self._span_id, self._parent, self._fn, self._start, self._end):
                fh.write(f'[{sid},{parent},"{self.names[fn]}",{start!r},{end!r}]\n')
