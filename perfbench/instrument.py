"""Call counting and span tracing around shockrefl's layers, from outside.

Each instrumented function is replaced, in every shockrefl module that holds
it, by a wrapper.  The wrapper always counts calls, failures and a few
machine-independent extras (stall accepts, tampered archives, bytes written,
LU fill) and keeps the duration of each call.  While `tracing` is on it also records one span per call: run id,
layer name, grid size, start, end, parent span and the extras.  Spans stay
in memory until the benchmark writes them out.  The library itself is not
modified; `uninstall` puts every original back.
"""

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg as spla

from shockrefl import admissibility, archive, distance, mesh, relations, solver
from shockrefl.errors import ShockReflError


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _params_grid(pos, name):
    def grid(args, kwargs, result):
        params = _arg(args, kwargs, pos, name) or solver.IterationParams()
        return params.n1
    return grid


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _splu_fill(lu):
    return lu.L.nnz + lu.U.nnz


class _ModuleProxy:
    """Stands in for a module inside another module, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _LUProxy:
    """A SuperLU factor whose solve() goes through the instrumentation."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Instruments:
    """Counters for every run and spans for traced runs."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.extra = Counter()
        self.tracing = False
        self.run_id = "setup"
        self.spans = []  # (run_id, name, grid, start, end, parent, extras)
        self._stack = []
        self._restore = []

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name, fn, grid=None, after=None):
        """Wrapper of fn; after(result, args, kwargs) -> (result, extras)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            traced = self.tracing
            if traced:
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self._stack.append(index)
            ok = False
            result = None
            extras = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except ShockReflError:
                extras = {"failed": 1}
                raise
            finally:
                t1 = time.perf_counter()
                if traced:
                    self._stack.pop()
                self.durations[name].append(t1 - t0)
                if ok and after is not None:
                    result, extras = after(result, args, kwargs)
                for key, value in extras.items():
                    self.extra[f"{name}.{key}"] += value
                if traced:
                    g = grid(args, kwargs, result) if ok and grid is not None else None
                    self.spans[index] = (self.run_id, name, g, t0, t1, parent, extras)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement):
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("shockrefl"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, original))

    def _replace_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the layer boundaries of the library."""
        functions = [
            (relations.state2_solve, "relations.state2_solve", None, None),
            (relations.angle_diagram, "relations.angle_diagram", None, None),
            (mesh.build_square_map, "mesh.build_square_map", lambda a, k, r: r.n1, None),
            (solver.capped_density, "solver.capped_density", lambda a, k, r: a[0].shape[0], None),
            (solver.solve_bvp, "solver.solve_bvp", _params_grid(3, "iter_params"), self._after_bvp),
            (solver.update_shock, "solver.update_shock", lambda a, k, r: a[0].shape[0], None),
            (solver.fixed_point_solve, "solver.fixed_point_solve", _params_grid(2, "iter_params"), None),
            (solver.continuation_sweep, "solver.continuation_sweep", _params_grid(2, "iter_params"), None),
            (distance.c1_family_distance, "distance.c1_family_distance", lambda a, k, r: a[0].mesh.n1, None),
            (admissibility.full_report, "admissibility.full_report", lambda a, k, r: a[0].mesh.n1, self._after_report),
            (archive.write_solution, "archive.write_solution", lambda a, k, r: r["n1"], self._after_write),
            (archive.read_solution, "archive.read_solution", lambda a, k, r: r[0].mesh.n1, self._after_read),
        ]
        for fn, name, grid, after in functions:
            self._replace_everywhere(fn, self.wrap(name, fn, grid, after))

        methods = [
            (mesh.SquareMap, "gradient", "mesh.gradient", lambda a, k, r: a[0].n1),
            (solver._Discretization, "__init__", "solver.discretization", lambda a, k, r: a[1].n1),
            (solver._Discretization, "assemble", "solver.assemble", lambda a, k, r: a[0].n1),
        ]
        for owner, attr, name, grid in methods:
            self._replace_attr(owner, attr, self.wrap(name, getattr(owner, attr), grid))

        # LU fill is computed from the public factors while tracing, in a span
        # of its own so that it is not charged to the solver's self time
        self._lu_fill = self.wrap("tracing.lu_fill", _splu_fill)
        splu = self.wrap("solver.lu_factor", spla.splu, lambda a, k, r: math.isqrt(r.shape[0]),
                         self._after_splu)
        self._replace_attr(solver, "spla", _ModuleProxy(spla, splu=splu))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- per-layer extras -------------------------------------------------
    def _after_bvp(self, result, args, kwargs):
        return result, {"stall_accepts": int(bool(result[1].get("stalled")))}

    def _after_report(self, result, args, kwargs):
        return result, {"failed": int(not result.verdict)}

    def _after_write(self, result, args, kwargs):
        return result, {"bytes": _dir_bytes(_arg(args, kwargs, 1, "outdir"))}

    def _after_read(self, result, args, kwargs):
        return result, {"tampered": int(bool(result[1]))}

    def _after_splu(self, lu, args, kwargs):
        n = math.isqrt(lu.shape[0])
        solve = self.wrap("solver.lu_solve", lu.solve, lambda a, k, r: n)
        extras = {"fill_nnz": self._lu_fill(lu)} if self.tracing else {}
        return _LUProxy(lu, solve), extras

    # -- snapshots and aggregation ----------------------------------------
    def snapshot(self):
        """Machine-independent counts so far: calls per layer and the extras."""
        counts = Counter({f"{k}.calls": len(v) for k, v in self.durations.items()})
        counts.update(self.extra)
        return counts

    def durations_since(self, snapshot, name):
        return self.durations[name][snapshot[f"{name}.calls"]:]


def counts_between(before, after):
    diff = after.copy()
    diff.subtract(before)
    return {k: v for k, v in sorted(diff.items()) if v}


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    child = [0.0] * len(spans)
    for _, _, _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[4] - s[3] - c for s, c in zip(spans, child)]


def aggregate(spans, selves):
    """Per layer and per (layer, grid): calls, inclusive s, self_s, extras, per run id."""
    out = defaultdict(lambda: defaultdict(Counter))
    for span, self_s in zip(spans, selves):
        run_id, name, grid, t0, t1, _, extras = span
        keys = [name] if grid is None else [name, f"{name}.n{grid}"]
        for key in keys:
            bucket = out[run_id][key]
            bucket["calls"] += 1
            bucket["s"] += t1 - t0
            bucket["self_s"] += self_s
            for extra, value in extras.items():
                bucket[extra] += value
    return out
