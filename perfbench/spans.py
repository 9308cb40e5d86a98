"""Layer-by-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each traced module and
rebinds every module attribute that names them, including the names other
modules imported with `from ... import`, so calls between layers pass
through the wrappers.  The package's source is left as it is.  A wrapper
records one span per call (name, start, end, parent span, job id) into
flat arrays held in memory; the spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import time
from array import array

import numpy as np

LAYERS = ("cli", "census", "svg", "atlas", "signed_perm", "intmat", "orbits", "verify")

# Called once per coordinate or per perimeter value inside other public
# functions: a wrapper there would cost more than the work it measures, so
# their time stays in their caller's self time.
UNWRAPPED = {"intmat.sign_pow", "census.count_orbits_with_perimeter"}

# The CLI layer is traced at its entry point only, so cli.main's self time
# covers argument parsing, dispatch, JSON serialisation and the write.
CLI_ENTRY = "cli.main"

# Top-level census calls whose ru_maxrss rise is recorded.
RSS_SPANS = {
    "census.modular_census", "census.square_orbit_averages", "census.distinct_orbit_table",
    "census.diametral_report", "census.diametral_census", "census.disk_length_stats",
    "census.projection_histogram", "census.cumulative_perimeter_stats",
}

# Functions whose return value feeds a work counter, read after the job.
COUNTED = {
    "census.distinct_orbit_table", "census.diametral_report", "census.disk_length_stats",
    "census.projection_histogram", "svg.render_svg", "atlas.enumerate_group",
    "orbits.reach_graph", "verify.run_all",
}

# Counters that `collect` fills from return values and the worker from CLI
# output.
COUNTERS = {
    "census.points", "census.orbits_kept", "svg.cells", "svg.out_bytes", "atlas.elements",
    "orbits.reach_graph.nodes", "verify.checks", "cli.out_bytes",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.job_id = -1
        self.paused = False
        self.results: list = []
        self.counters: dict[str, float] = {}
        self.rss_growth_kb = 0
        self._rss_depth = 0
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("aughts")
        modules = {layer: importlib.import_module(f"aughts.{layer}") for layer in LAYERS}
        targets = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                qual = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or attr.startswith("_") or hasattr(fn, "__traced__")
                        or qual in UNWRAPPED or (layer == "cli" and qual != CLI_ENTRY)):
                    continue
                wrapper = self._wrap(qual, fn)
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, wrapper)
                            self._restore.append((target, key, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        counted = qual in COUNTED
        rss = qual in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0)
            stack.append(idx)
            outer_rss = rss and self._rss_depth == 0
            if rss:
                self._rss_depth += 1
                if outer_rss:
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if rss:
                    self._rss_depth -= 1
                    if outer_rss:
                        self.rss_growth_kb += (
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
                        )
            if counted:
                self.results.append((qual, args, result))
            return result

        wrapper.__traced__ = True
        return wrapper

    # -- counters -----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def collect(self) -> None:
        """Turn the return values kept during the last job into counters."""
        for qual, args, result in self.results:
            if qual == "census.distinct_orbit_table":
                self.count("census.points", result.total_points)
                self.count("census.orbits_kept", result.total_orbits)
            elif qual == "census.diametral_report":
                self.count("census.points", result.total_points)
            elif qual == "census.disk_length_stats":
                self.count("census.points", result.point_count)
            elif qual == "census.projection_histogram":
                self.count("census.points", sum(result.diametral) + sum(result.others))
            elif qual == "svg.render_svg":
                outline = 1 if args[0].mode == "projection" else 0
                self.count("svg.cells", result.count("<rect ") + result.count("<circle ") - outline)
                self.count("svg.out_bytes", len(result))
            elif qual == "atlas.enumerate_group":
                self.count("atlas.elements", len(result))
            elif qual == "orbits.reach_graph":
                self.count("orbits.reach_graph.nodes", len(result.nodes))
            elif qual == "verify.run_all":
                self.count("verify.checks", sum(s.checks for s in result))
        self.results.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s of every wrapped function."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_ns = np.bincount(a["name"], weights=dur - child, minlength=k)
        total_ns = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            qual: {"calls": int(calls[i]), "self_s": self_ns[i] / 1e9, "total_s": total_ns[i] / 1e9}
            for i, qual in enumerate(self.names)
        }

    def per_layer(self, names: list[str], overhead: float) -> dict[str, float]:
        """The named per-layer metrics; a layer the workload never calls
        reads 0.

        `<module>.<function>.calls`, `.self_s` and `.ns_per_call` (callees
        included) come from the spans of any wrapped function.  The others:
        the counters collected from return values, census self time per
        scanned point (perimeter sums excluded: they scan no points), render
        self time per cell, enumeration time per element (callees included),
        the ru_maxrss rise inside top-level census calls, and `overhead`,
        the traced run's jobs_per_s over the untraced run's.
        """
        fns = self.per_function()
        zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

        def fn(q):
            return fns.get(q, zero)

        def per(total_s, n, scale):
            return total_s * scale / n if n else 0.0

        c = self.counters
        census_self = sum(v["self_s"] for q, v in fns.items()
                          if q.startswith("census.") and q != "census.cumulative_perimeter_stats")
        derived = {
            "census.rss_growth_mb": self.rss_growth_kb / 1024,
            "census.ns_per_point": per(census_self, c.get("census.points", 0), 1e9),
            "svg.ns_per_cell": per(fn("svg.render_svg")["self_s"], c.get("svg.cells", 0), 1e9),
            "atlas.us_per_element": per(
                fn("atlas.enumerate_group")["total_s"], c.get("atlas.elements", 0), 1e6),
            "trace.overhead": overhead,
        }
        out: dict[str, float] = {}
        for name in names:
            base, _, stat = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif name in COUNTERS:
                out[name] = c.get(name, 0)
            elif stat in ("self_s", "calls"):
                out[name] = fn(base)[stat]
            elif stat == "ns_per_call":
                out[name] = per(fn(base)["total_s"], fn(base)["calls"], 1e9)
            else:
                raise KeyError(f"no per-layer metric named {name}")
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
