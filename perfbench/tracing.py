"""Spans around the calls into each nlfb module, recorded from outside it.

Tracer.install replaces each target function with a wrapper everywhere
the package holds a reference to it, so a function that another module
imports by name (solver.run inside sweep, solve_semiwave inside
speed_from_kernel) is traced where its caller looks it up.  A span is
(id, parent id, name, start, end, thread, items); spans stay in memory
for one round.  Self time is a span's duration minus that of its
children on the same thread.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time

import numpy as np


def _rho_size(args, kwargs, result):
    rho = args[2] if len(args) > 2 else kwargs["rho"]
    return int(np.size(rho))


def _iterations(args, kwargs, result):
    return int(result.iterations)


#: (module, attribute, items counted per call) of every traced function;
#: the span name is the module's short name and the attribute.
TARGETS = (
    ("nlfb.kernels", "j_tilde_row", _rho_size),
    ("nlfb.tables", "KernelTables.ensure", None),
    ("nlfb.tables", "KernelTables.conv", None),
    ("nlfb.tables", "KernelTables.tail_mass", None),
    ("nlfb.tables", "KernelTables.tail_mass_vector", None),
    ("nlfb.solver", "step", None),
    ("nlfb.solver", "run", None),
    ("nlfb.eigen", "lambda1", _iterations),
    ("nlfb.eigen", "steady_state", None),
    ("nlfb.eigen", "find_L_star", None),
    ("nlfb.semiwave", "solve_semiwave", None),
    ("nlfb.sweep", "sweep", None),
)

#: per-layer metric -> (span name, field of the span summary)
LAYER_METRICS = {
    "kernels.j_tilde_row.calls": ("kernels.j_tilde_row", "calls"),
    "kernels.j_tilde_row.entries": ("kernels.j_tilde_row", "items"),
    "kernels.j_tilde_row.self_s": ("kernels.j_tilde_row", "self_s"),
    "tables.ensure.self_s": ("tables.ensure", "self_s"),
    "tables.tail_mass_vector.calls": ("tables.tail_mass_vector", "calls"),
    "tables.tail_mass_vector.self_s": ("tables.tail_mass_vector", "self_s"),
    "tables.tail_mass.calls": ("tables.tail_mass", "calls"),
    "tables.tail_mass.self_s": ("tables.tail_mass", "self_s"),
    "tables.conv.calls": ("tables.conv", "calls"),
    "tables.conv.self_s": ("tables.conv", "self_s"),
    "solver.step.calls": ("solver.step", "calls"),
    "solver.step.self_s": ("solver.step", "self_s"),
    "solver.run.calls": ("solver.run", "calls"),
    "solver.run.s": ("solver.run", "total_s"),
    "eigen.lambda1.calls": ("eigen.lambda1", "calls"),
    "eigen.lambda1.iterations": ("eigen.lambda1", "items"),
    "eigen.lambda1.self_s": ("eigen.lambda1", "self_s"),
    "eigen.steady_state.self_s": ("eigen.steady_state", "self_s"),
    "eigen.find_L_star.s": ("eigen.find_L_star", "total_s"),
    "semiwave.solve_semiwave.calls": ("semiwave.solve_semiwave", "calls"),
    "semiwave.solve_semiwave.self_s": ("semiwave.solve_semiwave", "self_s"),
    "sweep.sweep.s": ("sweep.sweep", "total_s"),
}
#: metrics measured around a whole round rather than from spans
ROUND_METRICS = ("tables.rows_filled", "process.cpu_s", "trace.wall_s")


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: dict[int, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, items):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "tables.ensure":
                tracer._tables[id(args[0])] = args[0]
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = items(args, kwargs, result) if items and result is not None else 0
                tracer.spans.append((sid, parent, name, start, end,
                                     threading.get_ident(), n))

        return traced

    def install(self) -> None:
        """Wrap every target wherever an nlfb module refers to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nlfb" or k.startswith("nlfb."))]
        for mod_name, attr, items in TARGETS:
            mod = importlib.import_module(mod_name)
            name = f"{mod_name.split('.')[-1]}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, items))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, items)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)

    def start_round(self) -> None:
        self.spans = []
        self._tables = {}
        self.active = True

    def stop_round(self) -> dict[str, float]:
        """Stop recording; per-layer metrics of the round from its spans."""
        self.active = False
        summary = summarize(self.spans)
        out = {}
        for metric, (span, field) in LAYER_METRICS.items():
            out[metric] = summary.get(span, {}).get(field, 0)
        out["tables.rows_filled"] = sum(t.rows_filled for t in self._tables.values())
        self._tables = {}
        return out

    def write(self, path) -> None:
        """The last round's spans as gzipped CSV, times in s from its first span."""
        if not self.spans:
            return
        t0 = min(span[3] for span in self.spans)
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start,end,thread,items\n")
            for sid, parent, name, start, end, thread, n in self.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{sid},{parent},{name},{start - t0:.7f},{end - t0:.7f},{tid},{n}\n")


def summarize(spans) -> dict[str, dict]:
    """calls, items, inclusive and self seconds per span name."""
    child_time = collections.defaultdict(float)
    for _sid, parent, _name, start, end, _thread, _n in spans:
        child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end, _thread, n in spans:
        s = out.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["items"] += n
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[sid]
    return out
