"""Span tracing of the package's layers from outside the program.

`Tracer.install` replaces each public function named in `LAYERS` by a timing
wrapper at every module attribute that binds it, including names imported
with `from ... import` (`engine.selected_ids`, `audit.apply_interventions`,
`ensemble.sector`, ...); `uninstall` puts the originals back. Nothing under
`src/` changes.

Spans (name, start, end, parent span, op id) are kept in memory in flat
arrays and written out by `write_spans` as gzipped CSV. A span's self time is its duration
minus the time its child spans' wrappers cover, so the wrappers' own
bookkeeping is charged to no layer. The program is single-threaded and has
no queues, so spans nest strictly and no layer has a waiting time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "spacetime": ("position", "causally_precedes", "proper_time_at_leaf", "lightcone_crossings"),
    "scenario": ("parse_scenario", "selected_ids", "apply_interventions"),
    "linalg": ("lift_local", "conj_apply", "ptrace", "normalize", "check_density"),
    "engine": ("sector", "polystate_at"),
    "audit": ("single_state", "reduced_states", "charge_ledger"),
    "ensemble": ("enumerate_branches", "sample_runs", "empirical_sector",
                 "analytic_sector", "compare_to_polystate"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
OP_SPAN = "bench.op"


# Computed-work counters, evaluated after the span has closed. Each takes
# (args, kwargs, result) and returns {counter: increment}.
def _lift_local(args, kwargs, out):
    return {"bytes_computed": 16 * out.shape[0] ** 2}


def _conj_apply(args, kwargs, out):
    return {"flops_computed": 16 * out.shape[0] ** 3}


def _check_density(args, kwargs, out):
    m = np.asarray(args[0], dtype=complex)
    # check_density returns exactly the Hermitised input unless it clamped
    return {"clamped": int(not np.array_equal(out, (m + m.conj().T) / 2))}


def _selected_ids(args, kwargs, out):
    return {"events_tested": len(args[0].interventions)}


def _apply_interventions(args, kwargs, out):
    return {"ops_applied": len(set(args[1]))}


def _sample_runs(args, kwargs, log):
    s = args[0]
    recorded = [s.interventions[k].op.chosen for k in log.order]
    matched = int(np.all(log.outcomes == np.array(recorded, dtype=log.outcomes.dtype), axis=1).sum())
    return {"runs": log.n_runs, "recorded_matches": matched}


def _enumerate_branches(args, kwargs, out):
    return {"branches": len(out)}


COUNTERS = {
    "linalg.lift_local": _lift_local,
    "linalg.conj_apply": _conj_apply,
    "linalg.check_density": _check_density,
    "scenario.selected_ids": _selected_ids,
    "scenario.apply_interventions": _apply_interventions,
    "ensemble.sample_runs": _sample_runs,
    "ensemble.enumerate_branches": _enumerate_branches,
}


class Tracer:
    """Collects spans, self times and counters while installed."""

    def __init__(self):
        self.names = [OP_SPAN, *FUNCTIONS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list = []  # [span index, seconds covered by children]
        self._patched: list = []
        self.t0 = time.perf_counter()
        self.reset_totals()

    def reset_totals(self) -> None:
        """Start the per-function totals afresh; recorded spans are kept."""
        self.calls = dict.fromkeys(self.names, 0)
        self.raised = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts: dict = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        self.first_span = len(self.start)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._index[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter() - self.t0)
        return idx

    def _close(self, name: str, idx: int, entered: float, post=None) -> None:
        t1 = time.perf_counter() - self.t0
        self.end[idx] = t1
        _, covered = self._stack.pop()
        self.self_s[name] += t1 - self.start[idx] - covered
        self.calls[name] += 1
        if post is not None:
            post()
        if self._stack:
            # the whole wrapper, bookkeeping included, is covered for the parent
            self._stack[-1][1] += time.perf_counter() - entered

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span."""
        self.current_op = op_id
        entered = time.perf_counter()
        idx = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(OP_SPAN, idx, entered)
            self.current_op = -1

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        is_sector = name == "engine.sector"

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            cache = (args[3] if len(args) > 3 else kwargs.get("cache")) if is_sector else None
            before = len(cache) if cache is not None else 0
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                tracer.cache_lookups += cache is not None
                tracer._close(name, idx, entered)
                raise

            def count():
                if counter is not None:
                    for key, inc in counter(args, kwargs, out).items():
                        key = f"{name}.{key}"
                        tracer.counts[key] = tracer.counts.get(key, 0) + inc
                if cache is not None:
                    tracer.cache_lookups += 1
                    tracer.cache_hits += len(cache) == before

            tracer._close(name, idx, entered, count)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for name in FUNCTIONS:
            layer, fn = name.split(".")
            original = getattr(importlib.import_module(f"polystate.{layer}"), fn)
            originals[id(original)] = self._wrap(name, original)
        for modname, module in list(sys.modules.items()):
            if modname != "polystate" and not modname.startswith("polystate."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass: calls and self time of every traced
        function, the computed-work counters, and ratios."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(self.self_s[f"{layer}.{fn}"] for fn in LAYERS[layer])
                                      / passes, "s")
        out["linalg.normalize.raised"] = (self.raised["linalg.normalize"] / passes, "count")
        units = {"bytes_computed": "bytes", "flops_computed": "flop"}
        for key in ("linalg.lift_local.bytes_computed", "linalg.conj_apply.flops_computed",
                    "linalg.check_density.clamped", "scenario.selected_ids.events_tested",
                    "scenario.apply_interventions.ops_applied", "ensemble.sample_runs.runs",
                    "ensemble.enumerate_branches.branches"):
            out[key] = (self.counts.get(key, 0) / passes, units.get(key.rsplit(".", 1)[1], "count"))
        runs = self.counts.get("ensemble.sample_runs.runs", 0)
        matches = self.counts.get("ensemble.sample_runs.recorded_matches", 0)
        out["ensemble.sample_runs.recorded_match_ratio"] = (matches / runs if runs else 0.0, "ratio")
        out["engine.cache.hit_ratio"] = (self.cache_hits / self.cache_lookups
                                         if self.cache_lookups else 0.0, "ratio")
        spans = range(self.first_span, len(self.start))
        op_wall = sum(self.end[i] - self.start[i] for i in spans if self.name_id[i] == 0)
        layer_self = sum(self.self_s[name] for name in FUNCTIONS)
        out["trace.uncovered_frac"] = (1.0 - layer_self / op_wall if op_wall else 0.0, "ratio")
        out["trace.spans"] = (len(spans) / passes, "count")
        return out

    def write_spans(self, path) -> None:
        """Gzipped CSV, one span per row; times in seconds from the tracer's
        start, parent as a row number (-1 for none), op -1 outside ops."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.op[i]}\n")
