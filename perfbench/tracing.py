"""Span tracer and the probes that wrap geodp's layer functions from outside.

A span is (name, start, end, parent span, operation id).  Spans and counters
live in memory while the traced operations run and are written out once at
the end; each layer's self time is then derived from the spans alone: a
span's duration minus the part of its interval that its child spans cover.

Probes replace a function everywhere it is bound (a name imported by value
into several modules is rebound in each), and replace manifold kernels on
every class that defines them.  `Probes.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from array import array

import numpy as np

KERNEL_NAMES = ("exp", "log", "dist", "transport", "grad_energy_rows")
# Norm, inner product, projections, frames and the tangent Gaussian draw.
AUX_KERNELS = ("_norm", "_inner", "_project", "_project_tangent", "_frame",
               "_frame_many", "_gaussian_tangent")

# Layer spans whose self time is reported as <span>.self_s.
SELF_TIME_SPANS = (
    "cli.privatize", "dataio.read", "dataio.write", "regression.fit",
    "regression.grad_rows", "regression.energy_rows", "sampling.release_pair",
    "sampling.run_chains", "sampling.logdens", "privacy.noise_scales",
    "experiments.run_grid", "experiments.validate",
)

PER_LAYER_UNITS = {
    "sampling.run_chains.self_s": "s",
    "sampling.run_chains.steps": "count",
    "sampling.logdens.self_s": "s",
    "sampling.logdens.reject_inf_frac": "frac",
    "sampling.accept_rate_p": "frac",
    "sampling.accept_rate_v": "frac",
    "sampling.release_pair.self_s": "s",
    "regression.grad_rows.calls": "count",
    "regression.grad_rows.rows": "count",
    "regression.grad_rows.self_s": "s",
    "regression.energy_rows.calls": "count",
    "regression.energy_rows.rows": "count",
    "regression.energy_rows.self_s": "s",
    "regression.fit.calls": "count",
    "regression.fit.iterations": "count",
    "regression.fit.self_s": "s",
    "regression.fit.energy_evals_per_iter": "ratio",
    **{f"manifolds.{k}.{m}": u for k in KERNEL_NAMES
       for m, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))},
    "manifolds.aux.self_s": "s",
    "privacy.noise_scales.self_s": "s",
    "experiments.run_grid.self_s": "s",
    "experiments.cell.s_p50": "s",
    "experiments.pool.workers": "count",
    "experiments.pool.busy_frac": "frac",
    "experiments.validate.self_s": "s",
    "dataio.read.self_s": "s",
    "dataio.write.self_s": "s",
    "dataio.bytes_written": "bytes",
    "cli.privatize.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Records spans in flat arrays and named counters, all in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.owner = os.getpid()
        self.op = -1
        self.clear()

    def clear(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.opid = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(out, args, kwargs, idx) may count."""
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.opid.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs, idx)
            return out

        return functools.update_wrapper(traced, fn)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.opid, dtype=np.int32).copy(),
        }

    def export(self) -> dict:
        """Spans and counters of this process, for shipping to the parent."""
        return {"names": list(self.names), "counts": dict(self.counts), **self.arrays()}

    def absorb(self, payload: dict, parent: int) -> None:
        """Append spans recorded in another process under span `parent`.

        perf_counter reads the system-wide monotonic clock, so worker times
        are on the parent's time axis.
        """
        remap = np.array([self.name_id(n) for n in payload["names"]], dtype=np.int32)
        offset = len(self.start)
        par = payload["parent"]
        self.name.extend(remap[payload["name"]].tolist())
        self.start.extend(payload["start"].tolist())
        self.end.extend(payload["end"].tolist())
        self.parent.extend(np.where(par < 0, parent, par + offset).tolist())
        self.opid.extend([self.op] * len(par))
        for key, value in payload["counts"].items():
            self.add(key, value)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children (cells
    running in parallel workers) are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(start.size)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0]
    st, en, pa = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = pa[i]
        if p != current:
            current, reach = p, st[p]
        lo = max(st[i], reach)
        hi = min(en[i], en[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


class Probes:
    """Installs tracer wrappers on geodp's layer functions and kernels."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every geodp module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geodp" or mod_name.startswith("geodp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def install(self, tracer: Tracer) -> None:
        from geodp import cli, dataio, experiments, privacy, regression, sampling
        from geodp.geometry import Manifold

        def batch_rows(key):
            # Counts calls and rows of the footpoint batch p, the second argument.
            def after(out, args, kwargs, idx):
                tracer.add(key + ".calls", 1)
                tracer.add(key + ".rows", np.shape(args[1])[0])
            return after

        def after_fit(report, args, kwargs, idx):
            tracer.add("regression.fit.iterations", report.iterations)

        def after_chains(out, args, kwargs, idx):
            _, diags, _ = out
            state, cfg = args[1], args[4]
            linear = kwargs.get("linear_base", args[6] if len(args) > 6 else None)
            stage = "p" if linear is None else "v"
            tracer.add("sampling.run_chains.steps", state.shape[0] * cfg.chain_length)
            tracer.add(f"sampling.accepted_{stage}", sum(d.accepted for d in diags))
            tracer.add(f"sampling.proposals_{stage}", sum(d.proposals for d in diags))

        def after_write(out, args, kwargs, idx):
            tracer.add("dataio.bytes_written", os.path.getsize(args[0]))

        def after_grid(result, args, kwargs, idx):
            for cell in result.cells:
                payload = cell.__dict__.pop("_trace_spans", None)
                if payload is not None:
                    tracer.absorb(payload, idx)

        plain = [
            (regression._grad_rows, "regression.grad_rows",
             batch_rows("regression.grad_rows")),
            (regression._energy_rows, "regression.energy_rows",
             batch_rows("regression.energy_rows")),
            (regression.fit, "regression.fit", after_fit),
            (sampling.release_pair, "sampling.release_pair", None),
            (privacy.noise_scales, "privacy.noise_scales", None),
            (sampling._run_chains, "sampling.run_chains", after_chains),
            (experiments.run_grid, "experiments.run_grid", after_grid),
            (experiments._run_cell, "experiments.cell", None),
            (experiments.validate_sensitivity, "experiments.validate", None),
            (dataio.read_dataset, "dataio.read", None),
            (dataio.write_release, "dataio.write", after_write),
        ]
        for fn, name, after in plain:
            self.replace_everywhere(fn, tracer.wrap(fn, name, after))

        def logdens_factory(factory):
            def make(*args, **kwargs):
                first = [True]

                def after(out, a, kw, idx):
                    if first[0]:  # the chain's initial state, not a proposal
                        first[0] = False
                        return
                    tracer.add("sampling.logdens.proposals", out.shape[0])
                    tracer.add("sampling.logdens.neg_inf",
                               int(np.count_nonzero(np.isneginf(out))))

                return tracer.wrap(factory(*args, **kwargs), "sampling.logdens", after)

            return functools.update_wrapper(make, factory)

        for factory in (sampling._footpoint_logdens, sampling._shooting_logdens):
            self.replace_everywhere(factory, logdens_factory(factory))

        task = experiments._run_cell_task

        def cell_task(args):
            # In a pool worker (a forked copy of this process, probes included)
            # record the cell afresh and ship its spans back on the result.
            if os.getpid() == tracer.owner:
                return task(args)
            tracer.clear()
            idx, cell = task(args)
            cell.__dict__["_trace_spans"] = tracer.export()
            return idx, cell

        self.replace_everywhere(task, functools.update_wrapper(cell_task, task))

        self._set(cli.privatize, "callback",
                  tracer.wrap(cli.privatize.callback, "cli.privatize"))

        classes = [Manifold]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for cls in classes:
            own = vars(cls)
            for kernel in KERNEL_NAMES:
                name = f"manifolds.{kernel}"
                if f"_{kernel}" in own:
                    self._set(cls, f"_{kernel}", tracer.wrap(own[f"_{kernel}"], name,
                                                             _kernel_counter(tracer, name)))
            for attr in AUX_KERNELS:
                if attr in own:
                    self._set(cls, attr, tracer.wrap(own[attr], "manifolds.aux"))


def _kernel_counter(tracer: Tracer, name: str):
    def after(out, args, kwargs, idx):
        if out is None:  # the base class declining the fused gradient
            return
        if isinstance(out, tuple):
            out = out[0]
        tracer.add(name + ".calls", 1)
        tracer.add(name + ".rows", out.size if name == "manifolds.dist"
                   else out.size // out.shape[-1])
    return after


def layer_metrics(tracer: Tracer, ops: int, workers: int) -> dict[str, float]:
    """Per-layer figures, per traced operation except ratios and medians."""
    sp = tracer.arrays()
    own = self_times(sp["start"], sp["end"], sp["parent"])
    dur = sp["end"] - sp["start"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return sp["name"] == ids.get(name, -1)

    def self_s(name):
        return float(own[mask(name)].sum())

    c = tracer.counts

    def count(key):
        return float(c.get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.self_s": self_s(name) / ops for name in SELF_TIME_SPANS}
    for key in ("regression.grad_rows", "regression.energy_rows"):
        out[key + ".calls"] = count(key + ".calls") / ops
        out[key + ".rows"] = count(key + ".rows") / ops
    for kernel in KERNEL_NAMES:
        name = f"manifolds.{kernel}"
        out[name + ".calls"] = count(name + ".calls") / ops
        out[name + ".rows"] = count(name + ".rows") / ops
        out[name + ".self_s"] = self_s(name) / ops
    out["manifolds.aux.self_s"] = self_s("manifolds.aux") / ops

    fit_spans = np.flatnonzero(mask("regression.fit"))
    iterations = count("regression.fit.iterations")
    in_fit = np.isin(sp["parent"], fit_spans) & mask("regression.energy_rows")
    out["regression.fit.calls"] = fit_spans.size / ops
    out["regression.fit.iterations"] = iterations / ops
    out["regression.fit.energy_evals_per_iter"] = ratio(int(in_fit.sum()), iterations)

    out["sampling.run_chains.steps"] = count("sampling.run_chains.steps") / ops
    out["sampling.logdens.reject_inf_frac"] = ratio(count("sampling.logdens.neg_inf"),
                                                    count("sampling.logdens.proposals"))
    for stage in ("p", "v"):
        out[f"sampling.accept_rate_{stage}"] = ratio(count(f"sampling.accepted_{stage}"),
                                                     count(f"sampling.proposals_{stage}"))

    cells = dur[mask("experiments.cell")]
    grids = dur[mask("experiments.run_grid")]
    out["experiments.cell.s_p50"] = float(statistics.median(cells)) if cells.size else 0.0
    out["experiments.pool.workers"] = float(workers) if grids.size else 0.0
    out["experiments.pool.busy_frac"] = ratio(float(cells.sum()), workers * float(grids.sum()))
    out["dataio.bytes_written"] = count("dataio.bytes_written") / ops
    out["trace.spans"] = sp["name"].size / ops
    return out
