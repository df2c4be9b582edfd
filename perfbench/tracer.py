"""Outside-in spans around the library's module-level functions.

`Tracer.install` replaces every function that the layer modules define
or import from one another with a wrapper that records a span: label,
parent, start, end, self time (duration minus child spans) and the
process CPU time spent inside it.  `dynamics.solve_ivp`, the scipy
integrator as the dynamics module sees it, is wrapped as well so that
its `nfev` counts the right-hand-side calls.

Wrappers keep the wrapped function's module and qualified name, so a
process pool pickles them by reference, and forked pool workers inherit
them.  After a fork the worker drops the spans it inherited and appends
each finished top-level span to a file of its own, because pool workers
leave through `os._exit` and run no exit handlers.
"""
from __future__ import annotations

import contextlib
import functools
import glob
import inspect
import json
import os
import time

LAYERS = ("cycle", "dynamics", "bath", "measures", "model", "cli")
LAYER_MODULES = tuple(f"qotto.{name}" for name in LAYERS)

# spans that are one work item of a workload
ITEM_SPANS = ("cycle.run_cycle", "cycle._population_point")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _probe_nfev(fn, args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _probe_samples(fn, args, kwargs, result):
    return {"samples": int(len(result.times))}


def _probe_unitary_key(fn, args, kwargs, result):
    # every argument of the call: (SystemParams, stroke, n_steps)
    return {"key": repr(sorted(_bound(fn, args, kwargs).items()))}


def _probe_points(fn, args, kwargs, result):
    import numpy as np
    return {"points": int(np.size(_bound(fn, args, kwargs)["t"]))}


def _probe_bath(fn, args, kwargs, result):
    return {"bath": repr(_bound(fn, args, kwargs)["bath"])}


PROBES = {
    "dynamics.solve_ivp": _probe_nfev,
    "dynamics.evolve_open": _probe_samples,
    "dynamics.propagate_unitary": _probe_unitary_key,
    "bath.rate_coefficients": _probe_points,
    "bath.build_rate_trajectory": _probe_bath,
}


class Tracer:
    """Span recorder for one pass process and its forked workers."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self._patched: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    # ------------------------------------------------------------ recording

    def _enter(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        return sid, parent, frame

    def _exit(self, sid, parent, frame, label, t0, t1, cpu, extra):
        self.stack.pop()
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        self.spans.append((sid, parent, label, t0, t1, dur - frame[1], cpu,
                           extra))
        if not self.stack and self.pid != self.main_pid:
            self._flush_worker()

    def _flush_worker(self):
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([self.pid, *span]) + "\n")
        self.spans = []

    def wrap(self, fn, label: str):
        tracer = self
        probe = PROBES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, frame = tracer._enter()
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                if probe is not None and result is not None:
                    extra = probe(fn, args, kwargs, result)
                tracer._exit(sid, parent, frame, label, t0, t1, c1 - c0, extra)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself."""
        ids = self._enter()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(*ids, label, t0, time.perf_counter(),
                       time.process_time() - c0, None)

    def install(self):
        """Wrap the functions each layer module defines or imports from
        another layer module, in every namespace that names them."""
        import importlib
        modules = [importlib.import_module(m) for m in LAYER_MODULES]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ in LAYER_MODULES:
                    label = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                elif name == "solve_ivp" and mod.__name__ == "qotto.dynamics":
                    label = "dynamics.solve_ivp"
                else:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, label)
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched = []

    def all_spans(self) -> list[tuple]:
        """Spans of this process followed by those the workers wrote."""
        out = [(self.main_pid, *s) for s in self.spans]
        for path in sorted(glob.glob(os.path.join(self.span_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                out.extend(tuple(json.loads(line)) for line in fh)
        return out


# ---------------------------------------------------------------- metrics

def layer_metrics(spans, main_pid: int, wall: float) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    Layer times sum over the pass process and its pool workers.  The
    self time of `cycle._run_pool` in the pass process is pool waiting,
    reported as `cycle.pool_wait_s` and left out of `cycle.self_s`.
    """
    by_key = {(s[0], s[1]): s for s in spans}
    fields = ("pid", "sid", "parent", "label", "t0", "t1", "self", "cpu",
              "extra")
    rows = [dict(zip(fields, s)) for s in spans]

    def outermost(label):
        out = []
        for r in rows:
            if r["label"] != label:
                continue
            up = r["parent"]
            while up is not None and by_key.get((r["pid"], up)) is not None:
                anc = by_key[(r["pid"], up)]
                if anc[3] == label:
                    break
                up = anc[2]
            else:
                out.append(r)
        return out

    def dur(rs):
        return sum(r["t1"] - r["t0"] for r in rs)

    def extra_sum(rs, key):
        return sum((r["extra"] or {}).get(key, 0) for r in rs)

    # pool workers: a worker runs one job at a time, so its busy time is
    # the summed duration of its top-level spans
    workers = {}
    for r in rows:
        if r["pid"] != main_pid and r["parent"] is None:
            workers[r["pid"]] = workers.get(r["pid"], 0.0) + r["t1"] - r["t0"]
    busy = sum(workers.values())
    # the pass process waits on the pool only inside cycle._run_pool
    pool_wait = sum(r["self"] for r in rows if r["pid"] == main_pid
                    and r["label"] == "cycle._run_pool")

    def self_s(layer):
        return sum(r["self"] for r in rows
                   if r["label"].split(".")[0] == layer)

    evolve = outermost("dynamics.evolve_open")
    unitary = outermost("dynamics.propagate_unitary")
    rates = outermost("bath.rate_coefficients")
    tables = outermost("bath.build_rate_trajectory")
    points = extra_sum(rates, "points")
    rates_s = dur(rates)
    items = [r["t1"] - r["t0"] for label in ITEM_SPANS
             for r in outermost(label)]
    n_workers = len(workers)
    return {
        "dynamics.evolve_s": dur(evolve),
        "dynamics.rhs_calls": extra_sum(outermost("dynamics.solve_ivp"),
                                        "nfev"),
        "dynamics.evolve_samples": extra_sum(evolve, "samples"),
        "dynamics.unitary_s": dur(unitary),
        "dynamics.unitary_calls": len(unitary),
        "dynamics.unitary_reuse": (
            len({(r["extra"] or {}).get("key") for r in unitary}) / len(unitary)
            if unitary else 0.0),
        "bath.rates_s": rates_s,
        "bath.rate_points": points,
        "bath.us_per_point": rates_s / points * 1e6 if points else 0.0,
        "bath.rates_cpu_ratio": (sum(r["cpu"] for r in rates) / rates_s
                                 if rates_s > 0.0 else 0.0),
        "bath.check_s": dur(outermost("bath.quadrature_error_estimate")),
        "bath.tables": len(tables),
        "bath.distinct_baths": len({(r["extra"] or {}).get("bath")
                                    for r in tables}),
        "measures.s": self_s("measures"),
        "model.s": self_s("model"),
        "cycle.self_s": self_s("cycle") - pool_wait,
        "cycle.slowest_item_s": max(items, default=0.0),
        "cycle.pool_workers": n_workers,
        "cycle.pool_busy_ratio": (busy / (n_workers * wall)
                                  if n_workers and wall > 0.0 else 0.0),
        "cycle.pool_wait_s": pool_wait,
        "cli.self_s": self_s("cli"),
    }


def layer_self_total(spans, main_pid: int) -> float:
    """Self time of the pass process attributed to a layer, pool waiting
    included; the benchmark's own root span is left out.  It falls short
    of the traced wall by whatever time no layer span covers."""
    return sum(s[6] for s in spans
               if s[0] == main_pid and s[3].split(".")[0] in LAYERS)
