"""Span recording for the traced run.

The traced run wraps each layer's public functions at the places where the
calling modules bound them (``scatter_min`` inside ``repro.core.framework``
and ``repro.serving.fastpath``, ``stepping_sssp`` inside
``repro.core.algorithms`` and ``repro.dynamic.incremental``, ...).  Every
call becomes one span ``(name, start, end, parent)``; spans stay in memory
and are written out when the process ends.  A span's parent is the
innermost span open on the same thread, so self time (duration minus the
time covered by child spans) splits an operation across layers without
double counting.

Nothing here is imported by the untraced runs' hot path: :func:`install`
is only called when ``--trace 1`` is given.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

#: Span names whose self time is reported per operation, keyed by metric.
LAYER_MS = {
    "core.self_ms": "core.stepping",
    "pq.extract_ms": "pq.extract",
    "pq.update_ms": "pq.update",
    "kernels.scatter_min_ms": "kernels.scatter_min",
    "kernels.gather_edges_ms": "kernels.gather_edges",
    "kernels.segmented_min_ms": "kernels.segmented_min",
    "kernels.unique_ids_ms": "kernels.unique_ids",
    "fastpath.batch_ms": "fastpath.batch",
    "engine.query_batch_ms": "engine.query_batch",
    "dynamic.resolve_ms": "dynamic.resolve",
    "dynamic.csr_rebuild_ms": "dynamic.csr_rebuild",
    "dynamic.repair_ms": "dynamic.repair",
}

#: The span of ``ShortestPathServer.submit``: it runs on the event-loop
#: thread and is awaited, not nested.
SUBMIT = "server.submit"


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, payload]
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; ``on_result(args, out)``
        may return a payload (a fact read off the call) kept in the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                span[4] = on_result(args, out)
            return out

        return traced

    def wrap_async(self, name: str, fn):
        """Span around an awaited coroutine method (no parent, no children:
        other requests interleave on the event loop while it waits)."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, -1, None]
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.spans.append(span)

        return traced

    def dump(self) -> list:
        """JSON-ready spans; run statistics are priced here, after the timed
        phase, so the pricing is not part of any span."""
        from repro.runtime import MachineModel

        machine = MachineModel(P=96)
        for span in self.spans:
            if span[0] == "core.stepping":
                span[4] = _run_facts(machine, span[4])
        return self.spans


def _run_facts(machine, stats) -> tuple:
    """(steps, edge visits, successful relaxations, simulated 96-core ms)."""
    return (stats.num_steps, stats.total_edge_visits, stats.total_relax_success,
            machine.time_seconds(stats) * 1e3)


def _patch(owner, attr: str, wrapper) -> None:
    setattr(owner, attr, wrapper(getattr(owner, attr)))


#: Elements of one kernel call: the ids or values it processes.
_KERNEL_ELEMENTS = {
    "scatter_min": lambda args, out: args[1].size,
    "gather_edges": lambda args, out: out[0].size,
    "segmented_min": lambda args, out: args[0].size,
    "unique_ids": lambda args, out: args[0].size,
}


def _kernel_facts(kernel: str):
    """(elements, bytes) of one call; bytes are computed from the sizes of
    the arrays the call reads and writes, leaving out the n-sized value
    array ``scatter_min`` updates in place (only its touched entries move)."""
    elements = _KERNEL_ELEMENTS[kernel]
    skip = 1 if kernel == "scatter_min" else 0

    def facts(args, out):
        outs = out if isinstance(out, tuple) else (out,)
        arrays = [a for a in args[skip:] + outs if isinstance(a, np.ndarray)]
        return int(elements(args, out)), int(sum(a.nbytes for a in arrays))

    return facts


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.cli
    import repro.core.algorithms
    import repro.core.framework
    import repro.dynamic
    import repro.dynamic.incremental
    import repro.labels
    import repro.labels.landmarks
    import repro.labels.query
    import repro.pq.flat
    import repro.runtime.atomics
    import repro.serving.engine
    import repro.serving.fastpath
    import repro.serving.server

    def span(name, on_result=None):
        return lambda fn: rec.wrap(name, fn, on_result)

    # graphs: the loader the CLI calls, and the one the in-process
    # programs call through repro.graphs.
    _patch(repro.cli, "load_npz", span("graphs.load"))
    import repro.graphs

    _patch(repro.graphs, "load_npz", span("graphs.load"))

    # core: the stepping loop, wherever a caller bound it.
    def stepping_facts(args, out):
        return out.stats

    for mod in (repro.core.algorithms, repro.dynamic.incremental,
                repro.labels.query, repro.labels.landmarks):
        _patch(mod, "stepping_sssp", span("core.stepping", stepping_facts))

    # pq: the LAB-PQ the framework builds by default.
    _patch(repro.pq.flat.FlatPQ, "extract", span("pq.extract"))
    _patch(repro.pq.flat.FlatPQ, "update", span("pq.update"))

    # runtime.kernels, at each caller's binding.
    kernel_sites = {
        repro.core.framework: ("gather_edges", "scatter_min", "segmented_min", "unique_ids"),
        repro.runtime.atomics: ("scatter_min",),
        repro.serving.fastpath: ("gather_edges", "scatter_min", "segmented_min"),
        repro.pq.flat: ("unique_ids",),
    }
    for mod, names in kernel_sites.items():
        for fname in names:
            _patch(mod, fname, span(f"kernels.{fname}", _kernel_facts(fname)))

    # serving: fast path, engine, server.
    _patch(repro.serving.engine, "multi_source_distances",
           span("fastpath.batch", lambda args, out: len(out)))
    _patch(repro.serving.engine.QueryEngine, "query_batch",
           span("engine.query_batch", lambda args, out: len(out)))

    def queue_waits(args, out):
        now = time.monotonic()
        return [now - p.enqueued_at for p in out]

    server_cls = repro.serving.server.ShortestPathServer
    _patch(server_cls, "_take_batch", span("server.take_batch", queue_waits))
    _patch(server_cls, "submit", lambda fn: rec.wrap_async(SUBMIT, fn))

    # labels: builds (set-up) and lookups.
    _patch(repro.labels, "build_landmarks", span("labels.landmarks_build"))
    _patch(repro.labels, "build_hub_labels",
           span("labels.hubs_build", lambda args, out: float(out.avg_label_size)))
    _patch(repro.labels.query.LabelIndex, "dist", span("labels.dist"))

    # dynamic: the three steps of QueryEngine.apply_updates.
    _patch(repro.dynamic, "resolve_updates", span("dynamic.resolve"))
    _patch(repro.dynamic, "apply_resolved", span("dynamic.csr_rebuild"))
    _patch(repro.dynamic, "incremental_sssp",
           span("dynamic.repair", lambda args, out: int(out.params["cone"])))


# --------------------------------------------------------------------------- #
# Aggregation (runs in the benchmark's parent process)
# --------------------------------------------------------------------------- #


def _self_times(spans: list) -> np.ndarray:
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur - child


def _batch_weights(spans: list) -> np.ndarray:
    """Requests served by each span: the size of the engine batch it ran
    in (every request of a batch waits for all of the batch's work), or 1."""
    weight = np.ones(len(spans))
    root = list(range(len(spans)))
    for i, s in enumerate(spans):  # a parent is always recorded before its children
        if s[3] >= 0:
            root[i] = root[s[3]]
        r = spans[root[i]]
        if r[0] == "engine.query_batch" and r[4]:
            weight[i] = r[4]
    return weight


def layer_metrics(spans: list, window: "tuple[float, float]", ops: int,
                  latency_ms_mean: float, stats: dict, *, batched: bool) -> dict:
    """Per-layer figures of one traced timed phase.

    ``window`` is the timed phase on the shared monotonic clock; spans
    outside it (set-up) are dropped, except the graph load and the label
    builds, which are set-up figures by definition.  Times in ``*_ms`` are
    self time per operation.  With ``batched`` (the TCP workload, where
    one engine batch serves several requests) a batch's time is counted
    once for every request in it, since each of them waits for all of it.
    ``residual_ms`` is the operation latency no layer accounts for.
    """
    lo, hi = window
    self_t = _self_times(spans) if spans else np.zeros(0)
    if batched and spans:
        self_t = self_t * _batch_weights(spans)
    inside = {}
    build = {}
    facts: dict = {}
    for i, (name, t0, t1, _parent, payload) in enumerate(spans):
        if lo <= t0 and t1 <= hi:
            agg = inside.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += self_t[i]
            agg[2] += t1 - t0
            if payload is not None:
                facts.setdefault(name, []).append(payload)
        elif name.startswith("labels.") and name.endswith("_build"):
            build[name] = build.get(name, 0.0) + (t1 - t0)
            if payload is not None:
                facts.setdefault(name, []).append(payload)
        elif name == "graphs.load":
            build.setdefault(name, t1 - t0)

    def count(name):
        return inside.get(name, [0, 0.0, 0.0])[0]

    def per_op_ms(name):
        return 1e3 * inside.get(name, [0, 0.0, 0.0])[1] / ops

    out = {k: per_op_ms(v) for k, v in LAYER_MS.items()}

    runs = np.array(facts.get("core.stepping", []), dtype=float).reshape(-1, 4)
    per_row = runs.mean(axis=0) if len(runs) else np.zeros(4)
    keys = ("core.steps", "core.edge_visits", "core.relax_success", "core.sim_ms")
    for key, value in zip(keys, per_row):
        out[key] = float(value)

    kfacts = [f for k, v in facts.items() if k.startswith("kernels.") for f in v]
    out["kernels.elements"] = sum(f[0] for f in kfacts) / ops
    out["kernels.bytes_computed"] = sum(f[1] for f in kfacts) / ops

    rows = facts.get("fastpath.batch", [])
    out["fastpath.rows_per_call"] = float(np.mean(rows)) if rows else 0.0

    waits = [w for batch in facts.get("server.take_batch", []) for w in batch]
    out["server.queue_wait_ms"] = 1e3 * float(np.mean(waits)) if waits else 0.0
    fills = [len(b) for b in facts.get("server.take_batch", []) if b]
    out["server.batch_fill"] = float(np.mean(fills)) if fills else 0.0

    n_submit = count(SUBMIT)
    out["tcp.front_ms"] = (
        latency_ms_mean - 1e3 * inside[SUBMIT][2] / n_submit if n_submit else 0.0
    )

    out["labels.landmarks_build_s"] = build.get("labels.landmarks_build", 0.0)
    out["labels.hubs_build_s"] = build.get("labels.hubs_build", 0.0)
    sizes = facts.get("labels.hubs_build", [])
    out["labels.avg_label_size"] = float(sizes[-1]) if sizes else 0.0
    n_dist = count("labels.dist")
    out["labels.dist_us"] = 1e6 * inside["labels.dist"][2] / n_dist if n_dist else 0.0

    cones = facts.get("dynamic.repair", [])
    out["dynamic.cone_vertices"] = float(np.mean(cones)) if cones else 0.0
    out["graphs.load_s"] = build.get("graphs.load", 0.0)

    # Self time of every span in the window (the async submit span excepted:
    # tcp.front_ms already stands for the part of the latency outside it).
    self_ms = 1e3 * sum(v[1] for k, v in inside.items() if k != SUBMIT) / ops
    out["residual_ms"] = (latency_ms_mean - out["tcp.front_ms"]
                          - out["server.queue_wait_ms"] - self_ms)
    out.update(stats)
    return out
