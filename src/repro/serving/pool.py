"""Persistent process pools for sweep fan-out and pooled batch serving.

Two pools live here, both routed through
:class:`~repro.serving.supervisor.SupervisedPool` (timeouts, retries, crash
rebuild):

* :class:`SweepPool` — the sweep-grid orchestrator.  Each cell is one
  metered SSSP run; the graph reaches each worker **once**, through the
  pool initializer, and each task payload stays ``(impl_key, param, source,
  seed, machine)``.
* :class:`BatchPool` — the pooled multi-source distance engine.  A K-source
  batch is split into per-worker chunks of the dense
  :func:`~repro.serving.fastpath.multi_source_distances` fast path and each
  chunk's rows pickle home.  Distances are bit-identical to the serial fast
  path — chunk lanes are independent, and the fast path is pinned
  bit-identical to the scalar algorithms.

On Linux the pool forks, so a worker inherits the parent's CSR pages and
only the ``(k, n)`` result rows cross the pipe; sharing memory instead
would save nothing measurable (DESIGN.md §11).
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.csr import Graph
from repro.runtime.machine import MachineModel
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import FaultPlan
from repro.serving.supervisor import SupervisedPool
from repro.utils.errors import ParameterError

__all__ = ["BatchPool", "SweepPool"]

# Worker-side global installed by the pool initializer: the one graph this
# pool serves.
_WORKER_GRAPH: "Graph | None" = None


def _init_worker(graph: Graph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph
    # Warm the lazily-built CSR properties once per worker instead of once
    # per task.
    graph.degrees


def _run_cell(impl_key: str, param, source: int, seed, machine: MachineModel) -> float:
    # Imported here so the worker resolves the registry in its own process.
    from repro.analysis.runners import get_implementation, simulated_time

    impl = get_implementation(impl_key)
    res = impl.run(_WORKER_GRAPH, int(source), param, seed=seed)
    return float(simulated_time(res, machine, impl.profile))


def _valid_time(value) -> bool:
    """A sweep cell must come back as a finite non-negative simulated time."""
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


class SweepPool:
    """A persistent, supervised worker pool bound to one graph.

    Use as a context manager::

        with SweepPool(graph, jobs=4) as pool:
            times = pool.simulated_times("PQ-rho", 2**13, sources, machine)

    The pool survives across many calls (that is the point — workers keep
    the graph warm), recovers from worker crashes/hangs transparently (see
    :class:`~repro.serving.supervisor.SupervisedPool`), and shuts down with
    the context.  ``stats()`` exposes the supervision counters (rebuilds,
    retries, timeouts).
    """

    def __init__(
        self,
        graph: Graph,
        jobs: int,
        *,
        timeout: "float | None" = None,
        retries: int = 2,
        backoff: float = 0.05,
        seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
        collect_metrics: bool = False,
    ) -> None:
        if jobs < 2:
            raise ParameterError(f"SweepPool needs jobs >= 2, got {jobs} (use the serial path)")
        self.graph = graph
        self.jobs = jobs
        self._sup = SupervisedPool(
            jobs,
            initializer=_init_worker,
            initargs=(graph,),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            seed=seed,
            fault_plan=fault_plan,
            collect_metrics=collect_metrics,
        )

    def simulated_times(
        self, impl_key: str, param, sources, machine: MachineModel, *, seed=0
    ) -> list[float]:
        """Simulated seconds for ``impl_key`` at one param across ``sources``."""
        tasks = [(impl_key, param, int(s), seed, machine) for s in sources]
        return self._sup.map_supervised(_run_cell, tasks, validate=_valid_time)

    def map_cells(
        self, impl_key: str, params, sources, machine: MachineModel, *, seed=0
    ) -> "list[list[float]]":
        """Times for the full grid: one inner list per param, all in flight."""
        params = list(params)
        sources = [int(s) for s in sources]
        tasks = [(impl_key, p, s, seed, machine) for p in params for s in sources]
        flat = self._sup.map_supervised(_run_cell, tasks, validate=_valid_time)
        k = len(sources)
        return [flat[i * k : (i + 1) * k] for i in range(len(params))]

    def health_probe(self, timeout: float = 5.0) -> bool:
        """True when a worker answers a trivial round-trip within ``timeout``."""
        return self._sup.health_probe(timeout)

    def stats(self) -> dict:
        """Supervision counters (see :meth:`SupervisedPool.stats`)."""
        return self._sup.stats()

    def close(self) -> None:
        self._sup.close()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Pooled batch serving
# --------------------------------------------------------------------------- #


def _run_batch_chunk(algo, param, sources, row_lo):
    """One worker task: fast-path distances for a contiguous source chunk.

    Returns ``(row_lo, rows)`` so the parent can check the block against the
    chunk it asked for.  A pure function of its arguments, so supervised
    re-execution after a crash, hang, or rejected payload is idempotent.
    """
    rows = multi_source_distances(_WORKER_GRAPH, sources, algo=algo, param=param)
    return (int(row_lo), rows)


class BatchPool:
    """Persistent pooled multi-source engine: the fast path, chunked.

    Parameters
    ----------
    graph:
        The CSR graph to serve (installed once per worker).
    jobs:
        Worker process count (>= 2; the serial fast path needs no pool).
    algo, param:
        Fast-path stepping rule (``"rho"``/``"delta"``/``"bf"`` with its
        parameter) — same semantics as
        :func:`~repro.serving.fastpath.multi_source_distances`.
    chunk:
        Sources per task.  Default splits each batch evenly across ``jobs``
        (one task per worker), the latency-optimal shape when chunks cost
        roughly the same.
    timeout, retries, seed, fault_plan:
        Supervision knobs, forwarded to
        :class:`~repro.serving.supervisor.SupervisedPool`.
    """

    def __init__(
        self,
        graph: Graph,
        jobs: int,
        *,
        algo: str = "bf",
        param=None,
        chunk: "int | None" = None,
        timeout: "float | None" = None,
        retries: int = 2,
        seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if jobs < 2:
            raise ParameterError(f"BatchPool needs jobs >= 2, got {jobs} (use the serial fast path)")
        if chunk is not None and chunk < 1:
            raise ParameterError(f"chunk must be >= 1, got {chunk}")
        # Fail on a bad algo/param combination at construction, not in a
        # worker three processes away.
        multi_source_distances(graph, [], algo=algo, param=param)
        self.graph = graph
        self.jobs = jobs
        self.algo = algo
        self.param = param
        self.chunk = chunk
        self._sup = SupervisedPool(
            jobs,
            initializer=_init_worker,
            initargs=(graph,),
            timeout=timeout,
            retries=retries,
            seed=seed,
            fault_plan=fault_plan,
        )

    def _chunk_tasks(self, sources: "list[int]"):
        K = len(sources)
        size = self.chunk or max(1, -(-K // self.jobs))
        return [
            (self.algo, self.param, sources[lo : lo + size], lo)
            for lo in range(0, K, size)
        ]

    def _valid_chunk(self, payload, expected: "dict[int, int]") -> bool:
        """Parent-side payload validation (also catches injected corruption).

        A valid payload is ``(row_lo, rows)`` for a chunk this batch asked
        for, with exactly that chunk's row count, ``n`` columns, no NaN and
        no negative distance.  Anything else is rejected and re-executed.
        """
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        lo, rows = payload
        if not (isinstance(lo, int) and isinstance(rows, np.ndarray)) or lo not in expected:
            return False
        if rows.shape != (expected[lo], self.graph.n):
            return False
        return not np.isnan(rows).any() and bool((rows >= 0).all())

    def distances(self, sources) -> np.ndarray:
        """Fast-path distances for ``sources`` as a private ``(K, n)`` matrix.

        Bit-identical to the serial fast path (and therefore to the scalar
        algorithms) for any chunking: lanes never interact across chunks.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return np.zeros((0, self.graph.n))
        tasks = self._chunk_tasks(sources)
        expected = {lo: len(ss) for _, _, ss, lo in tasks}
        payloads = self._sup.map_supervised(
            _run_batch_chunk,
            tasks,
            validate=lambda p: self._valid_chunk(p, expected),
        )
        blocks = [rows for _, rows in payloads]
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def health_probe(self, timeout: float = 5.0) -> bool:
        """True when a worker answers a trivial round-trip within ``timeout``."""
        return self._sup.health_probe(timeout)

    def stats(self) -> dict:
        """Supervision counters (see :meth:`SupervisedPool.stats`)."""
        return self._sup.stats()

    def close(self) -> None:
        self._sup.close()

    def __enter__(self) -> "BatchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
