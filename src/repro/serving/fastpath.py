"""Dense multi-source SSSP fast path — the serving-side batch engine.

:class:`~repro.core.framework.BatchFrontier` replays each source's scalar
run bit-for-bit — per-lane priority queues, scatter-table probing, work-span
metering — because the analysis layer treats those counts as the semantics.
A serving endpoint only needs the *distances*, and label-correcting
relaxation converges to the same per-path float sums in any execution order,
so this module drops the machine simulation entirely:

* one flat ``(K, n)`` distance matrix and one flat queued-bit array;
* per step, the whole cross-lane frontier relaxes through a single edge
  gather — no per-lane Python, no hash tables, no priority queues;
* on undirected graphs each frontier vertex first *pulls* the minimum over
  its incoming edges (the Sec. 6 bidirectional optimisation, which settles
  most vertices in one touch and cuts total relaxations ~4x on meshes);
* the push-side ``scatter_min`` runs only on candidates that pass a cheap
  pre-pull snapshot test, shrinking the sort-based scatter to the small
  improving subset.

Distances are bit-identical to :func:`repro.core.rho_stepping` /
``delta_star_stepping`` / ``bellman_ford`` for the same sources (asserted in
``tests/serving`` and in ``benchmarks/bench_multisource.py``); step *counts*
are not comparable and are intentionally not reported.

The drain also takes a **warm start**: ``dist_init`` (one row of valid
upper bounds per source) plus per-row seed sets, the lane-wise shape of
:func:`~repro.core.framework.stepping_sssp`'s ``dist_init``/``seeds``.
:meth:`repro.serving.engine.QueryEngine.apply_updates` uses it to repair
every warm cache row of an update batch in one lockstep drain: each row's
cone is reset and its seeds found by :func:`repro.dynamic.repair_frontier`,
and the rows' frontiers then relax through the same single gather per step
as a cold batch.  The write-min fixpoint does not depend on where the drain
starts, so the repaired rows are bit-identical to a cold call on the
updated graph (``tests/dynamic/test_lockstep.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.runtime.kernels import gather_edges, scatter_min, segmented_min
from repro.utils.errors import ParameterError

__all__ = ["multi_source_distances"]

_INT = np.int64


def _lane_thetas(keys: np.ndarray, starts: np.ndarray, algo: str, param) -> np.ndarray:
    """Per-lane extraction threshold over the queued keys of each lane.

    ``keys`` are the queued tentative distances sorted by lane; lane ``i``
    owns ``keys[starts[i]:starts[i+1]]``.  Mirrors the paper's ExtDist rules:
    Δ*-stepping extracts ``min + Δ``, ρ-stepping the ρ nearest, Bellman-Ford
    everything.
    """
    K = len(starts) - 1
    thetas = np.full(K, np.inf)
    if algo == "bf":
        return thetas
    for i in range(K):
        lane = keys[starts[i] : starts[i + 1]]
        if lane.size == 0:
            continue
        if algo == "delta":
            thetas[i] = lane.min() + param
        else:  # rho
            if lane.size > param:
                thetas[i] = np.partition(lane, param - 1)[param - 1]
    return thetas


def multi_source_distances(
    graph: Graph,
    sources,
    *,
    algo: str = "bf",
    param=None,
    dist_init: "np.ndarray | None" = None,
    seeds=None,
) -> np.ndarray:
    """Shortest-path distances from ``K`` sources as a ``(K, n)`` matrix.

    Parameters
    ----------
    graph:
        CSR graph (directed or undirected).
    sources:
        Iterable of source vertex ids; one matrix row per source, in order.
        Duplicate sources are computed independently (dedup belongs to the
        :class:`~repro.serving.engine.QueryEngine` admission layer).
    algo:
        Stepping rule for the extraction threshold: ``"bf"`` (θ = ∞, the
        default and fastest here), ``"delta"`` (θ = min + Δ) or ``"rho"``
        (θ = ρ-th smallest queued key).  All three produce identical
        distances; the rule only shapes the wavefronts.
    param:
        Δ for ``"delta"``, ρ for ``"rho"``; ignored for ``"bf"``.
    dist_init:
        Warm start: a ``float64 (K, n)`` matrix whose row ``i`` holds valid
        upper bounds (achievable path lengths or ``inf``) on the distances
        from ``sources[i]``, drained in place of ``[0, inf, ...]`` — the
        shape of :func:`~repro.core.framework.stepping_sssp`'s ``dist_init``
        per lane.  The matrix is taken over by the run (pass a copy if the
        caller keeps it).  Requires ``seeds``.
    seeds:
        With ``dist_init``: ``K`` arrays of vertex ids, row ``i``'s repair
        frontier (the vertices whose out-edges may still improve row
        ``i``).  Empty rows are returned as given.
    """
    if algo not in ("bf", "delta", "rho"):
        raise ParameterError(f"unknown fast-path algo {algo!r}")
    if algo == "delta" and (param is None or param <= 0):
        raise ParameterError(f"delta fast path needs a positive delta, got {param}")
    if algo == "rho" and (param is None or int(param) < 1):
        raise ParameterError(f"rho fast path needs rho >= 1, got {param}")
    if algo == "rho":
        param = int(param)
    if (dist_init is None) != (seeds is None):
        raise ParameterError("dist_init and seeds must be passed together")
    src = np.asarray(list(sources), dtype=_INT)
    n = graph.n
    K = len(src)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ParameterError(f"source out of range [0, {n})")
    row_bounds = np.arange(K + 1, dtype=_INT) * n

    if dist_init is None:
        if K == 0:
            return np.zeros((0, n))
        dist = np.full((K, n), np.inf)
        start = row_bounds[:-1] + src
        dist.reshape(-1)[start] = 0.0
    else:
        dist = np.ascontiguousarray(dist_init, dtype=np.float64)
        if dist.shape != (K, n):
            raise ParameterError(
                f"dist_init has shape {dist.shape}, expected {(K, n)}"
            )
        if len(seeds) != K:
            raise ParameterError(f"got {len(seeds)} seed sets for {K} sources")
        seeds = [np.asarray(s, dtype=_INT) for s in seeds]
        start = np.concatenate([np.zeros(0, dtype=_INT), *seeds])
        if start.size and (start.min() < 0 or start.max() >= n):
            raise ParameterError(f"seed out of range [0, {n})")
        start += np.repeat(row_bounds[:-1], [len(s) for s in seeds])
    queued = np.zeros(K * n, dtype=bool)
    queued[start] = True
    _drain(graph, dist.reshape(-1), queued, row_bounds, algo, param)
    return dist


def _drain(
    graph: Graph, flat: np.ndarray, queued: np.ndarray, row_bounds: np.ndarray,
    algo: str, param,
) -> None:
    """Relax every lane of the flat ``(K, n)`` distance matrix from its
    queued vertices until no lane has one left (in place)."""
    n = graph.n
    pull = not graph.directed
    while True:
        idx = np.flatnonzero(queued)
        if idx.size == 0:
            break
        if algo != "bf":
            keys = flat[idx]
            starts = np.searchsorted(idx, row_bounds)
            thetas = _lane_thetas(keys, starts, algo, param)
            counts = np.diff(starts)
            sel = keys <= np.repeat(thetas, counts)
            idx = idx[sel]
            if idx.size == 0:  # every lane's θ fell below its min key
                raise ParameterError(f"fast path stalled (algo={algo}, param={param})")
        queued[idx] = False
        rows = idx // n
        cols = idx - rows * n
        targets, _, w, seg_starts, degs = gather_edges(graph, cols)
        if len(targets) == 0:
            continue
        eidx = np.repeat(rows, degs) * n + targets
        snap = flat[eidx]
        if pull:
            # Bidirectional pull: each frontier vertex takes the min over its
            # neighbours before pushing, reusing the gathered edge arrays.
            nonempty = degs > 0
            mins = segmented_min(snap + w, seg_starts[nonempty])
            vi = idx[nonempty]
            np.minimum(flat[vi], mins, out=mins)
            flat[vi] = mins
        cand = np.repeat(flat[idx], degs) + w
        # Pre-pull snapshot test: a candidate can only improve its target if
        # it beats the value the target had before this step, so the
        # sort-based scatter only sees the (small) potentially-improving set.
        sub = np.flatnonzero(cand < snap)
        if sub.size:
            se = eidx[sub]
            sc = cand[sub]
            old = scatter_min(flat, se, sc)
            queued[se[sc < old]] = True
