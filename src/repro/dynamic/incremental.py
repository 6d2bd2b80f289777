"""Incremental SSSP: repair warm distances after an edge-update batch.

Recomputing from scratch pays for the whole graph even when a handful of
edges changed.  This engine repairs a warm distance vector instead, in two
phases, then drains through the *unchanged* stepping framework — the same
policies, LAB-PQ and :mod:`repro.runtime.kernels` primitives as a fresh run,
restarted from the affected cone:

1. **Classification + cone invalidation.**  A batch that only *decreases*
   weights (inserts, reweights down) leaves every warm distance a valid
   upper bound — nothing to invalidate.  A batch with *increases* (deletes,
   reweights up) may strand warm distances below what is now achievable, so
   the affected cone is found and reset to ``+inf``:

   * an edge ``(u, v)`` of the updated graph is **tight** when
     ``dist[u] + w == dist[v]`` (and ``dist[u] < dist[v]``, which guards the
     rounding case ``dist[u] + w == dist[u]`` and makes the parent forest
     acyclic); the minimum tight in-neighbour of each vertex is its warm
     shortest-path-tree parent;
   * a finite vertex with *no* tight in-edge lost every certificate for its
     warm distance — it is **directly affected**;
   * the cone is the direct set plus all its tree descendants, found by a
     pointer-jumping sweep over the parent forest (``O(n log depth)``
     vectorised, no per-vertex Python loop).

   Everything outside the cone keeps a distance that is still *achievable*
   in the updated graph (by induction along tight parents down to the
   source), hence a valid upper bound for the drain.

2. **Seeding + drain.**  One edge-parallel scan finds every *improving*
   edge — ``dist[u] + w < dist[v]`` with ``dist[u]`` finite; its sources are
   exactly the repair frontier (the cone boundary plus the tails of
   decreased/inserted edges).  Those seeds prime the LAB-PQ and
   :func:`~repro.core.framework.stepping_sssp` runs its ordinary loop via
   the ``dist_init``/``seeds`` warm start.  The monotone write-min fixpoint
   is execution-order independent, so repaired distances are **bit-identical**
   to a fresh run on the updated graph — the exact oracle the differential
   suite (``tests/dynamic``) asserts for every policy.

The costs are one ``O(m)`` vectorised pass per phase plus drain work
proportional to the cone — versus the many metered waves of a full run,
which is where the repair-vs-recompute speedup in ``BENCH_dynamic.json``
comes from.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.framework import SteppingOptions, stepping_sssp
from repro.core.result import SSSPResult
from repro.dynamic.updates import ResolvedUpdates
from repro.graphs.csr import Graph
from repro.graphs.paths import spt_parents
from repro.obs import OBS
from repro.utils.errors import ParameterError

__all__ = ["affected_cone", "incremental_sssp"]


def affected_cone(graph: Graph, dist: np.ndarray, source: int) -> np.ndarray:
    """Boolean mask of warm distances no longer certified in ``graph``.

    ``graph`` is the *updated* graph and ``dist`` the warm (pre-update)
    distances.  A vertex is affected when its tight-parent chain fails to
    reach the source (or any still-supported root) — the descendant sweep
    over the warm shortest-path tree, run as pointer jumping.
    """
    n = graph.n
    finite = np.isfinite(dist)
    par = spt_parents(graph.edge_sources, graph.indices, graph.weights, dist)
    direct = finite & (par == np.arange(n, dtype=np.int64))  # no tight in-edge
    direct[source] = False
    aff = direct.copy()
    # Pointer jumping: after k rounds every vertex sees ancestors within
    # 2^k hops; parents strictly decrease dist, so chains end at a root.
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        naff = aff | aff[par]
        npar = par[par]
        if np.array_equal(naff, aff) and np.array_equal(npar, par):
            break
        aff, par = naff, npar
    return aff & finite


def incremental_sssp(
    graph: Graph,
    updates: ResolvedUpdates,
    warm,
    *,
    policy,
    source: "int | None" = None,
    options: "SteppingOptions | None" = None,
    seed=None,
    workspace=None,
) -> SSSPResult:
    """Repair ``warm`` distances on the updated ``graph``; exact result.

    Parameters
    ----------
    graph:
        The *post-update* graph (from :func:`~repro.dynamic.apply_updates`).
    updates:
        The :class:`~repro.dynamic.ResolvedUpdates` delta produced by
        :func:`~repro.dynamic.resolve_updates` against the *pre-update*
        graph — used to classify the batch (decrease-only batches skip cone
        invalidation entirely).
    warm:
        The pre-update :class:`~repro.core.result.SSSPResult`, or a bare
        ``float64[n]`` distance vector (then ``source`` is required).
    policy:
        A fresh :class:`~repro.core.policies.SteppingPolicy` for the drain
        (policies are stateful — do not reuse a run's instance).
    options, seed, workspace:
        Forwarded to :func:`~repro.core.framework.stepping_sssp`.

    Returns an :class:`SSSPResult` whose distances are bit-identical to a
    fresh ``stepping_sssp`` on ``graph`` from the same source; ``params``
    carries ``cone`` (invalidated vertices), ``seeds`` (repair frontier
    size) and ``decrease_only``.
    """
    if isinstance(warm, SSSPResult):
        warm_dist = warm.dist
        source = warm.source if source is None else source
    else:
        warm_dist = np.asarray(warm)
        if source is None:
            raise ParameterError(
                "incremental_sssp needs a source: pass an SSSPResult warm "
                "result, or source= alongside a bare distance vector"
            )
    n = graph.n
    if len(warm_dist) != n:
        raise ParameterError(
            f"warm distances have length {len(warm_dist)}, expected n={n} "
            "(updates never change the vertex count)"
        )
    if not 0 <= source < n:
        raise ParameterError(f"source {source} out of range [0, {n})")
    if warm_dist[source] != 0.0:
        raise ParameterError(
            f"warm dist[{source}] = {warm_dist[source]!r}, expected 0.0 — "
            "the warm result must come from the same source"
        )
    if updates.n != n:
        raise ParameterError(
            f"updates were resolved against an {updates.n}-vertex graph, "
            f"but the updated graph has n={n}"
        )

    span = (
        OBS.tracer.begin("dynamic.repair", algo=policy.name, source=int(source),
                         n=int(n), updates=int(updates.size))
        if OBS.enabled and OBS.tracer.enabled else None
    )
    t0 = time.perf_counter()
    dist = np.array(warm_dist, dtype=np.float64, copy=True)

    decrease_only = not bool(updates.increases.any())
    cone = 0
    if not decrease_only:
        affected = affected_cone(graph, dist, source)
        cone = int(np.count_nonzero(affected))
        if cone:
            dist[affected] = np.inf

    # The repair frontier: sources of every improving edge — cone boundary
    # vertices (their targets were just reset to inf) plus the tails of
    # inserted/decreased edges.  One edge-parallel scan finds both.
    du = dist[graph.edge_sources]
    improving = du + graph.weights < dist[graph.indices]  # inf du never improves
    seeds = np.unique(graph.edge_sources[improving])

    res = stepping_sssp(
        graph, source, policy, options=options, seed=seed,
        workspace=workspace, dist_init=dist, seeds=seeds,
    )
    res.algorithm = f"incremental-{policy.name}"
    res.params.update(
        incremental=True, cone=cone, seeds=int(seeds.size),
        decrease_only=decrease_only, updates=int(updates.size),
    )
    res.wall_seconds = time.perf_counter() - t0
    if OBS.enabled:
        if OBS.registry.enabled:
            OBS.registry.inc("dynamic.repairs")
            OBS.registry.inc("dynamic.cone", cone)
            OBS.registry.inc("dynamic.seeds", int(seeds.size))
            OBS.registry.observe("dynamic.repair.seconds", res.wall_seconds)
        if span is not None:
            span.set(cone=cone, seeds=int(seeds.size),
                     decrease_only=decrease_only, steps=res.stats.num_steps)
            OBS.tracer.end(span)
    return res
