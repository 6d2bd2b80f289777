"""Incremental SSSP: repair warm distances after an edge-update batch.

Recomputing from scratch pays for the whole graph even when a handful of
edges changed.  This engine repairs a warm distance vector instead, in two
phases, then drains through the *unchanged* stepping framework — the same
policies, LAB-PQ and :mod:`repro.runtime.kernels` primitives as a fresh run,
restarted from the affected cone.  Both phases read only the changed edges
and the CSR rows around them, so a repair costs O(batch + the cone's edges)
rather than O(m) — the rule the paper's LAB-PQ applies to a size-b batch.

The warm row must be the pre-update graph's distances from the source (a
write-min fixpoint there), as every cached row, repaired row and fresh run
is.  All definitions below are on the *updated* graph ``G'`` with the warm
distances ``d``:

1. **Classification + cone invalidation.**  A batch that only *decreases*
   weights (inserts, reweights down) leaves every warm distance a valid
   upper bound — nothing to invalidate.  A batch with *increases* (deletes,
   reweights up) may strand warm distances below what is now achievable, so
   the affected cone is found and reset to ``+inf``:

   * an edge ``(u, v)`` is **tight** when ``d[u] + w == d[v]`` (and
     ``d[u] < d[v]``, which guards the rounding case ``d[u] + w == d[u]``
     and makes the parent forest acyclic); the minimum tight in-neighbour
     of each vertex is its warm shortest-path-tree parent;
   * a finite vertex other than the source with *no* tight in-edge lost
     every certificate for its warm distance — it is **directly affected**;
   * the cone is the direct set plus all its tree descendants.

   Everything outside the cone keeps a distance that is still *achievable*
   in ``G'`` (by induction along tight parents down to the source), hence
   a valid upper bound for the drain.

   Only a changed edge can take a vertex's certificate away: an untouched
   edge that was tight stays tight.  So the direct set is found among the
   heads of changed edges that existed and were tight before the batch
   (decreases included — a decreased tight edge is no longer tight), by
   reading their in-edge rows (:attr:`~repro.graphs.csr.Graph.transposed`,
   the graph itself when undirected).  The descendants are then walked one
   tree level at a time: gather the frontier's out-edges, keep the tight
   targets, and admit those whose minimum tight parent is in the cone.
   Two cases fall back to one whole-graph pass (:func:`spt_parents` plus
   pointer jumping over the parent forest), which gives the same cone:

   * a warm vertex whose tight in-edges are all absorbed by rounding has
     no certificate that any changed edge reveals; that needs a weight at
     most ``d[u] * 2**-53``, so the pass runs when the lightest weight
     (before or after the batch) times ``2**53`` is at most the largest
     finite ``d``;
   * a deep or wide cone (a path cut near the source) needs one NumPy
     round per level and up to two visits per edge; once the walk has
     spent its budget (``_WALK_SHARE`` of the edges, counting each level
     as ``_LEVEL_VISITS`` visits), the pass finishes the job.  A cone that
     covers the graph thus pays the budget on top of the pass.

2. **Seeding + drain.**  The repair frontier is the tails of every
   *improving* edge (``d[u] + w < d[v]`` with ``d[u]`` finite, after the
   reset).  An untouched edge keeps the warm distances of both endpoints
   unless one is in the cone, and the warm row is a fixpoint, so only two
   kinds of edge can improve: the in-edges of cone vertices from finite
   tails, and changed edges whose new weight beats the head's distance.
   The source's own out-edges are checked as well; on a fixpoint they add
   nothing, and they let the cold start ``[0, inf, ...]`` (the state a
   fresh run begins from) repair exactly.  Those seeds prime the LAB-PQ and
   :func:`~repro.core.framework.stepping_sssp` runs its ordinary loop via
   the ``dist_init``/``seeds`` warm start; an empty seed set returns the
   (reset) warm copy without a drain.  The monotone write-min fixpoint is
   execution-order independent, so repaired distances are
   **bit-identical** to a fresh run on the updated graph — the exact oracle
   the differential suite (``tests/dynamic``) asserts for every policy.

The cone and seeds are exactly the ones the whole-graph definitions give
(``tests/dynamic/test_incremental.py`` keeps those as its oracle); the
drain does work proportional to the cone — versus the many metered waves of
a full run, which is where the repair-vs-recompute speedup in
``BENCH_dynamic.json`` comes from.

Phase 1 and the seed set are :func:`repair_frontier`; the drain is
separate, so the serving engine
(:meth:`repro.serving.engine.QueryEngine.apply_updates`) runs phase 1 on
every warm row of a batch and then drains all rows in **one** lockstep
:func:`~repro.serving.fastpath.multi_source_distances` call instead of one
stepping run per row — the same fixpoint, so the same bits.
:func:`incremental_sssp` stays the per-row, per-policy API: the engine's
retry path and ``benchmarks/bench_dynamic.py`` use it (``repro stream``
replays through the engine, so it takes the lockstep drain).
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
from repro.runtime.kernels import gather_edges, unique_ids
from repro.runtime.workspan import RunStats
from repro.utils.errors import ParameterError

__all__ = ["affected_cone", "incremental_sssp", "repair_frontier"]

#: The cone walk pays ~2-3x per edge visit what the whole-graph pass pays
#: per edge, plus 15-50 us of NumPy dispatch per level (both on a 2-vCPU
#: x86 host).  It hands over to the pass once it has visited
#: ``_WALK_SHARE * m`` edges; on the OK stand-in 97% of the walks that
#: find a direct vertex finish inside that budget.
_LEVEL_VISITS = 512
_WALK_SHARE = 1 / 16


def _tight_parents(rev: Graph, dist: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Minimum-id strictly tight in-neighbour of each of ``vs`` (``n`` where
    there is none), read from the in-edge rows of the transposed CSR
    ``rev``."""
    n = rev.n
    tails, _, w, seg, degs = gather_edges(rev, vs)
    du = dist[tails]
    dv = np.repeat(dist[vs], degs)
    ids = np.where((du < dv) & (du + w == dv), tails, n)
    out = np.full(len(vs), n, dtype=np.int64)
    rows = degs > 0
    if ids.size:
        out[rows] = np.minimum.reduceat(ids, seg[rows])
    return out


def _scan_cone(graph: Graph, dist: np.ndarray, source: int) -> np.ndarray:
    """The cone from one pass over all edges: the tight-parent forest, its
    finite roots other than the source, and their descendants."""
    par = spt_parents(graph.edge_sources, graph.indices, graph.weights, dist)
    # Pointer jumping: after k rounds every vertex points 2^k hops up, or
    # at its root; parents strictly decrease dist, so every chain ends.
    for _ in range(int(np.ceil(np.log2(max(graph.n, 2)))) + 1):
        up = par[par]
        if np.array_equal(up, par):
            break
        par = up
    finite = np.isfinite(dist)
    stranded = finite.copy()  # read at roots only: finite, not the source
    stranded[source] = False
    return stranded[par] & finite


def affected_cone(
    graph: Graph, updates: ResolvedUpdates, dist: np.ndarray, source: int
) -> np.ndarray:
    """Boolean mask of warm distances no longer certified in ``graph``.

    ``graph`` is the *updated* graph, ``updates`` the delta that produced
    it and ``dist`` the warm (pre-update) distances from ``source``.  A
    vertex is affected when its tight-parent chain in ``graph`` ends at a
    root other than the source.  Found from the changed edges and the rows
    around the cone (see the module docstring); equal to the whole-graph
    definition whenever ``dist`` is the pre-update graph's fixpoint.
    """
    n = graph.n
    u, v, old_w = updates.old_edges
    lightest, heaviest = graph.min_weight, graph.max_weight
    if old_w.size:  # weights a pre-update distance can use: these plus old_w
        lightest = min(lightest, float(old_w.min()))
        heaviest = max(heaviest, float(old_w.max()))
    # Rounding can hide a root only if some weight is at most d * 2**-53;
    # a warm distance sums at most n - 1 edges, so weights alone usually
    # rule it out.
    absorbable = lightest * 2.0**53
    if absorbable <= n * heaviest and absorbable <= dist[np.isfinite(dist)].max():
        return _scan_cone(graph, dist, source)

    # Heads of changed edges that were tight; those left with no tight
    # in-edge are the direct set.  (A finite tail makes a tight head
    # finite; the source is never one.)
    du, dv = dist[u], dist[v]
    heads = unique_ids(v[(du < dv) & (du + old_w == dv)], n)
    cone = np.zeros(n, dtype=bool)
    if heads.size == 0:
        return cone
    rev = graph.transposed
    budget = _WALK_SHARE * graph.m
    spent = int(rev.degrees[heads].sum())
    frontier = heads[_tight_parents(rev, dist, heads) == n]
    while frontier.size:
        cone[frontier] = True
        spent += _LEVEL_VISITS + int(graph.degrees[frontier].sum())
        if spent > budget:
            return _scan_cone(graph, dist, source)
        # The next level: tight out-edges of the frontier to new vertices,
        # admitted when their own (minimum) tight parent is in the cone.
        targets, _, w, _, degs = gather_edges(graph, frontier)
        df = np.repeat(dist[frontier], degs)
        dt = dist[targets]
        tight = (df < dt) & (df + w == dt)
        tight &= ~cone[targets]
        if not tight.any():
            break
        targets = unique_ids(targets[tight], n)
        spent += int(rev.degrees[targets].sum())
        if spent > budget:
            return _scan_cone(graph, dist, source)
        frontier = targets[cone[_tight_parents(rev, dist, targets)]]
    return cone


def repair_frontier(
    graph: Graph, updates: ResolvedUpdates, dist: np.ndarray, source: int
) -> "tuple[int, np.ndarray]":
    """Reset the affected cone of ``dist`` to ``inf`` in place (skipped for a
    decrease-only batch); return ``(cone size, sorted repair seeds)``.

    ``dist`` is a warm row as :func:`incremental_sssp` takes it.  The
    seeds are the tails of every improving edge of ``graph`` after the
    reset: finite tails into the cone, changed edges that now beat their
    head, and the source itself when one of its out-edges does (see the
    module docstring for why no other edge can improve).  Draining the
    reset row from the seeds with any exact relaxation gives the fresh
    distances: :func:`incremental_sssp` drains one row through a stepping
    policy, and :meth:`repro.serving.engine.QueryEngine.apply_updates`
    drains all its warm rows in one lockstep
    :func:`~repro.serving.fastpath.multi_source_distances` call.
    """
    cone = 0
    improving = []
    if updates.increases.any():
        members = np.flatnonzero(affected_cone(graph, updates, dist, source))
        cone = len(members)
        dist[members] = np.inf
        tails = gather_edges(graph.transposed, members)[0]
        improving.append(tails[np.isfinite(dist)[tails]])
    u, v, new_w = updates.new_edges
    improving.append(u[dist[u] + new_w < dist[v]])
    row = slice(graph.indptr[source], graph.indptr[source + 1])
    if np.any(dist[source] + graph.weights[row] < dist[graph.indices[row]]):
        improving.append(np.array([source], dtype=np.int64))
    return cone, unique_ids(np.concatenate(improving), graph.n)


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
        invalidation entirely) and to find the cone and the seeds.
    warm:
        The pre-update :class:`~repro.core.result.SSSPResult`, or a bare
        ``float64[n]`` distance vector (then ``source`` is required): the
        pre-update graph's distances from ``source``, or the cold start
        ``[0, inf, ...]``.  Any other vector is outside the contract (its
        pending improvements are not looked for).
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
    cone, seeds = repair_frontier(graph, updates, dist, source)

    if seeds.size:
        res = stepping_sssp(
            graph, source, policy, options=options, seed=seed,
            workspace=workspace, dist_init=dist, seeds=seeds,
        )
    else:  # nothing can improve: the (reset) warm copy is the answer
        res = SSSPResult(
            dist=dist, source=source, algorithm=policy.name,
            params={"options": options or SteppingOptions()}, stats=RunStats(),
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
