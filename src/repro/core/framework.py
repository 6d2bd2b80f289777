"""The stepping-algorithm framework (paper Algorithm 1) plus the Sec. 6
implementation optimisations.

The main loop is a faithful rendering of Algorithm 1::

    δ[·] ← +∞; δ[s] ← 0; Q.Update(s)
    while |Q| > 0:
        for u in Q.Extract(ExtDist()):            # in parallel
            for v in N(u):                        # in parallel
                if WriteMin(δ[v], δ[u] + w(u,v)): Q.Update(v)
        execute FinishCheck

with ``ExtDist``/``FinishCheck`` supplied by a
:class:`~repro.core.policies.SteppingPolicy` and the queue by a LAB-PQ
(:class:`~repro.pq.flat.FlatPQ` or :class:`~repro.pq.tournament.TournamentPQ`).
The inner parallel-for pair executes as one vectorised batch with identical
semantics (:mod:`repro.runtime.atomics`); all work is metered into
:class:`~repro.runtime.workspan.StepRecord` entries.

Sec. 6 optimisations, each individually switchable for the ablation bench:

* **sparse–dense** frontier representation — lives inside ``FlatPQ``.
* **bidirectional relaxation** (undirected only) — before ``u`` relaxes its
  neighbours, it first lowers its own distance from them, reusing the same
  cache lines.
* **larger neighbor sets** ("bucket fusion"): when the frontier is tiny, run
  a local BFS of extra relaxation *waves* inside the step (budget 4096
  processed vertices) instead of paying a global barrier per hop — the
  optimisation that makes deep road graphs feasible.
* **threshold estimation** with the dense-round shrink heuristic — lives in
  :class:`~repro.core.policies.RhoPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.policies import SteppingPolicy
from repro.core.result import SSSPResult
from repro.obs import OBS
from repro.pq.base import LabPQ
from repro.pq.flat import FlatPQ
from repro.pq.tournament import TournamentPQ
from repro.runtime.atomics import write_min
from repro.runtime.kernels import (
    Workspace,
    gather_edges,
    scatter_min,
    segmented_min,
    unique_ids,
)
from repro.runtime.workspan import RunStats, StepRecord
from repro.utils.errors import ParameterError
from repro.utils.rng import as_generator

__all__ = ["BatchFrontier", "SteppingOptions", "batch_stepping_sssp", "stepping_sssp"]


@dataclass(frozen=True)
class SteppingOptions:
    """Implementation switches (Sec. 6), shared by all stepping algorithms.

    Attributes
    ----------
    pq:
        ``"flat"`` (array LAB-PQ, the paper's production choice) or
        ``"tournament"`` (tree LAB-PQ, the theoretical structure).
    dense_frac:
        Sparse→dense switch point as a fraction of ``n``.
    bidirectional:
        Relax each extracted vertex from its neighbours before it relaxes
        them.  Only applied on undirected graphs.
    fusion:
        Enable the local-BFS "larger neighbor sets" optimisation.
    fusion_limit:
        Per-step budget of vertices processed by fusion waves (paper: 4096).
    fusion_frontier_max:
        Fusion engages only when the extracted frontier is smaller than this.
    max_steps:
        Safety valve against configuration errors (0 = no limit).
    """

    pq: str = "flat"
    dense_frac: float = 0.05
    bidirectional: bool = True
    fusion: bool = True
    fusion_limit: int = 4096
    fusion_frontier_max: int = 1024
    max_steps: int = 0

    def __post_init__(self) -> None:
        if self.pq not in ("flat", "tournament"):
            raise ParameterError(f"pq must be 'flat' or 'tournament', got {self.pq!r}")
        if not 0 < self.dense_frac <= 1:
            raise ParameterError(f"dense_frac must be in (0,1], got {self.dense_frac}")
        if self.fusion_limit < 1 or self.fusion_frontier_max < 0:
            raise ParameterError("fusion parameters must be positive")


class _Ctx:
    """Framework state handed to policies (the ``ctx`` in their docstrings)."""

    def __init__(self, graph, dist, pq: LabPQ, rng, dense_frac: float) -> None:
        self.graph = graph
        self.dist = dist
        self.pq = pq
        self.rng = rng
        self.n = graph.n
        self.L = graph.max_weight
        self.dense_frac = dense_frac
        self.step_index = 0

    def pq_live_keys(self) -> tuple[np.ndarray, int]:
        """Keys of all queued ids plus the scan cost (for sampled ExtDist)."""
        pq = self.pq
        if isinstance(pq, FlatPQ) and len(pq) <= pq.dense_frac * pq.n:
            ids, scanned = pq._pool.contents()
            live = ids[pq.in_q[ids]]
            return self.dist[live], scanned
        live = pq.live_ids()
        return self.dist[live], self.n


def _step_counters(registry, rec: StepRecord) -> None:
    """Per-step counter rollup (observation only, never control flow)."""
    registry.inc("core.steps")
    registry.inc("core.waves", rec.waves)
    registry.inc("core.frontier", rec.frontier)
    registry.inc("core.edges", rec.edges)
    registry.inc("core.relax_success", rec.relax_success)


def _step_attrs(rec: StepRecord, extracted: int, substep: bool) -> dict:
    """Span attributes of one finished step (shared by scalar and batch)."""
    return {
        "index": rec.index,
        "theta": rec.theta,
        "mode": rec.mode,
        "extracted": extracted,
        "frontier": rec.frontier,
        "edges": rec.edges,
        "scanned": rec.extract_scanned,
        "waves": rec.waves,
        "substep": substep,
    }


def _gather_edges(graph, frontier: np.ndarray):
    """Flatten the CSR rows of ``frontier`` into parallel edge arrays.

    Returns ``(targets, pos, weights, seg_starts, degs)``; see
    :func:`repro.runtime.kernels.gather_edges`, which this delegates to
    (cached degrees, single-repeat position arithmetic, dtype-correct
    empties).
    """
    return gather_edges(graph, frontier)


def _relax_wave(graph, dist, frontier, *, bidirectional: bool, workspace: "Workspace | None" = None):
    """One relaxation wave: frontier relaxes all its out-neighbours.

    Returns ``(updated_ids, edges, successes, max_task, bidir_edges)``.
    """
    targets, _, w, seg_starts, degs = gather_edges(graph, frontier)
    edges = len(targets)
    if edges == 0:
        return np.zeros(0, dtype=np.int64), 0, 0, 0, 0

    bidir_edges = 0
    if bidirectional:
        # Relax u *from* its neighbours first (undirected graphs only): the
        # same CSR row supplies the incoming edges.  Frontier ids are unique,
        # so the scatter-min is a plain gather/minimum/scatter.
        nonempty = degs > 0
        if np.any(nonempty):
            incoming = dist[targets] + w
            mins = segmented_min(incoming, seg_starts[nonempty])
            f = frontier[nonempty]
            dist[f] = np.minimum(dist[f], mins)
            bidir_edges = edges

    cand = np.repeat(dist[frontier], degs) + w
    success = write_min(dist, targets, cand)
    updated = unique_ids(targets[success], graph.n, workspace=workspace)
    max_task = int(degs.max()) if len(degs) else 0
    return updated, edges, int(success.sum()), max_task, bidir_edges


def stepping_sssp(
    graph,
    source: int,
    policy: SteppingPolicy,
    *,
    options: SteppingOptions | None = None,
    aug: "np.ndarray | None" = None,
    seed=None,
    record_visits: bool = False,
    workspace: "Workspace | None" = None,
    dist_init: "np.ndarray | None" = None,
    seeds: "np.ndarray | None" = None,
) -> SSSPResult:
    """Run Algorithm 1 with the given policy and return distances + stats.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph`.
    source:
        Source vertex id.
    policy:
        The ExtDist/FinishCheck policy (one of :mod:`repro.core.policies`).
    options:
        Implementation switches; defaults to :class:`SteppingOptions`.
    aug:
        Per-vertex augmentation values for policies with ``needs_aug``
        (Radius-stepping's ``r_ρ``).
    seed:
        Seed for sampling and hash scattering.
    record_visits:
        Also record per-vertex extraction counts in ``stats.vertex_visits``.
    workspace:
        Optional pre-allocated :class:`~repro.runtime.kernels.Workspace` of
        size ``>= n``, reused across the run's waves.  Callers issuing many
        runs on one graph (the sweep harness) pass one warm workspace instead
        of paying a fresh scratch arena per source; results are unaffected.
    dist_init:
        Warm-start state: a ``float64[n]`` array of *valid upper bounds*
        (achievable path lengths or ``inf``) that the run repairs in place
        instead of starting from ``dist[source] = 0``.  The array is taken
        over by the run — pass a copy if the caller keeps the original.
        Requires ``seeds``; the incremental-repair engine
        (:func:`repro.dynamic.incremental_sssp`) is the intended caller.
    seeds:
        With ``dist_init``: the vertices whose out-edges may still improve a
        neighbour (the repair frontier); they prime the LAB-PQ in place of
        the source.  An empty array returns ``dist_init`` unchanged.
    """
    options = options or SteppingOptions()
    n = graph.n
    if not 0 <= source < n:
        raise ParameterError(f"source {source} out of range [0, {n})")
    if policy.needs_aug and aug is None:
        raise ParameterError(f"policy {policy.name} requires an aug array")
    if (dist_init is None) != (seeds is None):
        raise ParameterError("dist_init and seeds must be passed together")
    if dist_init is not None and len(dist_init) != n:
        raise ParameterError(f"dist_init has length {len(dist_init)}, expected n={n}")

    obs = OBS
    tracer = obs.tracer
    trace_on = obs.enabled and tracer.enabled
    run_span = (
        tracer.begin("sssp.run", algo=policy.name, source=int(source),
                     n=int(n), m=int(graph.m))
        if trace_on else None
    )

    try:
        rng = as_generator(seed)
        if dist_init is None:
            dist = np.full(n, np.inf)
            dist[source] = 0.0
            frontier0 = np.array([source], dtype=np.int64)
        else:
            dist = np.asarray(dist_init, dtype=np.float64)
            frontier0 = np.asarray(seeds, dtype=np.int64)
        if options.pq == "flat":
            pq: LabPQ = FlatPQ(dist, aug, dense_frac=options.dense_frac, seed=rng)
        else:
            pq = TournamentPQ(dist, aug)
        pq.update(frontier0)

        ctx = _Ctx(graph, dist, pq, rng, options.dense_frac)
        policy.reset(ctx)
        bidirectional = options.bidirectional and not graph.directed
        if workspace is None or workspace.n < n:
            workspace = Workspace(n)

        stats = RunStats()
        visits = np.zeros(n, dtype=np.int64) if record_visits else None
        t0 = time.perf_counter()
        guard = 0

        while len(pq) > 0:
            step_span = tracer.begin("sssp.step") if trace_on else None
            guard += 1
            if options.max_steps and guard > options.max_steps:
                raise RuntimeError(
                    f"{policy.name}: exceeded max_steps={options.max_steps}; "
                    "likely a policy that fails to advance its threshold"
                )
            decision = policy.decide(ctx)
            pq_touches = decision.collect_work
            frontier = pq.extract(decision.theta)
            mode = pq.last_extract_mode
            extract_scanned = pq.last_extract_scanned
            if frontier.size == 0:
                # A policy whose θ comes from the queue minimum can never extract
                # empty; reaching here means the policy failed to advance.
                raise RuntimeError(
                    f"{policy.name}: empty extract at theta={decision.theta} with |Q|={len(pq)}"
                )

            rec = StepRecord(
                index=ctx.step_index,
                theta=float(decision.theta),
                mode=mode,
                extract_scanned=extract_scanned,
                sample_work=decision.sample_work,
            )
            if decision.substep and stats.steps:
                rec.index = stats.steps[-1].index  # substeps share the step index

            wave = frontier
            processed = 0
            while wave.size:
                if visits is not None:
                    np.add.at(visits, wave, 1)
                updated, edges, successes, max_task, bidir = _relax_wave(
                    graph, dist, wave, bidirectional=bidirectional, workspace=workspace
                )
                pq.update(updated)
                pq_touches += pq.last_update_touches
                rec.frontier += len(wave)
                rec.edges += edges
                rec.relax_success += successes
                rec.max_task = max(rec.max_task, max_task)
                processed += len(wave)

                # "Larger neighbor sets" fusion: keep expanding locally while the
                # step is tiny and the budget allows (Sec. 6).  Expansion stays
                # inside the current threshold window — beyond it the tentative
                # distances are too immature and relaxing them is pure redundancy
                # (with θ = ∞, i.e. Bellman-Ford, the local BFS is unrestricted).
                if not (
                    options.fusion
                    and len(frontier) < options.fusion_frontier_max
                    and processed < options.fusion_limit
                    and updated.size
                ):
                    break
                if np.isfinite(decision.theta):
                    updated = updated[dist[updated] <= decision.theta]
                    if updated.size == 0:
                        break
                pq.remove(updated)
                wave = updated
                rec.waves += 1

            rec.pq_touches = pq_touches
            stats.add(rec)
            if obs.enabled:
                if obs.registry.enabled:
                    _step_counters(obs.registry, rec)
                if step_span is not None:
                    step_span.set(**_step_attrs(rec, len(frontier), bool(decision.substep)))
                    tracer.end(step_span)
            ctx.step_index += 1

        if run_span is not None:
            run_span.set(steps=stats.num_steps, waves=stats.num_waves,
                         edges=stats.total_edge_visits)
    finally:
        # A raise must not leave the run open on the tracer stack.
        if run_span is not None:
            tracer.end(run_span)
    stats.vertex_visits = visits
    return SSSPResult(
        dist=dist,
        source=source,
        algorithm=policy.name,
        params={"options": options},
        stats=stats,
        wall_seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------- #
# Multi-source batch engine
# --------------------------------------------------------------------------- #


class _Lane:
    """One source's complete scalar state inside a batch run.

    A lane owns exactly what a scalar :func:`stepping_sssp` run owns — its
    PQ, policy instance, RNG stream, step records, and one row of the shared
    ``(K, n)`` distance matrix — so its observable behaviour (frontiers,
    thetas, counts) is bit-for-bit the scalar run's.  Only the relaxation
    waves are shared across lanes.
    """

    __slots__ = (
        "lane", "source", "dist", "pq", "policy", "ctx", "stats", "visits",
        "guard", "frontier", "wave", "processed", "decision", "rec",
        "pq_touches", "span",
    )

    def __init__(self, lane, source, dist_row, pq, policy, ctx, record_visits, n):
        self.lane = lane
        self.source = source
        self.dist = dist_row
        self.pq = pq
        self.policy = policy
        self.ctx = ctx
        self.stats = RunStats()
        self.visits = np.zeros(n, dtype=np.int64) if record_visits else None
        self.guard = 0
        self.frontier = None  # the step's extracted frontier
        self.wave = None      # the current fusion wave (subset of work)
        self.processed = 0
        self.decision = None
        self.rec = None
        self.pq_touches = 0
        self.span = None  # the lane's open step span (tracing only)


class BatchFrontier:
    """Multi-source batch execution state (the ``(K, n)`` frontier mode).

    Runs ``K`` sources through Algorithm 1 *together*: every relaxation wave
    issues **one** ``gather_edges`` over the concatenation of all lanes'
    frontiers, one 2-D ``WriteMin`` into the shared ``(K, n)`` distance
    matrix, and one batched dedup over ``(source, vertex)`` pairs — the
    amortisation that turns K scalar queries into one vectorised pass.
    Everything a lane can observe is kept per-lane (PQ, policy state, RNG
    stream, StepRecord stream), so per-source accounting is bit-for-bit
    identical to K independent :func:`stepping_sssp` runs with the same
    ``seed`` — the golden scalar snapshots remain the oracle
    (``tests/core/test_batch_equivalence.py``).

    Lanes advance in lockstep over *their own* step sequences: each engine
    round gives every still-active lane its next step (its own θ decision and
    extraction), then the lanes' fusion waves interleave into shared
    relaxation passes until every lane's step completes.  Lanes whose queue
    empties drop out; the engine finishes when all lanes have.
    """

    def __init__(
        self,
        graph,
        sources,
        policy_factory,
        *,
        options: "SteppingOptions | None" = None,
        aug: "np.ndarray | None" = None,
        seed=None,
        record_visits: bool = False,
    ) -> None:
        self.options = options = options or SteppingOptions()
        self.graph = graph
        n = graph.n
        sources = [int(s) for s in sources]
        if not sources:
            raise ParameterError("batch needs at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise ParameterError(f"source {s} out of range [0, {n})")
        if isinstance(seed, np.random.Generator):
            raise ParameterError(
                "batch runs need a reseedable seed (int/None), not a live "
                "Generator: every lane replays the scalar run's RNG stream"
            )
        K = len(sources)
        self.dist = np.full((K, n), np.inf)
        self.workspace = Workspace(K * n)
        # Row boundaries of the flattened (K, n) key universe, for splitting
        # batched-dedup output back into per-lane slices.
        self._row_bounds = np.arange(K + 1, dtype=np.int64) * n
        self.bidirectional = options.bidirectional and not graph.directed
        self.record_visits = record_visits
        self._round_span = None  # parent span for this round's lane steps
        self.lanes: list[_Lane] = []
        for k, s in enumerate(sources):
            dist_row = self.dist[k]
            dist_row[s] = 0.0
            rng = as_generator(seed)
            if options.pq == "flat":
                pq: LabPQ = FlatPQ(dist_row, aug, dense_frac=options.dense_frac, seed=rng)
            else:
                pq = TournamentPQ(dist_row, aug)
            pq.update(np.array([s], dtype=np.int64))
            policy = policy_factory()
            if policy.needs_aug and aug is None:
                raise ParameterError(f"policy {policy.name} requires an aug array")
            ctx = _Ctx(graph, dist_row, pq, rng, options.dense_frac)
            policy.reset(ctx)
            self.lanes.append(_Lane(k, s, dist_row, pq, policy, ctx, record_visits, n))

    # ------------------------------------------------------------------ #

    def _begin_step(self, lane: _Lane) -> None:
        """One lane's ExtDist + extraction (the scalar loop head, verbatim)."""
        options = self.options
        if OBS.enabled and OBS.tracer.enabled:
            # Lane steps overlap (all K open at once inside one round), so
            # they attach by explicit parent instead of the tracer stack.
            lane.span = OBS.tracer.open(
                "sssp.step", parent=self._round_span,
                lane=lane.lane, source=lane.source,
            )
        lane.guard += 1
        if options.max_steps and lane.guard > options.max_steps:
            raise RuntimeError(
                f"{lane.policy.name}: exceeded max_steps={options.max_steps}; "
                "likely a policy that fails to advance its threshold"
            )
        decision = lane.policy.decide(lane.ctx)
        lane.pq_touches = decision.collect_work
        frontier = lane.pq.extract(decision.theta)
        if frontier.size == 0:
            raise RuntimeError(
                f"{lane.policy.name}: empty extract at theta={decision.theta} "
                f"with |Q|={len(lane.pq)}"
            )
        rec = StepRecord(
            index=lane.ctx.step_index,
            theta=float(decision.theta),
            mode=lane.pq.last_extract_mode,
            extract_scanned=lane.pq.last_extract_scanned,
            sample_work=decision.sample_work,
        )
        if decision.substep and lane.stats.steps:
            rec.index = lane.stats.steps[-1].index  # substeps share the step index
        lane.decision = decision
        lane.rec = rec
        lane.frontier = frontier
        lane.wave = frontier
        lane.processed = 0

    def _relax_shared_wave(self, part: "list[_Lane]") -> "list[np.ndarray]":
        """One relaxation wave shared by every lane in ``part``.

        A single edge gather serves all participating lanes; candidates
        scatter into the ``(K, n)`` matrix through the 2-D ``WriteMin`` and
        the successful ``(source, vertex)`` pairs dedup in one batched pass.
        Returns the per-lane sorted unique updated-vertex arrays, and fills
        each lane's ``rec`` counts exactly as the scalar ``_relax_wave``
        would.
        """
        n = self.graph.n
        K = self.dist.shape[0]
        flat = self.dist.reshape(-1)
        lane_ids = np.array([l.lane for l in part], dtype=np.int64)
        sizes = np.array([l.wave.size for l in part], dtype=np.int64)
        concat = np.concatenate([l.wave for l in part])
        targets, _, w, seg_starts, degs = gather_edges(self.graph, concat)
        total_edges = len(targets)

        # Per-lane extents: lane i's frontier slice is [vb[i], vb[i+1]) and
        # its edge slice is [eb[i], eb[i+1]).
        vb = np.zeros(len(part) + 1, dtype=np.int64)
        np.cumsum(sizes, out=vb[1:])
        eb = np.empty(len(part) + 1, dtype=np.int64)
        eb[:-1] = seg_starts[vb[:-1]]
        eb[-1] = total_edges

        rows = np.repeat(lane_ids, sizes)            # lane of each frontier vertex
        erows = np.repeat(lane_ids, np.diff(eb))     # lane of each gathered edge

        # Flat (lane, vertex) keys into the (K, n) matrix, shared by the
        # bidirectional gather, the scatter-min, and the batched dedup.
        eidx = erows * n + targets
        vidx = rows * n + concat

        if total_edges and self.bidirectional:
            # Mirrors the scalar bidirectional block: lanes never share a
            # matrix row, so reads/writes cannot interact across lanes.
            incoming = flat[eidx] + w
            nonempty = degs > 0
            mins = segmented_min(incoming, seg_starts[nonempty])
            fidx = vidx[nonempty]
            flat[fidx] = np.minimum(flat[fidx], mins)

        if total_edges:
            cand = np.repeat(flat[vidx], degs) + w
            # Row-disjoint 2-D WriteMin (scatter_min_2d unrolled over the
            # precomputed flat keys): one pass serves every lane.
            success = cand < scatter_min(flat, eidx, cand)
            # Batched dedup of the successful (lane, vertex) pairs — exactly
            # unique_pairs over (erows, targets), reusing eidx.
            keys = unique_ids(eidx[success], K * n, workspace=self.workspace)
            row_starts = np.searchsorted(keys, self._row_bounds)
        else:
            success = np.zeros(0, dtype=bool)
            keys = np.zeros(0, dtype=np.int64)
            row_starts = np.zeros(K + 1, dtype=np.int64)

        updated: list[np.ndarray] = []
        for i, lane in enumerate(part):
            lo, hi = row_starts[lane.lane], row_starts[lane.lane + 1]
            upd = keys[lo:hi] - lane.lane * n
            lane_edges = int(eb[i + 1] - eb[i])
            rec = lane.rec
            rec.frontier += int(sizes[i])
            rec.edges += lane_edges
            if lane_edges:
                rec.relax_success += int(np.count_nonzero(success[eb[i]:eb[i + 1]]))
                rec.max_task = max(rec.max_task, int(degs[vb[i]:vb[i + 1]].max()))
            lane.processed += int(sizes[i])
            updated.append(upd)
        return updated

    def _advance_wave(self, lane: _Lane, updated: np.ndarray) -> None:
        """The scalar post-relax block: PQ update, fusion decision, next wave."""
        options = self.options
        lane.pq.update(updated)
        lane.pq_touches += lane.pq.last_update_touches
        if not (
            options.fusion
            and len(lane.frontier) < options.fusion_frontier_max
            and lane.processed < options.fusion_limit
            and updated.size
        ):
            lane.wave = None
            return
        if np.isfinite(lane.decision.theta):
            updated = updated[lane.dist[updated] <= lane.decision.theta]
            if updated.size == 0:
                lane.wave = None
                return
        lane.pq.remove(updated)
        lane.wave = updated
        lane.rec.waves += 1

    def run(self) -> "list[SSSPResult]":
        """Drive every lane to completion; results in input-source order."""
        obs = OBS
        tracer = obs.tracer
        trace_on = obs.enabled and tracer.enabled
        batch_span = (
            tracer.begin("sssp.batch", algo=self.lanes[0].policy.name,
                         lanes=len(self.lanes), n=int(self.graph.n))
            if trace_on else None
        )
        t0 = time.perf_counter()
        active = list(self.lanes)
        round_no = 0
        while active:
            if trace_on:
                self._round_span = tracer.begin(
                    "sssp.round", index=round_no, lanes=len(active)
                )
            for lane in active:
                self._begin_step(lane)
            part = [l for l in active if l.wave.size]
            while part:
                if self.record_visits:
                    for lane in part:
                        np.add.at(lane.visits, lane.wave, 1)
                updated = self._relax_shared_wave(part)
                for lane, upd in zip(part, updated):
                    self._advance_wave(lane, upd)
                part = [l for l in part if l.wave is not None and l.wave.size]
            for lane in active:
                lane.rec.pq_touches = lane.pq_touches
                lane.stats.add(lane.rec)
                if obs.enabled:
                    if obs.registry.enabled:
                        _step_counters(obs.registry, lane.rec)
                    if lane.span is not None:
                        lane.span.set(**_step_attrs(
                            lane.rec, len(lane.frontier), bool(lane.decision.substep)
                        ))
                        tracer.close(lane.span)
                        lane.span = None
                lane.ctx.step_index += 1
            if trace_on:
                tracer.end(self._round_span)
                self._round_span = None
            round_no += 1
            active = [l for l in active if len(l.pq) > 0]
        elapsed = time.perf_counter() - t0
        if batch_span is not None:
            batch_span.set(rounds=round_no)
            tracer.end(batch_span)

        results = []
        for lane in self.lanes:
            lane.stats.vertex_visits = lane.visits
            results.append(SSSPResult(
                dist=lane.dist.copy(),
                source=lane.source,
                algorithm=lane.policy.name,
                params={"options": self.options, "batch_size": len(self.lanes)},
                stats=lane.stats,
                # Amortised per-query cost: the batch shares its waves, so
                # attributing wall clock per lane is meaningless — report the
                # batch total split evenly (throughput is what batches buy).
                wall_seconds=elapsed / len(self.lanes),
            ))
        return results


def batch_stepping_sssp(
    graph,
    sources,
    policy_factory,
    *,
    options: "SteppingOptions | None" = None,
    aug: "np.ndarray | None" = None,
    seed=None,
    record_visits: bool = False,
) -> "list[SSSPResult]":
    """Run Algorithm 1 for many sources through one shared relaxation wave.

    The multi-source counterpart of :func:`stepping_sssp`: ``policy_factory``
    is a zero-arg callable returning a *fresh* policy per source (policies
    are stateful), and the result list is ordered like ``sources``.  Every
    per-source result — distances, step records, visit counts — is
    bit-for-bit what the scalar entry point returns for that
    ``(source, seed)``; only wall clock (amortised across the batch) and the
    ``batch_size`` param differ.
    """
    return BatchFrontier(
        graph,
        sources,
        policy_factory,
        options=options,
        aug=aug,
        seed=seed,
        record_visits=record_visits,
    ).run()
