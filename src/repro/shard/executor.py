"""BSP sharded SSSP: per-shard θ-windows with halo exchange between them.

The driver runs paper Algorithm 1 bulk-synchronously over a
:class:`~repro.shard.sharded_graph.ShardedGraph`: every **superstep** picks
one global threshold θ (reusing the *unchanged* scalar policies — Δ*, ρ,
Bellman-Ford, ...), lets every shard extract and fully drain its local
frontier inside the window, then exchanges the improved boundary distances
along the precomputed halo routing tables.  Shards run one after another in
this process: the executor is the simulated distribution model (its
``StepRecord`` stream and halo counters are the output), not a source of
wall-clock speed-up.

**Bucket-fusion drains** (Zhang et al., CGO 2020, applied across shards):
with ``options.fusion`` (the default) a superstep does not stop at one
drain + exchange when its window would otherwise *recur* — θ = ∞ (ρ's
tail, Bellman-Ford) or a substep decision (Δ re-draining the same θ).
Distances arriving through the halo exchange that land inside the current
window are then re-extracted at the same θ and drained again — extra
*fusion rounds* that repeat until no shard holds in-window work.  Only then
does the policy pick the next θ.  One policy decision therefore settles one
whole window regardless of how many shard boundaries its shortest paths
cross, collapsing the halo-bounce supersteps that made the unfused executor
pay many policy decisions per window (ρ on OK: 12 supersteps → 1).  Windows
with a finite, always-advancing θ (Δ*, Dijkstra) are left unfused: their
in-window halo leftovers are extracted by the next superstep's larger θ
anyway, so fusing them would add rounds without removing a single decision.

**Coalesced halo exchange**: outgoing boundary updates are batched per
(destination shard, vertex) across *all* source shards, deduplicated to the
minimum distance per vertex (one sort + segmented min — the packed wire
format), and applied with one scatter-min (`write_min`) per destination.
``shard.halo_coalesced`` counts the duplicate messages the packing removed;
``shard.fusion_rounds`` counts the extra in-window rounds.

**Why the distances are bit-identical to an unsharded run.**  Every value a
relaxation ever writes is a left-to-right IEEE-754 sum of edge weights along
some source path, and float addition of a positive weight is monotone
(``a <= b  ⇒  fl(a+w) <= fl(b+w)``).  Chaotic relaxation run to quiescence
(no edge can improve its target) therefore converges to the *unique*
fixpoint ``δ[v] = min over paths P of float-sum(P)`` — independent of the
relaxation schedule.  The scalar framework terminates at that fixpoint; this
executor terminates when every shard queue is empty and every halo message
has been applied, i.e. at the same fixpoint.  Neither the θ sequence, the
partitioner, nor the shard count can change a single bit of the result
(``tests/shard/test_executor.py`` pins this for every algorithm ×
partitioner × shard count).

Policies see the sharded run through two small adapters: :class:`_GlobalPQ`
aggregates the per-shard LAB-PQs (``__len__``, ``min_key``) and
:class:`_ShardedCtx` mirrors the scalar ``_Ctx`` surface (``pq_live_keys``,
``n``, ``L``, ``rng``, ...), so ``policy.decide`` runs verbatim.
Augmented policies (Radius-Stepping) are rejected: their per-vertex ``r_ρ``
Collect would need an augmented global queue this executor does not build.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.framework import SteppingOptions, _relax_wave
from repro.core.policies import SteppingPolicy
from repro.core.result import SSSPResult
from repro.obs import OBS
from repro.pq.bitmap import BitmapPQ
from repro.pq.flat import FlatPQ
from repro.pq.tournament import TournamentPQ
from repro.runtime.atomics import write_min
from repro.runtime.kernels import Workspace, _run_starts
from repro.runtime.workspan import RunStats, StepRecord
from repro.shard.sharded_graph import ShardedGraph
from repro.utils.errors import DeadlineExceeded, ParameterError
from repro.utils.rng import as_generator

__all__ = ["sharded_sssp"]

_INT = np.int64
_EMPTY_IDS = np.zeros(0, dtype=_INT)

#: Largest shard-local universe for which the dense :class:`BitmapPQ` is
#: used in place of :class:`FlatPQ`.  Shard queues drain whole θ-windows, so
#: they sit in FlatPQ's dense regime anyway — but FlatPQ pays a hash-pool
#: rebuild (survivor re-scatter) per extract plus a span per operation under
#: an installed tracer, which dominates the superstep at small shard sizes.
#: Beyond ~a million locals the bitmap's Θ(n)-per-operation cost can lose to
#: FlatPQ's sparse mode on nearly-empty queues, so large shards keep FlatPQ.
_BITMAP_MAX_LOCAL = 1 << 20


# --------------------------------------------------------------------------- #
# Per-shard state and the local θ-window
# --------------------------------------------------------------------------- #


class _ShardState:
    """One shard's mutable run state: local distances, LAB-PQ, scratch."""

    __slots__ = ("shard", "dist", "pq", "ws", "touched_halo")

    def __init__(self, shard, options: SteppingOptions, rng) -> None:
        self.shard = shard
        self.dist = np.full(shard.n_local, np.inf)
        if options.pq == "flat":
            if shard.n_local <= _BITMAP_MAX_LOCAL:
                self.pq = BitmapPQ(self.dist, None)
            else:
                self.pq = FlatPQ(
                    self.dist, None, dense_frac=options.dense_frac, seed=rng
                )
        else:
            self.pq = TournamentPQ(self.dist, None)
        self.ws = Workspace(max(1, shard.n_local))
        self.touched_halo = np.zeros(shard.n_halo, dtype=bool)


def _local_window(local, n_owned, dist, frontier, theta, workspace):
    """Drain relaxation waves on one shard until the θ-window is quiet.

    Owned vertices whose tentative distance lands at or below ``theta``
    rejoin the next wave, so on return every in-window owned vertex has been
    relaxed *at its final in-window value*; improvements beyond θ (and every
    halo touch) are only recorded.  Returns
    ``(owned_touched, halo_touched, edges, successes, waves, max_task)``
    with the touched sets as boolean masks over owned / halo locals.
    """
    owned_touched = np.zeros(n_owned, dtype=bool)
    halo_touched = np.zeros(local.n - n_owned, dtype=bool)
    edges = successes = waves = max_task = 0
    wave = frontier
    while wave.size:
        waves += 1
        updated, e, sc, mt, _ = _relax_wave(
            local, dist, wave, bidirectional=False, workspace=workspace
        )
        edges += e
        successes += sc
        max_task = max(max_task, mt)
        owned_upd = updated[updated < n_owned]
        halo_upd = updated[updated >= n_owned]
        owned_touched[owned_upd] = True
        halo_touched[halo_upd - n_owned] = True
        if np.isfinite(theta):
            wave = owned_upd[dist[owned_upd] <= theta]
        else:
            wave = owned_upd
    return owned_touched, halo_touched, edges, successes, waves, max_task


# --------------------------------------------------------------------------- #
# Policy adapters
# --------------------------------------------------------------------------- #


class _GlobalPQ:
    """The union of the per-shard LAB-PQs, as policies expect to see it."""

    def __init__(self, states: "list[_ShardState]") -> None:
        self._states = states
        self.last_collect_scanned = 0

    def __len__(self) -> int:
        return sum(len(st.pq) for st in self._states)

    def min_key(self) -> float:
        best = float("inf")
        scanned = 0
        for st in self._states:
            key = st.pq.min_key()
            scanned += st.pq.last_collect_scanned
            if key < best:
                best = key
        self.last_collect_scanned = scanned
        return best


class _ShardedCtx:
    """The scalar ``_Ctx`` surface, backed by the shard states."""

    def __init__(self, graph, states, pq: _GlobalPQ, rng, dense_frac: float) -> None:
        self.graph = graph
        self.states = states
        self.pq = pq
        self.rng = rng
        self.n = graph.n
        self.L = graph.max_weight
        self.dense_frac = dense_frac
        self.step_index = 0

    def pq_live_keys(self) -> "tuple[np.ndarray, int]":
        keys = []
        scanned = 0
        for st in self.states:
            live = st.pq.live_ids()
            if live.size:
                keys.append(st.dist[live])
            scanned += st.shard.n_local
        if not keys:
            return np.zeros(0, dtype=np.float64), scanned
        return np.concatenate(keys), scanned


# --------------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------------- #


def _exchange_halos(states: "list[_ShardState]", n: int) -> "tuple[int, int]":
    """Route every improved halo distance to its owner shard, coalesced.

    All source shards' boundary updates are concatenated, sorted once by the
    composite key ``owner_shard * n + owner_local``, and collapsed to the
    minimum distance per (destination shard, vertex) — the packed array a
    real transport would put on the wire, one per destination per exchange.
    Each destination then applies its packed array with a single
    ``write_min`` (scatter-min: idempotent, order-independent) and enqueues
    the vertices whose distance actually improved.

    Returns ``(raw, packed)``: boundary updates produced by the drains vs
    deduplicated messages actually shipped (``raw - packed`` is the volume
    coalescing removed).
    """
    all_keys: "list[np.ndarray]" = []
    all_vals: "list[np.ndarray]" = []
    raw = 0
    for st in states:
        touched = np.flatnonzero(st.touched_halo)
        if not touched.size:
            continue
        st.touched_halo[:] = False
        shard = st.shard
        raw += int(touched.size)
        all_keys.append(shard.halo_owner[touched] * n + shard.halo_owner_local[touched])
        all_vals.append(st.dist[shard.n_owned + touched])
    if not all_keys:
        return 0, 0
    keys = np.concatenate(all_keys) if len(all_keys) > 1 else all_keys[0]
    vals = np.concatenate(all_vals) if len(all_vals) > 1 else all_vals[0]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    seg = np.flatnonzero(_run_starts(keys))
    keys = keys[seg]
    vals = np.minimum.reduceat(vals[order], seg)
    owners = keys // n
    locals_ = keys - owners * n
    bounds = np.searchsorted(owners, np.arange(len(states) + 1))
    for d in range(len(states)):
        lo, hi = bounds[d], bounds[d + 1]
        if lo == hi:
            continue
        target = states[d]
        success = write_min(target.dist, locals_[lo:hi], vals[lo:hi])
        improved = locals_[lo:hi][success]
        if improved.size:
            target.pq.update(improved)
    return raw, int(len(keys))


def sharded_sssp(
    graph,
    source: int,
    policy: SteppingPolicy,
    *,
    num_shards: int = 0,
    method: str = "contiguous",
    partition_opts: "dict | None" = None,
    sharded: "ShardedGraph | None" = None,
    options: "SteppingOptions | None" = None,
    seed=None,
    deadline_at: "float | None" = None,
) -> SSSPResult:
    """Run Algorithm 1 over a sharded graph, superstep by superstep.

    Parameters
    ----------
    graph:
        The global :class:`~repro.graphs.csr.Graph` (ignored when
        ``sharded`` is given — the partition's graph is authoritative).
    source:
        Source vertex id (global numbering).
    policy:
        Any non-augmented :class:`~repro.core.policies.SteppingPolicy`
        (Δ*, ρ, Bellman-Ford, Δ, Dijkstra) — reused *unchanged*.
    num_shards, method, partition_opts:
        Partition to build when ``sharded`` is not supplied (see
        :mod:`repro.shard.partition` for the methods); ``partition_opts``
        forwards partitioner keywords (e.g. fennel's ``refine``).
    sharded:
        A prebuilt (validated) :class:`ShardedGraph` to execute on.
    options:
        The scalar :class:`~repro.core.framework.SteppingOptions`; ``pq``
        and ``dense_frac`` select the per-shard LAB-PQ, ``max_steps`` bounds
        the superstep count.  ``fusion`` (default on) enables the
        bucket-fusion drain rounds on recurring windows (θ = ∞ or substep
        decisions): halo arrivals inside the current window are re-drained
        at the same θ until the window is globally quiet, instead of waiting
        for the next superstep.  Fused and unfused runs produce bit-identical
        distances (the fixpoint argument above); fusion only cuts the number
        of policy decisions and exchanges.
        ``fusion_limit``/``fusion_frontier_max`` are scalar-loop knobs and
        are ignored here — a shard window always drains fully.
    seed:
        Seed for partitioning (LDG), per-shard PQ scattering, and policy
        sampling (ρ-stepping's θ estimate).
    deadline_at:
        Absolute ``time.monotonic()`` deadline checked **between BSP
        supersteps** (and fusion rounds are bounded by their superstep): a
        run that outlives it raises
        :class:`~repro.utils.errors.DeadlineExceeded` instead of finishing
        the graph.  This is how a serving deadline cancels a straggling
        sharded run mid-graph — the engine's per-chunk checks alone would
        only fire after the whole run returned.  ``None`` = unbounded.
    """
    options = options or SteppingOptions()
    if policy.needs_aug:
        raise ParameterError(
            f"policy {policy.name} needs per-vertex augmentation; the sharded "
            "executor supports only non-augmented policies"
        )
    if sharded is None:
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        sharded = ShardedGraph.build(
            graph, num_shards, method, seed=seed, **(partition_opts or {})
        )
    part = sharded.partition
    graph = part.graph
    n = graph.n
    if not 0 <= source < n:
        raise ParameterError(f"source {source} out of range [0, {n})")

    tracer = OBS.tracer
    trace_on = OBS.enabled and tracer.enabled
    run_span = (
        tracer.begin(
            "shard.run", algo=policy.name, source=int(source),
            shards=part.num_shards, method=part.method, n=int(n), m=int(graph.m),
        )
        if trace_on else None
    )
    try:
        if OBS.enabled and OBS.registry.enabled:
            OBS.registry.set_gauge("shard.partition.cut_edges", float(part.cut_edges))
            OBS.registry.set_gauge("shard.partition.edge_imbalance", part.edge_imbalance)

        rng = as_generator(seed)
        states = [_ShardState(s, options, rng) for s in part.shards]
        owner = int(part.assign[source])
        src_local = int(states[owner].shard.to_local(np.array([source], dtype=_INT))[0])
        states[owner].dist[src_local] = 0.0
        states[owner].pq.update(np.array([src_local], dtype=_INT))

        global_pq = _GlobalPQ(states)
        ctx = _ShardedCtx(graph, states, global_pq, rng, options.dense_frac)
        policy.reset(ctx)

        def extract_all(theta):
            """Every shard's in-window frontier (empty queues skipped outright)."""
            frontiers = []
            total = scanned = 0
            for st in states:
                if len(st.pq):
                    f = st.pq.extract(theta)
                    scanned += st.pq.last_extract_scanned
                else:
                    f = _EMPTY_IDS
                frontiers.append(f)
                total += f.size
            return frontiers, total, scanned

        fuse = options.fusion
        stats = RunStats()
        halo_messages = 0
        halo_raw_total = 0
        fusion_rounds_total = 0
        t0 = time.perf_counter()
        guard = 0
        while len(global_pq) > 0:
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise DeadlineExceeded(
                    f"sharded run missed its deadline after "
                    f"{stats.num_steps} supersteps (|Q|={len(global_pq)})"
                )
            step_span = tracer.begin("shard.superstep") if trace_on else None
            guard += 1
            if options.max_steps and guard > options.max_steps:
                raise RuntimeError(
                    f"{policy.name}: exceeded max_steps={options.max_steps} "
                    "supersteps; likely a policy that fails to advance θ"
                )
            decision = policy.decide(ctx)
            theta = decision.theta
            frontiers, extracted, scanned = extract_all(theta)
            if extracted == 0:
                # θ from any supported policy is >= the global minimum key
                # and extraction uses <=, so *some* shard must extract.
                raise RuntimeError(
                    f"{policy.name}: empty superstep at theta={theta} with "
                    f"|Q|={len(global_pq)}"
                )
            rec = StepRecord(
                index=ctx.step_index,
                theta=float(theta),
                mode="bsp",
                extract_scanned=scanned,
                sample_work=decision.sample_work,
            )
            if decision.substep and stats.steps:
                rec.index = stats.steps[-1].index  # substeps share the index

            # Fusion pays off only when this window would otherwise recur:
            # θ = ∞ (ρ's tail, Bellman-Ford — the whole residual problem is
            # one window) or a substep decision (Δ re-draining the same θ).
            # A finite, advancing θ (Δ*, Dijkstra) covers in-window halo
            # leftovers in the *next* superstep anyway, so fusing there only
            # adds extract/exchange rounds without saving a policy decision.
            fuse_now = fuse and (decision.substep or not np.isfinite(theta))
            shard_edges = np.zeros(part.num_shards, dtype=_INT)
            windows_run = 0
            fusion_rounds = 0
            raw_step = packed_step = 0
            while True:
                rec.frontier += extracted
                for i, st in enumerate(states):
                    if not frontiers[i].size:
                        continue
                    windows_run += 1
                    owned_t, halo_t, edges, succ, waves, max_task = _local_window(
                        st.shard.local, st.shard.n_owned, st.dist,
                        frontiers[i], theta, st.ws,
                    )
                    _apply_window(st, owned_t, halo_t, theta)
                    shard_edges[i] += edges
                    rec.edges += edges
                    rec.relax_success += succ
                    rec.waves = max(rec.waves, waves)
                    rec.max_task = max(rec.max_task, max_task)
                raw, packed = _exchange_halos(states, n)
                raw_step += raw
                packed_step += packed
                if not fuse_now:
                    break
                # Fusion: halo arrivals at or below θ belong to this window —
                # drain them now at the same θ instead of paying another
                # policy decision (and another full superstep) for them.
                frontiers, extracted, scanned = extract_all(theta)
                if extracted == 0:
                    break
                fusion_rounds += 1
                rec.extract_scanned += scanned

            halo_messages += packed_step
            halo_raw_total += raw_step
            fusion_rounds_total += fusion_rounds
            stats.add(rec)
            if OBS.enabled:
                if OBS.registry.enabled:
                    reg = OBS.registry
                    reg.inc("shard.supersteps")
                    reg.inc("shard.frontier", rec.frontier)
                    reg.inc("shard.edges", rec.edges)
                    reg.inc("shard.halo.messages", packed_step)
                    reg.inc("shard.halo_coalesced", raw_step - packed_step)
                    reg.inc("shard.fusion_rounds", fusion_rounds)
                    reg.inc("shard.active_shards", windows_run)
                    work = shard_edges[shard_edges > 0]
                    if work.size:
                        reg.set_gauge(
                            "shard.superstep.imbalance",
                            float(work.max() / work.mean()),
                        )
                if step_span is not None:
                    step_span.set(
                        index=rec.index, theta=rec.theta, frontier=rec.frontier,
                        edges=rec.edges, active_shards=windows_run,
                        halo_messages=packed_step, halo_raw=raw_step,
                        halo_coalesced=raw_step - packed_step,
                        fusion_rounds=fusion_rounds, waves=rec.waves,
                        shard_edges=[int(v) for v in shard_edges],
                    )
                    tracer.end(step_span)
            ctx.step_index += 1

        dist = np.full(n, np.inf)
        for st in states:
            if st.shard.n_owned:
                dist[st.shard.owned] = st.dist[: st.shard.n_owned]

        if run_span is not None:
            run_span.set(
                supersteps=stats.num_steps, edges=stats.total_edge_visits,
                halo_messages=halo_messages,
                halo_coalesced=halo_raw_total - halo_messages,
                fusion_rounds=fusion_rounds_total,
            )
    finally:
        # A deadline or max_steps raise must not leave the run (and any open
        # superstep) on the tracer stack, or the next run nests under it.
        if run_span is not None:
            tracer.end(run_span)
    return SSSPResult(
        dist=dist,
        source=source,
        algorithm=policy.name,
        params={
            "options": options,
            "num_shards": part.num_shards,
            "partitioner": part.method,
            "cut_edges": part.cut_edges,
            "halo_messages": halo_messages,
            "halo_coalesced": halo_raw_total - halo_messages,
            "fusion_rounds": fusion_rounds_total,
        },
        stats=stats,
        wall_seconds=time.perf_counter() - t0,
    )


def _apply_window(st: _ShardState, owned_t, halo_t, theta: float) -> None:
    """Fold one finished window back into the shard's queue state.

    Owned vertices that settled inside the window were fully relaxed by the
    drain, so any stale queue membership is cleared; improvements beyond θ
    wait in the queue for a later superstep.  Halo touches accumulate for
    the exchange.
    """
    ids = np.flatnonzero(owned_t)
    if ids.size:
        if np.isfinite(theta):
            beyond = st.dist[ids] > theta
            st.pq.update(ids[beyond])
            st.pq.remove(ids[~beyond])
        else:
            st.pq.remove(ids)
    st.touched_halo |= halo_t
