"""Front-door query engine: cache, batch admission, and execution planes.

A :class:`QueryEngine` is bound to one graph and one algorithm
configuration.  ``query_batch`` is the serving entry point: it answers each
source from the LRU cache when possible, dedupes the remaining sources (a
batch that asks for the same vertex twice runs it once), executes the
residue through one batched engine pass, and returns rows aligned with the
request order.

Two serving modes:

* ``"fast"`` (default) — the dense
  :func:`~repro.serving.fastpath.multi_source_distances` engine; the
  stepping algorithms' distances without their work-span accounting
  (metered ``StepRecord`` streams come from :mod:`repro.core.algorithms`).
* ``"p2p"`` — fast-path batches **plus** the precomputed point-to-point
  tier (:mod:`repro.labels`): the engine eagerly builds landmark + hub
  label tables at construction (with the engine's retry budget, through
  the ``labels.build`` fault site) and serves :meth:`QueryEngine.dist` /
  :meth:`QueryEngine.reachable` / :meth:`QueryEngine.knearest` from them
  in microseconds.  Every label answer is validated against the exact ALT
  bound sandwich; a violation, a lookup fault, or a build that kept
  failing degrades to the cached SSSP path — bit-identical answers,
  slower.  ``labels_path`` persists the tables as a ``.labels`` artifact
  (loaded in preference to rebuilding, rejected-and-rebuilt when corrupt
  or stale).

Execution planes, bound once at construction (and rebound on the new CSR
by :meth:`QueryEngine.apply_updates`):

* **sharded** — ``shards >= 1`` routes every execution through the serial
  BSP executor :func:`~repro.shard.executor.sharded_sssp` over a partition
  built once (``partitioner`` picks the method).  Its distances are
  bit-identical to the unsharded engine, so the cache, validation, and
  degradation story is unchanged — a failing sharded path degrades to the
  fast path.
* **pooled** — ``pool_jobs >= 2`` executes every fast-path batch through a
  persistent :class:`~repro.serving.pool.BatchPool`: each worker holds the
  graph and the batch's chunks run in parallel.  A failing pooled batch
  falls back to the in-process fast path (identical distances) and the
  event is counted in ``stats()["pool_fallbacks"]``.
* **local** — otherwise, the in-process fast path (the sharded executor
  counts as local too: it runs in process).

Every executed batch records where it ran (``"pool"`` or ``"local"``) in
``stats()["transports"]``; ``stats()["transport"]`` is the most recent
batch's, so benchmark rows are attributable to their execution plane.

Resilience (all off the hot path unless something goes wrong):

* **admission validation** — non-integer, negative or out-of-range sources
  raise :class:`~repro.utils.errors.ParameterError` naming the offending
  value, before anything reaches the kernels;
* **per-batch deadlines** — ``query_batch(..., deadline=s)`` (or the
  engine-level default) bounds the execution phase; with a deadline set the
  batch executes in chunks with a deadline check between chunks and raises
  :class:`~repro.utils.errors.DeadlineExceeded` on overrun;
* **bounded retries** — transient execution failures (including injected
  ones) are retried up to ``retries`` times; every result is sanity-checked
  (shape, no NaN, non-negative, zero self-distance) so corrupted payloads
  are rejected and re-executed rather than served;
* **circuit breaker** — after ``failure_threshold`` *consecutive* execution
  failures the circuit opens: misses fail fast with
  :class:`~repro.utils.errors.CircuitOpenError` while cache hits are still
  served; after ``cooldown`` seconds the circuit half-opens and one trial
  batch decides between closing (success) and re-opening (failure);
* **graceful degradation** — when the sharded path fails, the engine
  falls back to the fast path (bit-identical distances by construction)
  and counts the event in ``stats()["degraded"]``.

Dynamic graphs: :meth:`QueryEngine.apply_updates` applies an edge-update
batch (see :mod:`repro.dynamic`) to the served graph — stale cache entries
for the pre-update fingerprint are invalidated (never served again) and
their warm distances are repaired on the updated graph in one lockstep
drain (each row's cone reset and seeds from
:func:`~repro.dynamic.repair_frontier`, then one warm-started
:func:`~repro.serving.fastpath.multi_source_distances` over all rows), so
popular sources stay hot across updates without a full recompute.  An
entry whose lockstep row is faulted or rejected retries through
:func:`~repro.dynamic.incremental_sssp` alone; a repair that keeps failing
degrades to a fresh fast-path recompute for that entry, and failing that
the entry is simply dropped (the next query recomputes) — updates never
leave wrong answers behind.

Fault-injection sites: ``engine.execute`` fires on every execution attempt;
``engine.sharded`` additionally fires on the sharded path only — which is
what lets the chaos suite force a degradation without touching the
fallback; ``engine.update`` fires on every cache-repair attempt inside
:meth:`QueryEngine.apply_updates`; ``labels.build`` / ``labels.lookup`` fire inside the label tier (see
:mod:`repro.labels`).
"""

from __future__ import annotations

import copy
import logging
import operator
import threading
import time

import numpy as np

from repro.core.algorithms import DEFAULT_RHO
from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.serving.cache import ResultCache
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import get_injector
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    ParameterError,
    ReproError,
)

__all__ = ["QueryEngine"]

_LOG = logging.getLogger("repro.serving")

#: Sources per execution chunk when a deadline is active (the deadline is
#: checked between chunks; with no deadline the whole batch runs in one call
#: so the fault-free fast path is untouched).
_DEADLINE_CHUNK = 8


def _check_deadline(deadline_at: "float | None") -> None:
    if deadline_at is not None and time.monotonic() > deadline_at:
        raise DeadlineExceeded("batch missed its deadline")


class QueryEngine:
    """Cached, batch-aware SSSP query service over one graph.

    Parameters
    ----------
    graph:
        The CSR graph to serve.
    algo:
        ``"rho"``, ``"delta"`` or ``"bf"`` — the three production
        implementations (PQ-ρ, PQ-Δ, PQ-BF).
    param:
        ρ for ``"rho"`` (defaults to :data:`~repro.core.algorithms.DEFAULT_RHO`),
        Δ for ``"delta"`` (required); ignored for ``"bf"``.
    mode:
        ``"fast"`` or ``"p2p"`` (see module docstring).
    cache_size:
        LRU capacity in distance vectors.
    seed:
        Seed for partitioning (``shards``), the label build (``"p2p"``)
        and incremental repair; the fast path itself is seed-free.
    retries:
        Extra execution attempts after a transient failure (0 = none).
    deadline:
        Default per-batch deadline in seconds (``None`` = unbounded);
        overridable per call via ``query_batch(..., deadline=s)``.
    failure_threshold:
        Consecutive execution failures that trip the circuit breaker.
    cooldown:
        Seconds the circuit stays open before half-opening for a trial.
    shards:
        ``0`` (default) serves from the unsharded engines; ``>= 1`` builds a
        validated :class:`~repro.shard.sharded_graph.ShardedGraph` once and
        serves every execution through the BSP sharded executor
        (bit-identical distances).
    partitioner:
        Partition method when ``shards >= 1`` (see
        :data:`repro.shard.partition.PARTITIONERS`).
    refine:
        For ``partitioner="fennel"``: run the boundary-vertex refinement
        sweep after the streaming pass (default on).  Ignored by the other
        partitioners.
    pool_jobs:
        ``>= 2`` serves every fast-mode batch through a persistent
        :class:`~repro.serving.pool.BatchPool` of that many workers;
        ``0``/``1`` (default) executes in process.  Incompatible with
        ``shards >= 1`` (a different execution plane).
    num_landmarks / label_strategy:
        Size and selection strategy of the landmark table built in
        ``"p2p"`` mode (see :func:`repro.labels.build_landmarks`).
    labels_path:
        Optional ``.labels`` artifact path for ``"p2p"`` mode: loaded in
        preference to rebuilding when it matches the served graph, written
        after every (re)build.  A corrupt or stale artifact is rejected
        with a warning and rebuilt — it can never serve.
    """

    def __init__(
        self,
        graph: Graph,
        algo: str = "rho",
        param=None,
        *,
        mode: str = "fast",
        cache_size: int = 256,
        seed=0,
        retries: int = 2,
        deadline: "float | None" = None,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        shards: int = 0,
        partitioner: str = "contiguous",
        refine: bool = True,
        pool_jobs: int = 0,
        num_landmarks: int = 16,
        label_strategy: str = "farthest",
        labels_path=None,
    ) -> None:
        if algo not in ("rho", "delta", "bf"):
            raise ParameterError(f"unknown algo {algo!r}; choose rho, delta or bf")
        if mode not in ("fast", "p2p"):
            raise ParameterError(f"unknown mode {mode!r}; choose fast or p2p")
        if labels_path is not None and mode != "p2p":
            raise ParameterError("labels_path requires mode='p2p'")
        if num_landmarks < 1:
            raise ParameterError(f"num_landmarks must be >= 1, got {num_landmarks}")
        if shards < 0:
            raise ParameterError(f"shards must be >= 0, got {shards}")
        if pool_jobs < 0:
            raise ParameterError(f"pool_jobs must be >= 0, got {pool_jobs}")
        if pool_jobs >= 2 and shards:
            raise ParameterError(
                "pool_jobs requires the fast path: the sharded executor is "
                "its own execution plane"
            )
        if retries < 0:
            raise ParameterError(f"retries must be >= 0, got {retries}")
        if failure_threshold < 1:
            raise ParameterError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown <= 0:
            raise ParameterError(f"cooldown must be positive, got {cooldown}")
        if deadline is not None and deadline <= 0:
            raise ParameterError(f"deadline must be positive, got {deadline}")
        if algo == "rho":
            param = int(param) if param is not None else DEFAULT_RHO
        elif algo == "delta":
            if param is None:
                raise ParameterError("delta engine requires a delta param")
            param = float(param)
        else:
            param = None
        self.graph = graph
        self.algo = algo
        self.param = param
        self.mode = mode
        self.shards = int(shards)
        self.partitioner = partitioner
        self.seed = seed
        self.retries = retries
        self.deadline = deadline
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._refine = bool(refine)
        self.pool_jobs = int(pool_jobs)
        self._sharded = None
        self._pool = None
        self._bind_plane(graph)
        self.cache = ResultCache(cache_size)
        # Serving counters, updated in place; ``stats()`` hands out a deep
        # copy so callers can never mutate engine state through the dict.
        self._counters = {
            # sources answered without execution (cache or in-batch dup)
            "deduped": 0,
            # sources actually executed
            "executed": 0,
            # batches served by the fast path after the sharded path failed
            "degraded": 0,
            # total failed execution attempts over the engine's lifetime
            "exec_failures": 0,
            # execution retry attempts (re-runs after a transient failure)
            "retries": 0,
            # batches executed through the sharded BSP path
            "sharded_execs": 0,
            # closed → open transitions of the circuit breaker
            "circuit_trips": 0,
            # pooled fast-path batches degraded to in-process execution
            "pool_fallbacks": 0,
            # executed batches by where they ran (worker pool or in process)
            "transports": {"local": 0, "pool": 0},
            # concurrent half-open arrivals shed while a probe was in flight
            "half_open_shed": 0,
            # edge-update batches applied through apply_updates()
            "updates": 0,
            # update batches that resolved to a pure no-op (graph unchanged)
            "update_noops": 0,
            # stale cache entries brought forward by incremental repair
            "repaired": 0,
            # entries whose repair failed and degraded to a full recompute
            "repair_degraded": 0,
            # p2p queries answered (dist/reachable/knearest entry points)
            "p2p_queries": 0,
            # label-table builds that completed and validated
            "label_builds": 0,
            # label-build attempts that failed (injected or real)
            "label_build_failures": 0,
            # p2p queries served by SSSP because no label tables were live
            "label_fallbacks": 0,
            # label tables rebuilt after apply_updates invalidated them
            "label_rebuilds": 0,
        }
        self._consecutive_failures = 0
        self._open_until: "float | None" = None
        self._exec_seq = 0  # execution-batch sequence number (injection index)
        self._update_seq = 0  # repair-entry sequence number (engine.update index)
        self._last_transport: "str | None" = None
        # Half-open probe gate: exactly one trial batch may be in flight.
        # The lock (not just a flag) matters because the serving front door
        # drives the engine from a worker thread while callers may also use
        # it directly — check-then-set must be atomic.
        self._circuit_lock = threading.Lock()
        self._probe_inflight = False
        # Point-to-point label tier (p2p mode only): the store is the
        # fingerprint-keyed registry whose invalidation marks bundles stale;
        # the index is the validated query front end over the live bundle.
        self.num_landmarks = int(num_landmarks)
        self.label_strategy = label_strategy
        self.labels_path = labels_path
        self._label_store = None
        self._label_index = None
        # Fingerprint of the graph whose label build was given up — refused
        # (the graph breaks the label contract) or out of retries.  p2p
        # queries on it use the SSSP fallback; a graph change clears it.
        self._labels_given_up: "str | None" = None
        if mode == "p2p":
            from repro.labels import LabelStore

            self._label_store = LabelStore()
            # Eager build: p2p engines come up hot (or provably degraded).
            self._ensure_labels()

    # Read-only views of the counters (the pre-observability attribute API).
    @property
    def deduped(self) -> int:
        return self._counters["deduped"]

    @property
    def executed(self) -> int:
        return self._counters["executed"]

    @property
    def degraded(self) -> int:
        return self._counters["degraded"]

    @property
    def exec_failures(self) -> int:
        return self._counters["exec_failures"]

    @property
    def circuit_trips(self) -> int:
        return self._counters["circuit_trips"]

    # ------------------------------------------------------------------ #
    # admission

    def _admit(self, sources) -> list[int]:
        """Validate and normalise a batch of requested sources.

        Every source must be an integer vertex id in ``[0, n)``; anything
        else is rejected here, by name, instead of crashing (or silently
        negative-indexing) deep inside the relaxation kernels.
        """
        n = self.graph.n
        admitted = []
        for s in sources:
            try:
                v = operator.index(s)  # ints and np.integers; floats/str fail
            except TypeError:
                raise ParameterError(
                    f"source {s!r} is not an integer vertex id"
                ) from None
            if v < 0 or v >= n:
                raise ParameterError(f"source {v} is out of range [0, {n})")
            admitted.append(v)
        return admitted

    # ------------------------------------------------------------------ #

    def query(self, source: int) -> np.ndarray:
        """Distances from one source (row vector of length ``n``)."""
        return self.query_batch([source])[0]

    def query_batch(self, sources, *, deadline: "float | None" = None) -> np.ndarray:
        """Distances for each requested source as a ``(K, n)`` matrix.

        Admission: cached sources are answered immediately; the rest are
        deduped so each distinct source executes once per batch even if
        requested several times.  ``deadline`` (seconds, default the
        engine-level setting) bounds the execution phase.
        """
        sources = self._admit(sources)
        if not sources:
            return np.zeros((0, self.graph.n))
        t0 = time.perf_counter()
        deadline = self.deadline if deadline is None else deadline
        deadline_at = None if deadline is None else time.monotonic() + float(deadline)
        keys = [ResultCache.key(self.graph, self.algo, self.param, s) for s in sources]
        rows: "dict[tuple, np.ndarray]" = {}
        missing: list[int] = []
        for s, key in zip(sources, keys):
            if key in rows:
                continue
            hit = self.cache.get(key)
            if hit is not None:
                rows[key] = hit
            else:
                missing.append(s)
                rows[key] = None  # placeholder: claimed by this batch
        if missing:
            probe = self._claim_probe()
            try:
                dist = self._execute_resilient(missing, deadline_at)
            finally:
                if probe:
                    with self._circuit_lock:
                        self._probe_inflight = False
            # Attribute the executed batch to where it ran ("pool" or "local").
            transport = self._last_transport or "local"
            self._counters["transports"][transport] += 1
            if OBS.enabled:
                OBS.registry.inc(f"serving.engine.transport.{transport}")
            for i, s in enumerate(missing):
                key = ResultCache.key(self.graph, self.algo, self.param, s)
                rows[key] = self.cache.put(key, dist[i])
        self._counters["executed"] += len(missing)
        self._counters["deduped"] += len(sources) - len(missing)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("serving.engine.batches")
            registry.inc("serving.engine.executed", len(missing))
            registry.inc("serving.engine.deduped", len(sources) - len(missing))
            registry.observe("serving.batch.seconds", time.perf_counter() - t0)
        return np.stack([rows[key] for key in keys])

    # ------------------------------------------------------------------ #
    # point-to-point tier (p2p mode)

    @property
    def labels_ready(self) -> bool:
        """Whether live label tables are serving (p2p mode, build healthy)."""
        return (
            self._label_index is not None
            and not self._label_index.bundle.stale
        )

    def _require_p2p(self) -> None:
        if self.mode != "p2p":
            raise ParameterError(
                "point-to-point queries require mode='p2p' "
                f"(engine mode is {self.mode!r})"
            )

    def _label_fallback_row(self, source: int) -> np.ndarray:
        """Exact SSSP row for the label tier's fallback — cached, resilient."""
        return self.query_batch([source])[0]

    def _build_labels(self):
        """One resilient label build (landmarks + hubs), or ``None``.

        Each attempt passes through the ``labels.build`` fault site (inside
        the builders) and full structural validation; a corrupt build is
        rejected there and retried like any transient execution failure.
        ``None`` after the retry budget means the engine serves p2p queries
        from the SSSP fallback until :meth:`apply_updates` changes the
        graph.  A :class:`ParameterError` (the graph breaks the label
        contract, e.g. a non-integer weight) is not retried at all.  Either
        way the graph's fingerprint is recorded in ``_labels_given_up``, so
        no later query runs the build again.
        """
        from repro.labels import LabelBundle, build_hub_labels, build_landmarks

        L = min(self.num_landmarks, self.graph.n)
        for attempt in range(self.retries + 1):
            try:
                landmarks = build_landmarks(
                    self.graph, L, strategy=self.label_strategy,
                    algo=self.algo, param=self.param, seed=self.seed,
                )
                hubs = build_hub_labels(self.graph, landmarks, seed=self.seed)
                bundle = LabelBundle(
                    fingerprint=self.graph.fingerprint,
                    landmarks=landmarks, hubs=hubs,
                    meta={"algo": self.algo, "param": self.param},
                )
                bundle.validate(self.graph)
                self._counters["label_builds"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_builds")
                return bundle
            except ParameterError as exc:
                self._counters["label_build_failures"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_build_failures")
                self._labels_given_up = self.graph.fingerprint
                _LOG.warning(
                    "label tables refused for this graph (%s); serving p2p "
                    "queries from the SSSP fallback", exc,
                )
                return None
            except Exception as exc:
                self._counters["label_build_failures"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_build_failures")
                _LOG.warning(
                    "label build attempt %d/%d failed: %s",
                    attempt + 1, self.retries + 1, exc,
                )
        self._labels_given_up = self.graph.fingerprint
        _LOG.warning(
            "label build exhausted its retry budget; serving p2p queries "
            "from the SSSP fallback until the graph changes"
        )
        return None

    def _ensure_labels(self):
        """The live :class:`~repro.labels.LabelIndex`, (re)building as needed.

        Resolution order: live index → store entry for the current
        fingerprint → ``labels_path`` artifact (rejected if corrupt or
        stale) → fresh build (persisted back to ``labels_path``).  Returns
        ``None`` when the build for this graph was given up — callers
        degrade, never crash.
        """
        if self.labels_ready:
            return self._label_index
        if self._labels_given_up == self.graph.fingerprint:
            return None
        from repro.labels import LabelIndex, LabelStore, load_or_none, save_labels

        self._label_index = None
        key = LabelStore.key(self.graph)
        bundle = self._label_store.get(key)
        if bundle is not None and bundle.stale:  # pragma: no cover - defensive
            bundle = None
        if bundle is None and self.labels_path is not None:
            bundle = load_or_none(self.labels_path, graph=self.graph)
        if bundle is None:
            bundle = self._build_labels()
            if bundle is None:
                return None
            if self.labels_path is not None:
                save_labels(self.labels_path, bundle)
        self._label_store.put(key, bundle)
        self._label_index = LabelIndex(
            self.graph, bundle, fallback=self._label_fallback_row
        )
        return self._label_index

    def _p2p_begin(self, vertices):
        """Shared preamble of the p2p entry points.

        Checks the mode, admits ``vertices``, counts the query, and resolves
        the live label index — ``None`` (counted as a label fallback) when
        the caller must answer from the SSSP path.  Returns
        ``(admitted, index)``.
        """
        self._require_p2p()
        vertices = self._admit(vertices)
        self._counters["p2p_queries"] += 1
        index = self._ensure_labels()
        if index is None:
            self._counters["label_fallbacks"] += 1
        if OBS.enabled:
            OBS.registry.inc("serving.engine.p2p_queries")
            if index is None:
                OBS.registry.inc("serving.engine.label_fallbacks")
        return vertices, index

    def dist(self, source: int, target: int) -> float:
        """Exact point-to-point distance (``inf`` when unreachable).

        Label-served in microseconds when the tables are live and pass
        bound validation; otherwise answered from the cached SSSP path —
        bit-identical either way.
        """
        (source, target), index = self._p2p_begin((source, target))
        if index is None:
            return float(self._label_fallback_row(source)[target])
        return index.dist(source, target)

    def reachable(self, source: int, target: int) -> bool:
        """Whether a ``source -> target`` path exists (p2p mode)."""
        (source, target), index = self._p2p_begin((source, target))
        if index is None:
            return bool(np.isfinite(self._label_fallback_row(source)[target]))
        return index.reachable(source, target)

    def knearest(self, target: int, sources, k: int) -> "list[tuple[int, float]]":
        """The ``k`` sources nearest to ``target`` as ``(source, dist)`` pairs."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        (target, *sources), index = self._p2p_begin([target, *sources])
        if index is not None:
            return index.knearest(target, sources, k)
        rows = self.query_batch(sources)
        pairs = sorted(
            (float(rows[i, target]), s)
            for i, s in enumerate(sources)
            if np.isfinite(rows[i, target])
        )
        return [(s, d) for d, s in pairs[:k]]

    def stats(self) -> dict:
        """Serving counters for dashboards and tests.

        The returned dict is a deep copy — callers may mutate it freely
        without corrupting engine state (pinned by a regression test).
        """
        out = copy.deepcopy(self._counters)
        out.update(
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_invalidations=self.cache.invalidations,
            cache_size=len(self.cache),
            circuit_state=self._circuit_state(),
            transport=self._last_transport,
            labels_ready=self.labels_ready,
        )
        if self._label_index is not None:
            out["label_lookup"] = dict(self._label_index.stats)
        return out

    # ------------------------------------------------------------------ #
    # circuit breaker

    def _circuit_state(self) -> str:
        if self._open_until is None:
            return "closed"
        if time.monotonic() >= self._open_until:
            return "half-open"
        return "open"

    @property
    def circuit_state(self) -> str:
        """``"closed"`` / ``"half-open"`` / ``"open"`` (cheap, lock-free read)."""
        return self._circuit_state()

    def _claim_probe(self) -> bool:
        """Gate execution on the breaker; claim the half-open trial slot.

        Returns True when this batch is *the* half-open probe (the caller
        must release the slot when the attempt resolves).  Raises
        :class:`CircuitOpenError` when the circuit is open, and also when
        it is half-open but another probe is already in flight — without
        this second check, N concurrent arrivals at the cooldown boundary
        would all be admitted as "one" trial, defeating the breaker exactly
        when the backend is most fragile.
        """
        state = self._circuit_state()
        if state == "open":
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures} consecutive "
                f"execution failures; retrying in <= {self.cooldown:g}s "
                "(cache hits are still served)"
            )
        if state != "half-open":
            return False
        with self._circuit_lock:
            if self._probe_inflight:
                self._counters["half_open_shed"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.circuit.half_open_shed")
                raise CircuitOpenError(
                    "circuit half-open and a trial probe is already in "
                    "flight; shedding until it resolves"
                )
            self._probe_inflight = True
        return True

    def _record_failure(self) -> None:
        self._counters["exec_failures"] += 1
        self._consecutive_failures += 1
        if OBS.enabled:
            OBS.registry.inc("serving.engine.exec_failures")
        if self._open_until is not None:
            # A half-open trial failed: re-open for another cooldown.
            self._open_until = time.monotonic() + self.cooldown
            self._note_circuit("open")
            _LOG.warning("circuit re-opened after failed half-open trial")
        elif self._consecutive_failures >= self.failure_threshold:
            self._open_until = time.monotonic() + self.cooldown
            self._counters["circuit_trips"] += 1
            self._note_circuit("open")
            _LOG.warning(
                "circuit opened after %d consecutive failures (cooldown %.3gs)",
                self._consecutive_failures, self.cooldown,
            )

    def _record_success(self) -> None:
        if self._open_until is not None:
            self._note_circuit("closed")
            _LOG.info("circuit closed after successful half-open trial")
        self._consecutive_failures = 0
        self._open_until = None

    #: gauge encoding of the breaker state (``serving.circuit.state``)
    _CIRCUIT_LEVEL = {"closed": 0, "half-open": 1, "open": 2}

    def _note_circuit(self, state: str) -> None:
        """Mirror a breaker transition into the metrics registry."""
        if OBS.enabled:
            OBS.registry.inc(f"serving.circuit.{state}_transitions")
            OBS.registry.set_gauge("serving.circuit.state", self._CIRCUIT_LEVEL[state])

    # ------------------------------------------------------------------ #
    # execution

    def _bind_plane(self, graph: Graph) -> None:
        """Bind the execution plane (sharded partition or batch pool) to ``graph``.

        Runs at construction and again in :meth:`apply_updates`: both planes
        hold the CSR they were built on, so a graph change rebuilds them.
        """
        if self.shards:
            from repro.shard import ShardedGraph

            opts = {"refine": self._refine} if self.partitioner == "fennel" else {}
            self._sharded = ShardedGraph.build(
                graph, self.shards, self.partitioner, seed=self.seed, **opts
            )
        elif self.pool_jobs >= 2:
            from repro.serving.pool import BatchPool

            if self._pool is not None:
                self._pool.close()
            self._pool = BatchPool(
                graph, self.pool_jobs, algo=self.algo, param=self.param,
                retries=self.retries,
            )

    def _execute_resilient(self, sources: list[int], deadline_at) -> np.ndarray:
        """Execute with retries, circuit accounting, and sharded→fast fallback."""
        sharded = self._sharded is not None
        try:
            dist = self._attempts(sources, deadline_at, sharded=sharded)
        except (DeadlineExceeded, CircuitOpenError):
            raise
        except Exception as exc:
            if not sharded:
                if isinstance(exc, ReproError):
                    raise
                raise ExecutionError(f"batch execution failed: {exc}") from exc
            # Graceful degradation: the sharded (BSP) path is down; the fast
            # path produces bit-identical distances, so serve those rather
            # than failing the batch.
            _LOG.warning("sharded path failed (%s); degrading batch to the fast path", exc)
            try:
                dist = self._attempts(sources, deadline_at, sharded=False)
            except (DeadlineExceeded, CircuitOpenError):
                raise
            except Exception as fast_exc:
                if isinstance(fast_exc, ReproError):
                    raise
                raise ExecutionError(f"batch execution failed: {fast_exc}") from exc
            self._counters["degraded"] += 1
            if OBS.enabled:
                OBS.registry.inc("serving.engine.degraded")
        self._record_success()
        return dist

    def _attempts(self, sources: list[int], deadline_at, *, sharded: bool) -> np.ndarray:
        index = self._exec_seq
        self._exec_seq += 1
        last: "Exception | None" = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                self._counters["retries"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.retries")
            try:
                return self._execute_once(
                    sources, deadline_at, index, attempt, sharded=sharded
                )
            except DeadlineExceeded:
                self._record_failure()
                raise
            except Exception as exc:
                last = exc
                self._record_failure()
                _LOG.warning("execution attempt %d/%d failed: %s",
                             attempt + 1, self.retries + 1, exc)
                if self._circuit_state() == "open":
                    # The breaker tripped mid-retry: stop burning attempts.
                    raise CircuitOpenError(
                        f"circuit breaker tripped after {self._consecutive_failures} "
                        f"consecutive execution failures: {exc}"
                    ) from exc
        raise last

    def _execute_once(
        self, sources: list[int], deadline_at, index: int, attempt: int, *, sharded: bool
    ) -> np.ndarray:
        injector = get_injector()
        directive = injector.fire("engine.execute", index=index, attempt=attempt)
        if sharded:
            path_directive = injector.fire("engine.sharded", index=index, attempt=attempt)
            directive = directive or path_directive
        _check_deadline(deadline_at)
        if deadline_at is None:
            dist = self._run_chunk(sources, sharded=sharded, deadline_at=None)
        else:
            outs = []
            for lo in range(0, len(sources), _DEADLINE_CHUNK):
                outs.append(self._run_chunk(
                    sources[lo : lo + _DEADLINE_CHUNK], sharded=sharded,
                    deadline_at=deadline_at,
                ))
                _check_deadline(deadline_at)
            dist = outs[0] if len(outs) == 1 else np.vstack(outs)
        if directive == "corrupt":
            dist = np.array(dist, copy=True)
            dist[0, sources[0]] += 1.0  # breaks the zero-self-distance invariant
        self._validate_result(dist, sources)
        return dist

    def _run_chunk(
        self, sources: list[int], *, sharded: bool, deadline_at: "float | None" = None
    ) -> np.ndarray:
        if sharded:
            return self._run_sharded(sources, deadline_at)
        return self._run_fast(sources)

    def _run_fast(self, sources: list[int]) -> np.ndarray:
        """The fast path: pooled when configured, in-process otherwise.

        A pooled failure degrades to in-process execution (bit-identical
        distances) instead of burning the batch's retry budget on a sick
        pool; the event is counted so dashboards see the plane change.
        """
        if self._pool is not None:
            try:
                dist = self._pool.distances(sources)
                self._last_transport = "pool"
                return dist
            except Exception as exc:
                _LOG.warning(
                    "pooled fast path failed (%s); executing the batch in-process", exc
                )
                self._counters["pool_fallbacks"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.pool_fallbacks")
        self._last_transport = "local"
        return multi_source_distances(
            self.graph, sources, algo=self.algo, param=self.param
        )

    def _make_policy(self):
        """A fresh stepping policy for the sharded path (policies are stateful)."""
        from repro.core.policies import (
            BellmanFordPolicy,
            DeltaStarPolicy,
            RhoPolicy,
        )

        if self.algo == "rho":
            return RhoPolicy(self.param)
        if self.algo == "delta":
            return DeltaStarPolicy(self.param)
        return BellmanFordPolicy()

    def _run_sharded(
        self, sources: list[int], deadline_at: "float | None" = None
    ) -> np.ndarray:
        """One sharded BSP run per source over the prebuilt partition.

        The batch deadline propagates into every run: the BSP driver checks
        it between supersteps, so a deadline can cancel a straggling run
        mid-graph instead of only between 8-source chunks.
        """
        from repro.shard import sharded_sssp

        self._last_transport = "local"
        rows = [
            sharded_sssp(
                self.graph, s, self._make_policy(),
                sharded=self._sharded, seed=self.seed, deadline_at=deadline_at,
            ).dist
            for s in sources
        ]
        self._counters["sharded_execs"] += 1
        if OBS.enabled:
            OBS.registry.inc("serving.engine.sharded")
        return np.stack(rows)

    # ------------------------------------------------------------------ #
    # dynamic updates

    def apply_updates(self, batch) -> dict:
        """Apply an edge-update batch to the served graph.

        The batch (a :class:`repro.dynamic.UpdateBatch`) is resolved against
        the current graph; a pure no-op leaves everything untouched (same
        graph object, same fingerprint, cache intact).  Otherwise:

        1. the updated graph is assembled (patched CSR; its fingerprint is
           derived from the old one's in O(batch));
        2. every cache entry keyed by the *old* fingerprint is invalidated —
           the key scheme guarantees stale distances can never be served —
           and the dropped entries are kept as warm seeds; the label tier
           is dropped, the graph swapped, and the execution plane bound to
           the old CSR (sharded partition or batch pool) rebuilt on the new
           one;
        3. every warm entry is repaired in one lockstep drain: each row's
           cone is reset and its seeds found
           (:func:`~repro.dynamic.repair_frontier`), then one warm-started
           :func:`~repro.serving.fastpath.multi_source_distances` call
           relaxes all rows (bit-identical to a fresh run).  Entry by
           entry, in cache order, that row is attempt 0: it passes the
           ``engine.update`` fault site and result validation, and is
           re-inserted under the new fingerprint's key.  A faulted or
           rejected entry retries through
           :func:`~repro.dynamic.incremental_sssp` with the engine's retry
           budget, then degrades to a full fast-path recompute, and if that
           fails too the entry is dropped so the next query recomputes it.
           If the drain itself raises, every entry takes the per-entry path
           from attempt 0;
        4. in ``"p2p"`` mode the label tables are rebuilt on the new graph.

        Returns a summary dict: ``changed`` (edge deltas applied),
        ``invalidated`` / ``repaired`` / ``degraded`` cache entries, and the
        new ``fingerprint``.
        """
        from repro.dynamic import apply_resolved, resolve_updates
        from repro.serving.cache import graph_id

        t0 = time.perf_counter()
        old = self.graph
        resolved = resolve_updates(old, batch)
        if not resolved.size:
            self._counters["update_noops"] += 1
            if OBS.enabled:
                OBS.registry.inc("dynamic.engine.update_noops")
            return {
                "changed": 0, "invalidated": 0, "repaired": 0, "degraded": 0,
                "labels_invalidated": 0, "labels_rebuilt": False,
                "fingerprint": old.fingerprint,
            }
        new_graph = apply_resolved(old, resolved)
        dropped = self.cache.invalidate(graph_id(old), old.fingerprint)
        # The label tier is pinned to the old CSR: drop its entries AND mark
        # the bundles stale (stale-never-served — even a held reference
        # refuses to answer), then detach the live index before the graph
        # swap so no query can race a stale lookup.
        labels_invalidated = 0
        if self._label_store is not None:
            labels_invalidated = len(
                self._label_store.invalidate(graph_id(old), old.fingerprint)
            )
            self._label_index = None
        self.graph = new_graph
        self._labels_given_up = None
        self._bind_plane(new_graph)
        repaired = degraded = 0
        entries = list(dropped.items())
        rows = self._lockstep_repair(new_graph, resolved, entries)
        for i, (key, warm) in enumerate(entries):
            source = key[4]
            first = None if rows is None else rows[i]
            dist = self._repair_entry(new_graph, resolved, warm, source, first)
            if dist is None:
                degraded += 1
                dist = self._recompute_entry(source)
            if dist is not None:
                self.cache.put(
                    ResultCache.key(new_graph, self.algo, self.param, source), dist
                )
        repaired = len(dropped) - degraded
        # Bring the p2p tier back up on the new graph (eager, like
        # construction) so the first post-update query is label-served.
        labels_rebuilt = False
        if self.mode == "p2p":
            labels_rebuilt = self._ensure_labels() is not None
            if labels_rebuilt:
                self._counters["label_rebuilds"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_rebuilds")
        self._counters["updates"] += 1
        self._counters["repaired"] += repaired
        self._counters["repair_degraded"] += degraded
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("dynamic.engine.updates")
            registry.inc("dynamic.engine.edges_changed", resolved.size)
            registry.inc("dynamic.engine.repaired", repaired)
            registry.inc("dynamic.engine.repair_degraded", degraded)
            registry.observe("dynamic.update.seconds", time.perf_counter() - t0)
        return {
            "changed": resolved.size,
            "invalidated": len(dropped),
            "repaired": repaired,
            "degraded": degraded,
            "labels_invalidated": labels_invalidated,
            "labels_rebuilt": labels_rebuilt,
            "fingerprint": new_graph.fingerprint,
        }

    def _lockstep_repair(self, graph, resolved, entries) -> "np.ndarray | None":
        """Repair every warm entry in one drain: the ``(K, n)`` rows in
        ``entries`` order, or ``None`` when there are no entries or the
        drain raised (each entry then repairs on its own).

        Each row's cone is reset and its seeds found by
        :func:`~repro.dynamic.repair_frontier`; one warm-started
        :func:`~repro.serving.fastpath.multi_source_distances` call then
        relaxes every row's frontier in lockstep.  The drain reaches the
        same fixpoint as a per-entry repair or a fresh run, so the rows
        are bit-identical to both.
        """
        if not entries:
            return None
        from repro.dynamic import repair_frontier

        sources = [key[4] for key, _ in entries]
        try:
            dist = np.array([warm for _, warm in entries], dtype=np.float64)
            frontiers = [
                repair_frontier(graph, resolved, row, source)
                for row, source in zip(dist, sources)
            ]
            rows = multi_source_distances(
                graph, sources, algo=self.algo, param=self.param,
                dist_init=dist, seeds=[seeds for _, seeds in frontiers],
            )
        except Exception as exc:
            _LOG.warning("lockstep repair failed (%s); repairing entry by entry", exc)
            return None
        if OBS.enabled:
            OBS.registry.inc("dynamic.repairs", len(entries))
            OBS.registry.inc("dynamic.cone", sum(cone for cone, _ in frontiers))
            OBS.registry.inc("dynamic.seeds", sum(len(seeds) for _, seeds in frontiers))
        return rows

    def _repair_entry(
        self, graph, resolved, warm, source: int, first: "np.ndarray | None" = None
    ) -> "np.ndarray | None":
        """Repair one warm cache entry on the updated graph, or ``None``.

        ``first`` is the entry's row from the lockstep drain: attempt 0
        offers it, and later attempts (or every attempt, without it) run
        :func:`~repro.dynamic.incremental_sssp` on the entry alone.
        Mirrors ``_attempts``: every attempt fires the ``engine.update``
        fault site, the result is validated like an executed batch (so a
        corrupted repair is rejected and retried, never cached), and
        ``None`` after the retry budget signals the caller to degrade to a
        full recompute.
        """
        from repro.dynamic import incremental_sssp

        injector = get_injector()
        index = self._update_seq
        self._update_seq += 1
        for attempt in range(self.retries + 1):
            try:
                directive = injector.fire("engine.update", index=index, attempt=attempt)
                if attempt == 0 and first is not None:
                    dist = first
                else:
                    dist = incremental_sssp(
                        graph, resolved, np.asarray(warm),
                        policy=self._make_policy(), source=source, seed=self.seed,
                    ).dist
                if directive == "corrupt":
                    dist = np.array(dist, copy=True)
                    dist[source] += 1.0  # breaks the zero-self-distance invariant
                self._validate_result(dist[None, :], [source])
                return dist
            except Exception as exc:
                _LOG.warning(
                    "repair of source %d failed (attempt %d/%d): %s",
                    source, attempt + 1, self.retries + 1, exc,
                )
        return None

    def _recompute_entry(self, source: int) -> "np.ndarray | None":
        """Full-recompute fallback for a repair that kept failing.

        Uses the in-process fast path directly (not the pooled plane — the
        pool was just rebuilt and a sick pool should not sink the update);
        returns ``None`` if even the recompute fails, in which case the
        entry is dropped and the next query pays the miss.
        """
        try:
            dist = multi_source_distances(
                self.graph, [source], algo=self.algo, param=self.param
            )
            self._validate_result(dist, [source])
            return dist[0]
        except Exception as exc:
            _LOG.warning(
                "full-recompute fallback for source %d failed (%s); "
                "dropping the cache entry", source, exc,
            )
            return None

    def close(self) -> None:
        """Shut down the pooled execution plane (no-op without a pool)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _validate_result(self, dist: np.ndarray, sources: list[int]) -> None:
        """Reject corrupted execution payloads before they reach the cache."""
        if dist.shape != (len(sources), self.graph.n):
            raise ExecutionError(
                f"execution returned shape {dist.shape}, expected {(len(sources), self.graph.n)}"
            )
        if np.isnan(dist).any():
            raise ExecutionError("execution produced NaN distances")
        if (dist < 0).any():
            raise ExecutionError("execution produced negative distances")
        for i, s in enumerate(sources):
            if dist[i, s] != 0.0:
                raise ExecutionError(
                    f"corrupted payload: dist[{s}, {s}] = {dist[i, s]!r}, expected 0"
                )
