"""Asyncio serving front door: micro-batching with overload-safe admission.

The paper's stepping framework wins by amortising per-step coordination
across a whole frontier; :class:`ShortestPathServer` applies the same idea
to *request formation*.  Many concurrent clients each submit one
single-source query; the server coalesces them into lockstep batches —
flushing as soon as the worker is free, at most **B** requests at a time
(like a stepping round, it takes whatever is ready and never waits at a
barrier for more) — and runs each batch through the existing
:class:`~repro.serving.engine.QueryEngine` (fast / pooled / sharded
paths) on a dedicated worker thread, so the event loop never blocks on
kernel work.

Robustness is the headline, and every decision is made *before* work is
queued (see :mod:`repro.serving.admission`):

* **bounded queue + load shedding** — reject-newest with a typed
  :class:`~repro.utils.errors.OverloadError` carrying a ``retry_after``
  hint; queued requests are never evicted.
* **deadline propagation** — a request whose remaining budget cannot cover
  the current p95 batch latency is refused at admission; requests that
  expire *in* the queue are failed typed and dropped from forming batches;
  requests cancelled by their client are dropped without execution; the
  batch handed to the engine carries the tightest member deadline, which
  the engine checks between execution chunks and (sharded) BSP supersteps.
* **circuit-breaker integration** — an open engine circuit is consulted at
  admission: cached sources are served directly, everything else sheds
  with :class:`~repro.utils.errors.CircuitOpenError` instead of queueing
  work that would fail after batch formation.
* **retry budgets** — server-side batch re-runs and client-marked retries
  draw from one token bucket, so a retry storm cannot amplify overload.

Fault sites (see :mod:`repro.serving.faults`): ``server.admit`` fires on
every submission on the event-loop thread (``exception`` faults surface to
that caller, typed); ``server.flush`` fires per execution attempt on the
worker thread, so an injected hang stalls one batch while admission keeps
shedding — which is exactly the overload behaviour the chaos suite pins.

Metrics (behind the zero-overhead ``OBS.enabled`` seam): ``serving.qps``,
``serving.queue_depth``, ``serving.shed_total`` (from the admission
controller), ``serving.batch_fill``, ``serving.latency_ms``, plus
``serving.completed_total`` / ``serving.expired_total`` /
``serving.flushes`` and a ``serving.flush.seconds`` histogram.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.serving.admission import AdmissionController
from repro.serving.cache import ResultCache
from repro.serving.engine import QueryEngine
from repro.serving.faults import get_injector
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    OverloadError,
    ParameterError,
)

__all__ = ["ShortestPathServer", "serve_tcp"]

_LOG = logging.getLogger("repro.serving.server")

#: ``serving.latency_ms`` bounds (milliseconds): 1 ms .. 10 s.
LATENCY_MS_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: ``serving.batch_fill`` bounds (requests per flushed batch).
BATCH_FILL_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class _Pending:
    """One admitted request waiting in the batch former."""

    source: int
    deadline_at: "float | None"
    future: "asyncio.Future"
    enqueued_at: float = field(default_factory=time.monotonic)


class ShortestPathServer:
    """Admission-controlled micro-batching front door over a query engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.QueryEngine` that executes
        batches.  The server owns one worker thread; the engine is only
        ever driven from that thread, so its internal state needs no extra
        locking.
    max_batch:
        Batch cap **B** — each flush, made as soon as the worker is free,
        takes at most this many live requests; the rest form the next one.
    max_queue:
        Bound on admitted-but-unflushed requests (the admission queue).
    default_deadline:
        Per-request deadline budget in seconds applied when ``submit`` is
        not given one (``None`` = unbounded requests by default).
    admission:
        A preconfigured :class:`AdmissionController`; a default one sized
        to ``max_queue``/``max_batch`` is created when omitted.
    server_retries:
        Batch re-runs the server may attempt after a transient execution
        failure — each re-run costs one retry-budget token per member, so
        storms are bounded by the bucket, not by this knob.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        max_batch: int = 32,
        max_queue: int = 256,
        default_deadline: "float | None" = None,
        admission: "AdmissionController | None" = None,
        server_retries: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ParameterError(f"max_queue must be >= 1, got {max_queue}")
        if default_deadline is not None and default_deadline <= 0:
            raise ParameterError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        if server_retries < 0:
            raise ParameterError(f"server_retries must be >= 0, got {server_retries}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.default_deadline = default_deadline
        self.server_retries = int(server_retries)
        self.admission = admission if admission is not None else AdmissionController(
            max_queue=max_queue, max_batch=max_batch
        )
        self._pending: "deque[_Pending]" = deque()
        self._wake = None  # asyncio.Event, created on start()
        self._flusher: "asyncio.Task | None" = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._started = False
        self._closing = False
        self._started_at = 0.0
        self._admit_seq = 0
        self._flush_seq = 0
        self._counters = {
            "submitted": 0,          # every submit() call, admitted or not
            "completed": 0,          # futures resolved with distances
            "failed": 0,             # futures resolved with a typed error
            "expired_in_queue": 0,   # dropped from a forming batch, typed
            "cancelled": 0,          # client-cancelled, dropped unexecuted
            "circuit_cache_hits": 0, # served from cache while circuit open
            "circuit_shed": 0,       # shed at admission while circuit open
            "batch_retries": 0,      # server-side batch re-runs
            "flushes": 0,            # executed batches
            "p2p_submitted": 0,      # point-to-point requests received
            "p2p_label_served": 0,   # p2p answered from label tables
            "p2p_batched": 0,        # p2p routed through batch formation
        }

    # ------------------------------------------------------------------ #
    # lifecycle

    async def start(self) -> None:
        """Bind to the running loop and start the flusher task."""
        if self._started:
            raise ExecutionError("server already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._flusher = self._loop.create_task(self._flush_loop())
        self._started = True
        self._closing = False
        self._started_at = time.monotonic()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop serving; ``drain`` flushes queued requests first.

        With ``drain=False`` queued requests fail fast with a typed
        :class:`~repro.utils.errors.ExecutionError`.
        """
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        if drain:
            while self._pending:
                await self._flush_once()
        else:
            while self._pending:
                req = self._pending.popleft()
                if not req.future.done():
                    req.future.set_exception(
                        ExecutionError("server shutting down; request not executed")
                    )
                    self._counters["failed"] += 1
        self._wake.set()  # in case the drain loop consumed the first wake
        try:
            await self._flusher  # exits on _closing, never mid-flush
        except asyncio.CancelledError:  # pragma: no cover - external cancel
            pass
        self._executor.shutdown(wait=True)
        self._started = False
        self._note_depth()

    async def __aenter__(self) -> "ShortestPathServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # admission + submission

    async def submit(
        self,
        source: int,
        *,
        deadline: "float | None" = None,
        retry: bool = False,
    ) -> np.ndarray:
        """Admit one single-source query and await its distance row.

        ``deadline`` is this request's remaining budget in seconds
        (defaulting to the server's ``default_deadline``); ``retry=True``
        marks a client-side retry, which must win a retry-budget token to
        be admitted.  Raises typed errors at admission time:
        :class:`OverloadError` (shed, with ``retry_after``),
        :class:`DeadlineExceeded` (budget already blown),
        :class:`CircuitOpenError` (circuit open and the source uncached).
        """
        if not self._started or self._closing:
            raise ExecutionError("server is not accepting requests")
        self._counters["submitted"] += 1
        now = time.monotonic()
        # Claim the invocation index BEFORE firing: an injected exception
        # must consume its slot, not pin every later submission to it.
        admit_index = self._admit_seq
        self._admit_seq += 1
        directive = get_injector().fire("server.admit", index=admit_index)
        del directive  # admit has no payload to corrupt; crash/hang/raise only
        deadline = self.default_deadline if deadline is None else deadline
        deadline_at = None if deadline is None else now + float(deadline)
        # The engine validates sources at batch time, but a malformed source
        # must not occupy a queue slot first.
        (source,) = self.engine._admit([source])
        # Open circuit: consult the cache *at admission* — a hit is served
        # directly, a miss sheds now rather than after batch formation.
        if self.engine.circuit_state == "open":
            key = ResultCache.key(
                self.engine.graph, self.engine.algo, self.engine.param, source
            )
            hit = self.engine.cache.get(key)
            if hit is not None:
                self._counters["circuit_cache_hits"] += 1
                self._counters["completed"] += 1
                self._observe_request(now)
                return hit
            self._counters["circuit_shed"] += 1
            raise CircuitOpenError(
                "circuit open and source uncached; shedding at admission"
            )
        self.admission.check(
            len(self._pending), now=now, deadline_at=deadline_at, is_retry=retry
        )
        future = self._loop.create_future()
        self._pending.append(_Pending(source, deadline_at, future, now))
        self._note_depth()
        # Only an empty queue parks the flusher, so the first enqueue is the
        # one wake it needs; later arrivals ride the next free-worker flush.
        if len(self._pending) == 1:
            self._wake.set()
        return await future

    async def submit_p2p(
        self, source: int, target: int, *, deadline: "float | None" = None
    ) -> float:
        """One exact point-to-point distance (``inf`` when unreachable).

        When the engine's label tables are hot (``mode="p2p"``, build
        healthy), the lookup **bypasses batch formation entirely** — no
        queue slot, no batch to wait for — and runs on the worker thread
        (the engine's single-driver contract) in microseconds.  When the
        tables are cold or degraded, the request routes through the normal
        admission-controlled :meth:`submit` path and the answer is read
        out of the full distance row — same exact value, batch latency.
        """
        if not self._started or self._closing:
            raise ExecutionError("server is not accepting requests")
        self._counters["p2p_submitted"] += 1
        if OBS.enabled:
            OBS.registry.inc("serving.p2p_submitted")
        source, target = self.engine._admit([source, target])
        if self.engine.mode == "p2p" and self.engine.labels_ready:
            enqueued = time.monotonic()
            d = await self._loop.run_in_executor(
                self._executor, self.engine.dist, source, target
            )
            self._counters["p2p_label_served"] += 1
            self._counters["completed"] += 1
            self._observe_request(enqueued)
            if OBS.enabled:
                OBS.registry.inc("serving.p2p_label_served")
            return float(d)
        # Cold tier: full admission control applies — a p2p request must
        # not become a back door around load shedding.
        self._counters["p2p_batched"] += 1
        if OBS.enabled:
            OBS.registry.inc("serving.p2p_batched")
        row = await self.submit(source, deadline=deadline)
        return float(row[target])

    # ------------------------------------------------------------------ #
    # batch formation + flushing

    async def _flush_loop(self) -> None:
        """Flush whenever the queue is non-empty and the worker is free.

        A batch is whatever queued while the previous flush ran, capped at
        B, so an idle server adds no wait and a busy one still batches.
        With one worker a timer could only add delay.

        Shutdown is cooperative — ``stop()`` sets ``_closing`` and the wake
        event and this loop exits on its own, never mid-flush.
        """
        while not self._closing:
            if not self._pending:
                self._wake.clear()
                await self._wake.wait()
                continue
            try:
                await self._flush_once()
            except Exception:  # pragma: no cover - defensive: never die
                _LOG.exception("flush failed unexpectedly; flusher continues")

    def _take_batch(self) -> "list[_Pending]":
        """Pop up to B live requests; drop expired and cancelled ones.

        Expired requests fail typed (:class:`DeadlineExceeded`) without
        executing; cancelled futures are dropped silently — neither reaches
        the engine, which is the "never computed" guarantee.
        """
        now = time.monotonic()
        live: "list[_Pending]" = []
        while self._pending and len(live) < self.max_batch:
            req = self._pending.popleft()
            if req.future.done():  # client cancelled (or timed out) while queued
                self._counters["cancelled"] += 1
                continue
            if req.deadline_at is not None and now >= req.deadline_at:
                self._counters["expired_in_queue"] += 1
                self._counters["failed"] += 1
                req.future.set_exception(
                    DeadlineExceeded("deadline expired while queued; not executed")
                )
                if OBS.enabled:
                    OBS.registry.inc("serving.expired_total")
                continue
            live.append(req)
        self._note_depth()
        return live

    async def _flush_once(self) -> None:
        batch = self._take_batch()
        if not batch:
            return
        index = self._flush_seq
        self._flush_seq += 1
        now = time.monotonic()
        deadlines = [r.deadline_at for r in batch if r.deadline_at is not None]
        remaining = min(deadlines) - now if deadlines else None
        sources = [r.source for r in batch]
        t0 = time.perf_counter()
        try:
            rows = await self._execute(sources, remaining, index)
        except ExecutionError as exc:
            # Failed attempts still teach the latency tracker — a batch that
            # blew its deadline is exactly the evidence admission needs to
            # start shedding instead of admitting more infeasible work.
            self.admission.latency.observe(time.monotonic() - now)
            self._fail_batch(batch, exc)
            return
        except Exception as exc:  # non-Repro failure: surface typed
            self.admission.latency.observe(time.monotonic() - now)
            self._fail_batch(batch, ExecutionError(f"batch execution failed: {exc}"))
            return
        done = time.monotonic()
        self._counters["flushes"] += 1
        self.admission.latency.observe(done - now)
        for req, row in zip(batch, rows):
            if req.future.done():  # cancelled while executing
                self._counters["cancelled"] += 1
                continue
            req.future.set_result(row)
            self._counters["completed"] += 1
            self._observe_request(req.enqueued_at, done)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("serving.flushes")
            registry.observe("serving.batch_fill", len(batch), BATCH_FILL_BUCKETS)
            registry.observe("serving.flush.seconds", time.perf_counter() - t0)

    async def _execute(self, sources, remaining, index) -> np.ndarray:
        """Run one batch on the worker thread, with budgeted re-runs."""
        attempt = 0
        while True:
            try:
                return await self._loop.run_in_executor(
                    self._executor, self._run_batch, sources, remaining, index, attempt
                )
            except (DeadlineExceeded, CircuitOpenError, OverloadError):
                raise
            except Exception:
                if (
                    attempt >= self.server_retries
                    or not self.admission.retry_budget.try_acquire(float(len(sources)))
                ):
                    raise
                attempt += 1
                self._counters["batch_retries"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.batch_retries")

    def _run_batch(self, sources, remaining, index, attempt) -> np.ndarray:
        """Worker-thread body: fault site + engine execution.

        The ``server.flush`` site fires here — on the worker thread — so an
        injected hang stalls this batch while the event loop stays live and
        admission keeps shedding (the overload-safe failure mode).
        """
        get_injector().fire("server.flush", index=index, attempt=attempt)
        return self.engine.query_batch(sources, deadline=remaining)

    def _fail_batch(self, batch: "list[_Pending]", exc: Exception) -> None:
        for req in batch:
            if not req.future.done():
                req.future.set_exception(exc)
                self._counters["failed"] += 1

    # ------------------------------------------------------------------ #
    # accounting

    def _note_depth(self) -> None:
        if OBS.enabled:
            OBS.registry.set_gauge("serving.queue_depth", float(len(self._pending)))

    def _observe_request(self, enqueued_at: float, done: "float | None" = None) -> None:
        done = time.monotonic() if done is None else done
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("serving.completed_total")
            registry.observe(
                "serving.latency_ms", (done - enqueued_at) * 1e3, LATENCY_MS_BUCKETS
            )
            elapsed = done - self._started_at
            if elapsed > 0:
                registry.set_gauge(
                    "serving.qps", self._counters["completed"] / elapsed
                )

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def stats(self) -> dict:
        """Server + admission counters (engine counters via ``engine.stats()``)."""
        out = dict(self._counters)
        out["queue_depth"] = len(self._pending)
        elapsed = time.monotonic() - self._started_at if self._started_at else 0.0
        out["qps"] = self._counters["completed"] / elapsed if elapsed > 0 else 0.0
        out["admission"] = self.admission.stats()
        return out


# --------------------------------------------------------------------------- #
# TCP front (newline-delimited JSON) — what ``repro serve`` runs
# --------------------------------------------------------------------------- #


async def _handle_client(server: ShortestPathServer, reader, writer) -> None:
    """One JSON-lines client connection.

    Request:  ``{"id": any, "source": int, "deadline": seconds?}`` for a
    single-source row, or ``{"id", "source", "target": int, "deadline"?}``
    for a point-to-point distance (served through :meth:`submit_p2p`).
    Response: ``{"id", "ok": true, "reached": int, "checksum": float}`` for
    rows; ``{"id", "ok": true, "reachable": bool, "dist": float|null}`` for
    p2p (``null`` distance means unreachable — JSON has no ``inf``); or
    ``{"id", "ok": false, "error": <type name>, "message", "retry_after"?}``.
    Row responses carry a checksum (sum of finite distances) rather than the
    full ``n``-vector; clients wanting exact rows use the library API.
    """
    import json

    while True:
        line = await reader.readline()
        if not line:
            break
        try:
            req = json.loads(line)
            rid = req.get("id")
            if req.get("target") is not None:
                d = await server.submit_p2p(
                    int(req["source"]), int(req["target"]),
                    deadline=req.get("deadline"),
                )
                payload = {
                    "id": rid,
                    "ok": True,
                    "reachable": bool(np.isfinite(d)),
                    "dist": float(d) if np.isfinite(d) else None,
                }
            else:
                row = await server.submit(
                    int(req["source"]), deadline=req.get("deadline"),
                    retry=bool(req.get("retry", False)),
                )
                finite = np.isfinite(row)
                payload = {
                    "id": rid,
                    "ok": True,
                    "reached": int(finite.sum()),
                    "checksum": float(row[finite].sum()),
                }
        except Exception as exc:
            payload = {
                "id": req.get("id") if isinstance(req, dict) else None,
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                payload["retry_after"] = retry_after
        writer.write((json.dumps(payload) + "\n").encode())
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            break
    writer.close()


async def serve_tcp(
    server: ShortestPathServer,
    host: str = "127.0.0.1",
    port: int = 8777,
    *,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve the JSON-lines protocol until cancelled (Ctrl-C included).

    ``ready`` (if given) is set once the listening socket is bound — tests
    and the load generator use it to avoid connect races.
    """
    async with server:
        tcp = await asyncio.start_server(
            lambda r, w: _handle_client(server, r, w), host, port
        )
        async with tcp:
            addr = tcp.sockets[0].getsockname()
            _LOG.info("serving on %s:%s", addr[0], addr[1])
            if ready is not None:
                ready.set()
            try:
                await tcp.serve_forever()
            except asyncio.CancelledError:
                pass
