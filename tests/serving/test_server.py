"""ShortestPathServer: micro-batching, admission, deadlines, TCP front.

pytest-asyncio is not available, so every test drives its own loop via
``asyncio.run`` — which also mirrors how the CLI entry points run.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.core import bellman_ford
from repro.obs import MetricsRegistry, observed
from repro.serving import (
    AdmissionController,
    QueryEngine,
    RetryBudget,
    ShortestPathServer,
    serve_tcp,
)
from repro.serving.faults import FaultPlan, install_injector
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    OverloadError,
    ParameterError,
    ReproError,
)


@pytest.fixture
def engine(rmat_small):
    eng = QueryEngine(rmat_small, "bf", retries=0)
    yield eng
    eng.close()


def run(coro):
    return asyncio.run(coro)


class TestBatching:
    def test_rows_bit_identical_to_scalar(self, rmat_small, engine):
        async def main():
            async with ShortestPathServer(engine, max_batch=4) as srv:
                return await asyncio.gather(*(srv.submit(s) for s in (3, 1, 3, 0)))

        rows = run(main())
        for src, row in zip((3, 1, 3, 0), rows):
            assert np.array_equal(row, bellman_ford(rmat_small, src, seed=0).dist)

    def test_concurrent_submits_coalesce_into_one_flush(self, engine):
        async def main():
            async with ShortestPathServer(engine, max_batch=8) as srv:
                await asyncio.gather(*(srv.submit(s) for s in range(5)))
                return srv.stats()

        st = run(main())
        # All five enqueue before the flusher first runs; 5 < B, so the
        # idle worker takes them as one flush, not five.
        assert st["flushes"] == 1
        assert st["completed"] == 5

    def test_full_batch_flushes_before_timer(self, engine):
        async def main():
            # A full batch on an idle worker goes out at once.
            async with ShortestPathServer(engine, max_batch=3) as srv:
                t0 = time.monotonic()
                await asyncio.gather(*(srv.submit(s) for s in (0, 1, 2)))
                return time.monotonic() - t0

        assert run(main()) < 5.0

    def test_submit_before_start_rejected(self, engine):
        srv = ShortestPathServer(engine)
        with pytest.raises(ExecutionError):
            run(srv.submit(0))

    def test_stop_without_drain_fails_queued_typed(self, engine):
        plan = FaultPlan.single("server.flush", "hang", at=(0,), delay=0.3)
        install_injector(plan)
        try:
            async def main():
                srv = ShortestPathServer(engine, max_batch=64)
                await srv.start()
                # The blocker's flush hangs on the worker thread, so the
                # next request stays queued behind it.
                blocker = asyncio.ensure_future(srv.submit(1))
                await asyncio.sleep(0.05)
                task = asyncio.ensure_future(srv.submit(0))
                await asyncio.sleep(0.01)
                assert srv.queue_depth == 1
                await srv.stop(drain=False)
                with pytest.raises(ExecutionError):
                    await task
                await blocker

            run(main())
        finally:
            install_injector(None)

    def test_validation(self, engine):
        for kw in (
            {"max_batch": 0}, {"max_queue": 0},
            {"default_deadline": 0.0}, {"server_retries": -1},
        ):
            with pytest.raises(ParameterError):
                ShortestPathServer(engine, **kw)


def _record_batches(engine):
    """Record the size of every batch the engine is handed."""
    sizes = []
    real = engine.query_batch

    def query_batch(sources, **kw):
        sizes.append(len(sources))
        return real(sources, **kw)

    engine.query_batch = query_batch
    return sizes


class TestIdleFlush:
    """A flush goes out as soon as the worker is free, with at most B."""

    @pytest.mark.parametrize(
        "k, max_batch, expected",
        [(5, 8, [1, 5]), (7, 3, [1, 3, 3, 1])],
        ids=["k<=B", "k>B"],
    )
    def test_requests_queued_during_a_flush_form_the_next_batches(
        self, engine, k, max_batch, expected
    ):
        sizes = _record_batches(engine)
        install_injector(FaultPlan.single("server.flush", "hang", at=(0,), delay=0.5))
        try:
            async def main():
                async with ShortestPathServer(engine, max_batch=max_batch) as srv:
                    blocker = asyncio.ensure_future(srv.submit(0))
                    await asyncio.sleep(0.05)  # flush 0 now hangs on the worker
                    rest = [asyncio.ensure_future(srv.submit(s)) for s in range(1, k + 1)]
                    await asyncio.sleep(0)  # all k enqueue behind the hung flush
                    assert srv.queue_depth == k
                    await asyncio.gather(blocker, *rest)
                    return srv.stats()

            st = run(main())
        finally:
            install_injector(None)
        # ceil(k / B) flushes after the blocker's, each of at most B.
        assert sizes == expected
        assert st["flushes"] == len(expected) and st["completed"] == k + 1

    def test_idle_server_flushes_each_request_without_waiting(self, engine):
        sizes = _record_batches(engine)

        async def main():
            async with ShortestPathServer(engine, max_batch=8) as srv:
                for s in (1, 2):
                    task = asyncio.ensure_future(srv.submit(s))
                    # No timer: the flusher takes the request within a few
                    # loop turns of its arrival, not after a delay.
                    for _ in range(3):
                        await asyncio.sleep(0)
                    assert srv.queue_depth == 0
                    await task
                return srv.stats()

        st = run(main())
        assert sizes == [1, 1]  # nothing waited for company
        assert st["flushes"] == 2


class TestOverload:
    def test_burst_beyond_queue_sheds_and_admitted_meet_deadline(self, engine):
        deadline = 2.0
        max_queue = 8
        install_injector(FaultPlan.single("server.flush", "hang", delay=0.05))
        try:
            async def main():
                srv = ShortestPathServer(engine, max_batch=4, max_queue=max_queue)
                depths = []
                note = srv._note_depth

                def note_depth():  # sees every enqueue and every batch take
                    depths.append(srv.queue_depth)
                    note()

                srv._note_depth = note_depth

                async def one(s):
                    t0 = time.monotonic()
                    try:
                        await srv.submit(s, deadline=deadline)
                    except OverloadError:
                        return "shed"
                    except ReproError as exc:
                        return exc
                    return time.monotonic() - t0

                async with srv:
                    outcomes = []
                    for wave in range(4):  # each wave overruns the queue bound
                        burst = [asyncio.ensure_future(one(s % 16)) for s in range(20)]
                        await asyncio.sleep(0.03)
                        outcomes += burst
                    outcomes = await asyncio.gather(*outcomes)
                    return outcomes, depths, srv.stats()

            outcomes, depths, st = run(main())
        finally:
            install_injector(None)
        assert st["admission"]["shed_total"] > 0
        assert max(depths) == max_queue  # filled to the bound, never beyond
        admitted = [o for o in outcomes if not isinstance(o, str)]
        assert admitted and len(admitted) + st["admission"]["shed_total"] == 80
        for o in admitted:  # finished inside the deadline, or failed typed
            assert isinstance(o, ReproError) or o <= deadline


class TestAdmissionIntegration:
    def test_expired_deadline_rejected_before_queueing(self, engine):
        async def main():
            async with ShortestPathServer(engine) as srv:
                with pytest.raises(DeadlineExceeded):
                    await srv.submit(0, deadline=-1.0)
                return srv.stats()

        st = run(main())
        assert st["admission"]["expired_at_admission"] == 1
        assert st["flushes"] == 0  # never computed

    def test_queue_full_sheds_typed_with_retry_after(self, engine):
        plan = FaultPlan.single("server.flush", "hang", at=(0,), delay=0.3)
        install_injector(plan)
        try:
            async def main():
                srv = ShortestPathServer(engine, max_batch=1, max_queue=2)
                async with srv:
                    # The blocker is popped into a flush that hangs on the
                    # worker thread; the next two fill the bounded queue
                    # behind it; the fourth arrival must shed.
                    blocker = asyncio.ensure_future(srv.submit(0))
                    await asyncio.sleep(0.05)
                    fillers = [asyncio.ensure_future(srv.submit(s)) for s in (1, 2)]
                    await asyncio.sleep(0)  # let both enqueue
                    assert srv.queue_depth == 2
                    with pytest.raises(OverloadError) as ei:
                        await srv.submit(3)
                    assert ei.value.reason == "queue-full"
                    assert ei.value.retry_after > 0
                    await asyncio.gather(blocker, *fillers)
                    return srv.stats()

            st = run(main())
            assert st["admission"]["shed_total"] >= 1
        finally:
            install_injector(None)

    def test_requests_expiring_in_queue_never_execute(self, engine):
        plan = FaultPlan.single("server.flush", "hang", at=(0,), delay=0.25)
        install_injector(plan)
        try:
            async def main():
                srv = ShortestPathServer(engine, max_batch=1, max_queue=8)
                async with srv:
                    blocker = asyncio.ensure_future(srv.submit(0))
                    await asyncio.sleep(0.05)
                    # Feasible at admission (one batch ahead), but the hung
                    # worker eats the whole budget: must expire in queue.
                    with pytest.raises(DeadlineExceeded):
                        await srv.submit(1, deadline=0.1)
                    await blocker
                    return srv.stats(), self._executed(srv)

            st, executed = run(main())
            assert st["expired_in_queue"] == 1
            assert executed == 1  # only the blocker reached the engine
        finally:
            install_injector(None)

    @staticmethod
    def _executed(srv):
        return srv.engine.stats()["executed"]

    def test_cancelled_request_never_computed(self, engine):
        async def main():
            srv = ShortestPathServer(engine, max_batch=8)
            async with srv:
                task = asyncio.ensure_future(srv.submit(5))
                await asyncio.sleep(0)  # let it enqueue, not flush
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                await asyncio.sleep(0.1)  # let the flusher drain the queue
                return srv.stats()

        st = run(main())
        assert st["cancelled"] == 1
        assert st["completed"] == 0

    def test_retry_budget_sheds_marked_retries(self, engine):
        async def main():
            adm = AdmissionController(
                retry_budget=RetryBudget(capacity=1.0, refill_rate=0.0)
            )
            async with ShortestPathServer(engine, admission=adm) as srv:
                await srv.submit(0, retry=True)  # spends the only token
                with pytest.raises(OverloadError) as ei:
                    await srv.submit(1, retry=True)
                assert ei.value.reason == "retry-budget"
                await srv.submit(2)  # fresh work unaffected

        run(main())

    def test_invalid_source_rejected_without_queue_slot(self, engine):
        async def main():
            async with ShortestPathServer(engine) as srv:
                with pytest.raises(ParameterError):
                    await srv.submit(-3)
                return srv.stats()

        st = run(main())
        assert st["queue_depth"] == 0 and st["flushes"] == 0


class TestCircuitIntegration:
    def test_open_circuit_serves_cache_and_sheds_misses(self, engine):
        async def main():
            async with ShortestPathServer(engine) as srv:
                cached = await srv.submit(4)  # populates the result cache
                engine._open_until = time.monotonic() + 60.0  # force open
                hit = await srv.submit(4)
                with pytest.raises(CircuitOpenError):
                    await srv.submit(5)  # uncached: shed at admission
                engine._open_until = None
                return cached, hit, srv.stats()

        cached, hit, st = run(main())
        assert np.array_equal(cached, hit)
        assert st["circuit_cache_hits"] == 1
        assert st["circuit_shed"] == 1


class TestMetrics:
    def test_serving_metrics_flow_through_registry(self, engine):
        registry = MetricsRegistry()
        with observed(registry=registry):
            async def main():
                async with ShortestPathServer(engine, max_batch=4, max_queue=1) as srv:
                    await srv.submit(0)
                    # Fill the queue bound to force one typed shed.
                    blocked = asyncio.ensure_future(srv.submit(1))
                    await asyncio.sleep(0)
                    try:
                        while True:
                            await srv.submit(2)
                    except OverloadError:
                        pass
                    await blocked

            run(main())
        snap = registry.snapshot()
        assert snap["counters"]["serving.completed_total"] >= 1
        assert snap["counters"]["serving.flushes"] >= 1
        assert snap["counters"]["serving.shed_total"] >= 1
        assert "serving.qps" in snap["gauges"]
        assert "serving.queue_depth" in snap["gauges"]
        assert snap["histograms"]["serving.latency_ms"]["count"] >= 1
        assert snap["histograms"]["serving.batch_fill"]["count"] >= 1


class TestTcpFront:
    def test_json_lines_roundtrip(self, rmat_small):
        engine = QueryEngine(rmat_small, "bf", retries=0)
        ref = bellman_ford(rmat_small, 2, seed=0).dist
        finite = np.isfinite(ref)

        async def main():
            srv = ShortestPathServer(engine, max_batch=4)
            ready = asyncio.Event()
            task = asyncio.ensure_future(serve_tcp(srv, "127.0.0.1", 0, ready=ready))
            await ready.wait()
            # serve_tcp binds an ephemeral port; recover it from the server
            # object the same way an operator would from the log line.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self._port(task)
            )
            writer.write(b'{"id": 1, "source": 2}\n')
            await writer.drain()
            ok = json.loads(await reader.readline())
            writer.write(b'{"id": 2, "source": -1}\n')
            await writer.drain()
            bad = json.loads(await reader.readline())
            writer.close()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return ok, bad

        ok, bad = run(main())
        engine.close()
        assert ok["ok"] is True
        assert ok["reached"] == int(finite.sum())
        assert ok["checksum"] == pytest.approx(float(ref[finite].sum()))
        assert bad["ok"] is False and bad["error"] == "ParameterError"

    @staticmethod
    def _port(serve_task):
        # The listening socket lives inside the running serve_tcp coroutine;
        # walk the loop's servers via the task frame is overkill — instead
        # every asyncio.Server registers its sockets on the loop, so grab the
        # coroutine's locals.
        frame = serve_task.get_coro().cr_frame
        return frame.f_locals["tcp"].sockets[0].getsockname()[1]
