"""QueryEngine sharded path: identical rows, counters, faults, degradation."""

import asyncio

import numpy as np
import pytest

from repro.serving import (
    FaultPlan,
    QueryEngine,
    ShortestPathServer,
    install_injector,
)
from repro.utils.errors import DeadlineExceeded, ParameterError


@pytest.fixture(autouse=True)
def _restore_injector():
    yield
    install_injector(None)


@pytest.mark.parametrize("algo,param", [("rho", 64), ("delta", 2.0**14), ("bf", None)])
def test_sharded_rows_match_fast(rmat_small, algo, param):
    plain = QueryEngine(rmat_small, algo, param)
    sharded = QueryEngine(rmat_small, algo, param, shards=4, partitioner="ldg")
    sources = [0, 9, 17]
    assert np.array_equal(plain.query_batch(sources), sharded.query_batch(sources))
    st = sharded.stats()
    assert st["sharded_execs"] >= 1
    assert st["degraded"] == 0


@pytest.mark.parametrize("partitioner", ["contiguous", "degree", "fennel", "ldg"])
def test_every_partitioner_serves(road_small, partitioner):
    plain = QueryEngine(road_small, "bf")
    sharded = QueryEngine(road_small, "bf", shards=3, partitioner=partitioner)
    assert np.array_equal(plain.query_batch([2, 8]), sharded.query_batch([2, 8]))


def test_sharded_caches_like_any_path(rmat_small):
    eng = QueryEngine(rmat_small, "bf", shards=2)
    eng.query_batch([4, 4, 6])
    eng.query_batch([6])
    st = eng.stats()
    assert st["executed"] == 2
    assert st["cache_hits"] == 1
    assert st["sharded_execs"] == 1  # the second batch was fully cached


def test_invalid_shard_params(rmat_small):
    with pytest.raises(ParameterError):
        QueryEngine(rmat_small, "bf", shards=-1)
    with pytest.raises(ParameterError, match="unknown partitioner"):
        QueryEngine(rmat_small, "bf", shards=2, partitioner="metis")


def test_sharded_fault_degrades_to_fast(rmat_small):
    # A fault injected at the sharded site on every attempt exhausts the
    # retry budget; the engine must then serve the fast path (identical
    # rows) and count the degradation.
    fault_free = QueryEngine(rmat_small, "bf").query_batch([3, 11])
    install_injector(
        FaultPlan.single("engine.sharded", "exception", at=None, rate=1.0, times=99)
    )
    eng = QueryEngine(rmat_small, "bf", shards=2, retries=1)
    out = eng.query_batch([3, 11])
    assert np.array_equal(out, fault_free)
    st = eng.stats()
    assert st["degraded"] == 1
    assert st["exec_failures"] == 2
    assert st["circuit_state"] == "closed"  # the degraded serve is a success


def test_transient_sharded_fault_is_retried(rmat_small):
    fault_free = QueryEngine(rmat_small, "bf").query_batch([5])
    install_injector(FaultPlan.single("engine.sharded", "exception", at=(0,), times=1))
    eng = QueryEngine(rmat_small, "bf", shards=2, retries=2)
    out = eng.query_batch([5])
    assert np.array_equal(out, fault_free)
    st = eng.stats()
    assert st["degraded"] == 0
    assert st["retries"] == 1
    assert st["sharded_execs"] >= 1  # the healed attempt still went sharded


def test_fennel_refine_toggle_serves_identically(road_small):
    plain = QueryEngine(road_small, "bf")
    refined = QueryEngine(road_small, "bf", shards=3, partitioner="fennel")
    streamed = QueryEngine(
        road_small, "bf", shards=3, partitioner="fennel", refine=False
    )
    want = plain.query_batch([2, 8])
    assert np.array_equal(refined.query_batch([2, 8]), want)
    assert np.array_equal(streamed.query_batch([2, 8]), want)


@pytest.mark.parametrize("algo,param", [("bf", None), ("rho", 64)])
def test_fused_sharded_fault_retry_bit_identical(rmat_small, algo, param):
    # Bucket fusion engages on these policies (θ = ∞ supersteps drain in
    # fused rounds); a transient fault at the sharded site must be retried
    # through the *fused* executor and still land bit-identical rows.
    fault_free = QueryEngine(rmat_small, algo, param).query_batch([2, 7])
    install_injector(FaultPlan.single("engine.sharded", "exception", at=(0,), times=1))
    eng = QueryEngine(
        rmat_small, algo, param, shards=3, partitioner="fennel", retries=2
    )
    out = eng.query_batch([2, 7])
    assert np.array_equal(out, fault_free)
    st = eng.stats()
    assert st["retries"] == 1
    assert st["degraded"] == 0
    assert st["sharded_execs"] >= 1


class TestShardedDeadlines:
    """Deadline propagation engine → sharded BSP driver → (typed) caller."""

    def test_hang_past_deadline_is_typed_deadline_exceeded(self, rmat_small):
        install_injector(
            FaultPlan.single("engine.sharded", "hang", at=(0,), delay=0.3)
        )
        eng = QueryEngine(rmat_small, "bf", shards=2, retries=0, deadline=0.1)
        with pytest.raises(DeadlineExceeded):
            eng.query_batch([3])
        st = eng.stats()
        assert st["exec_failures"] >= 1
        assert st["circuit_state"] == "closed"  # one failure, threshold 5
        # The fault hit invocation 0 only: the engine serves normally after.
        out = eng.query_batch([3])
        assert np.array_equal(out, QueryEngine(rmat_small, "bf").query_batch([3]))

    def test_missed_deadline_is_never_retried(self, rmat_small):
        # Retrying a blown deadline is useless — the budget is already gone.
        install_injector(
            FaultPlan.single("engine.sharded", "hang", at=(0,), delay=0.3, times=99)
        )
        eng = QueryEngine(rmat_small, "bf", shards=2, retries=3, deadline=0.1)
        with pytest.raises(DeadlineExceeded):
            eng.query_batch([3])
        assert eng.stats()["retries"] == 0

    def test_server_surfaces_sharded_deadline_typed(self, rmat_small):
        # Full stack chaos: front door → engine → sharded BSP. The hang
        # eats the request's deadline on the worker thread; the awaiting
        # caller must see the typed DeadlineExceeded, not a raw error.
        install_injector(
            FaultPlan.single("engine.sharded", "hang", at=(0,), delay=0.5)
        )
        eng = QueryEngine(rmat_small, "bf", shards=2, retries=0)

        async def main():
            async with ShortestPathServer(eng, max_batch=2) as srv:
                with pytest.raises(DeadlineExceeded):
                    await srv.submit(3, deadline=0.2)
                return srv.stats()

        st = asyncio.run(main())
        assert st["failed"] == 1
        assert eng.stats()["exec_failures"] >= 1


def test_fused_sharded_fault_degrades_bit_identical(rmat_small):
    # Faults on every attempt exhaust the budget; the degraded fast-path
    # serve must still match the fused sharded rows bit for bit.
    fault_free = QueryEngine(rmat_small, "bf").query_batch([3, 11])
    install_injector(
        FaultPlan.single("engine.sharded", "exception", at=None, rate=1.0, times=99)
    )
    eng = QueryEngine(rmat_small, "bf", shards=3, partitioner="fennel", retries=1)
    out = eng.query_batch([3, 11])
    assert np.array_equal(out, fault_free)
    assert eng.stats()["degraded"] == 1
