"""Shm plane through the serving stack: leaks, fallback, chaos, transport stats.

The contract under test: the shared-memory transport is an *optimisation*,
never a semantic change — distances must be bit-identical between the shm
and pickle paths, every segment must be gone
after pools close (even when a crash forced a pool rebuild mid-batch), and
an injected ``shm.attach`` fault must be absorbed by supervised retries.
"""

import numpy as np
import pytest

from repro.runtime import (
    SHM_PREFIX,
    close_manager,
    get_manager,
    leaked_segments,
    shm_available,
)
from repro.serving import BatchPool, FaultPlan, QueryEngine, multi_source_distances
from repro.utils.errors import ParameterError

pytestmark = pytest.mark.skipif(not shm_available(), reason="no shared memory")

SOURCES = [0, 2, 4, 6, 8, 10]


@pytest.fixture(autouse=True)
def _no_leaks():
    yield
    assert leaked_segments(SHM_PREFIX) == []


class TestLeakChecks:
    def test_pool_shutdown_unlinks_everything(self, rmat_small):
        with BatchPool(rmat_small, 2, use_shm=True) as pool:
            pool.distances(SOURCES)
            assert get_manager().live_segments() != []
        assert get_manager().live_segments() == []
        assert leaked_segments(SHM_PREFIX) == []

    def test_crash_triggered_rebuild_does_not_leak(self, rmat_small):
        serial = multi_source_distances(rmat_small, SOURCES)
        plan = FaultPlan.single("pool.worker", "crash", at=(0,), times=1)
        with BatchPool(
            rmat_small, 2, use_shm=True, retries=2, fault_plan=plan
        ) as pool:
            out = pool.distances(SOURCES)
            st = pool.stats()
        assert np.array_equal(out, serial)
        assert st["crashes"] >= 1 and st["rebuilds"] >= 1
        assert leaked_segments(SHM_PREFIX) == []

    def test_manager_close_unlinks_even_with_live_refs(self, rmat_small):
        mgr = get_manager()
        mgr.share_graph(rmat_small)
        mgr.alloc((2, rmat_small.n))
        assert mgr.live_segments() != []
        close_manager()
        assert leaked_segments(SHM_PREFIX) == []

    def test_two_pools_share_one_registration(self, rmat_small):
        with BatchPool(rmat_small, 2, use_shm=True) as a:
            graph_segments = len(get_manager().live_segments())
            with BatchPool(rmat_small, 2, use_shm=True) as b:
                # Same fingerprint: the CSR triple is not re-registered.
                assert len(get_manager().live_segments()) == graph_segments
                assert np.array_equal(a.distances([0, 1]), b.distances([0, 1]))
            # First pool still works after the second released its ref.
            a.distances([3])
        assert leaked_segments(SHM_PREFIX) == []


class TestFallback:
    def test_forced_pickle_is_bit_identical(self, rmat_small):
        serial = multi_source_distances(rmat_small, SOURCES)
        with BatchPool(rmat_small, 2, use_shm=True) as shm_pool:
            via_shm = shm_pool.distances(SOURCES)
            assert shm_pool.stats()["transport"] == "shm"
        with BatchPool(rmat_small, 2, use_shm=False) as pickle_pool:
            via_pickle = pickle_pool.distances(SOURCES)
            assert pickle_pool.stats()["transport"] == "pickle"
        assert np.array_equal(via_shm, serial)
        assert np.array_equal(via_pickle, serial)

    def test_rho_and_delta_chunked_match_serial(self, road_small):
        for algo, param in (("rho", 64.0), ("delta", 8.0)):
            serial = multi_source_distances(road_small, SOURCES, algo=algo, param=param)
            with BatchPool(
                road_small, 2, algo=algo, param=param, chunk=2, use_shm=True
            ) as pool:
                assert np.array_equal(pool.distances(SOURCES), serial)


class TestAttachChaos:
    def test_attach_fault_retried_to_identical_result(self, rmat_small):
        serial = multi_source_distances(rmat_small, SOURCES)
        plan = FaultPlan.single("shm.attach", "exception", at=(0,), times=1)
        with BatchPool(
            rmat_small, 2, use_shm=True, retries=2, fault_plan=plan
        ) as pool:
            out = pool.distances(SOURCES)
            st = pool.stats()
        assert np.array_equal(out, serial)
        assert st["transport"] == "shm"
        assert st["retried"] >= 1  # the injected attach fault actually landed


class TestEngineTransport:
    def test_pooled_engine_reports_transport(self, rmat_small):
        baseline = QueryEngine(rmat_small, "bf").query_batch(SOURCES)
        with QueryEngine(rmat_small, "bf", pool_jobs=2, use_shm=True) as eng:
            out = eng.query_batch(SOURCES)
            st = eng.stats()
        assert np.array_equal(out, baseline)
        assert st["transport"] == "shm"
        assert st["transports"] == {"local": 0, "shm": 1, "pickle": 0}

    def test_pickle_engine_counts_per_batch(self, rmat_small):
        with QueryEngine(rmat_small, "bf", pool_jobs=2, use_shm=False) as eng:
            eng.query_batch([0, 1])
            eng.query_batch([2, 3])
            st = eng.stats()
        assert st["transport"] == "pickle"
        assert st["transports"]["pickle"] == 2

    def test_local_engine_reports_local(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([0, 1])
        st = eng.stats()
        assert st["transport"] == "local"
        assert st["transports"] == {"local": 1, "shm": 0, "pickle": 0}

    def test_pool_jobs_rejects_exact_and_sharded(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", shards=2, pool_jobs=2)
