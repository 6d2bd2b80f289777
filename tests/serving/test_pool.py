"""SweepPool and BatchPool: pooled results must equal the serial path exactly."""

import numpy as np
import pytest

from repro.analysis import get_implementation, simulated_time
from repro.analysis.sweeps import sweep_param
from repro.runtime import MachineModel
from repro.serving import BatchPool, FaultPlan, QueryEngine, SweepPool, multi_source_distances
from repro.utils.errors import ParameterError

SOURCES = [0, 2, 4, 6, 8, 10]


@pytest.fixture(scope="module")
def machine():
    return MachineModel()


class TestPool:
    def test_rejects_serial_job_count(self, rmat_small):
        with pytest.raises(ParameterError):
            SweepPool(rmat_small, jobs=1)

    def test_pooled_times_equal_serial(self, rmat_small, machine):
        impl = get_implementation("PQ-rho")
        sources = [0, 3, 5]
        serial = [
            simulated_time(impl.run(rmat_small, s, 64, seed=0), machine, impl.profile)
            for s in sources
        ]
        with SweepPool(rmat_small, jobs=2) as pool:
            pooled = pool.simulated_times("PQ-rho", 64, sources, machine, seed=0)
        assert pooled == serial

    def test_map_cells_full_grid(self, rmat_small, machine):
        impl = get_implementation("PQ-delta")
        params, sources = [8.0, 32.0], [0, 1]
        with SweepPool(rmat_small, jobs=2) as pool:
            grid = pool.map_cells("PQ-delta", params, sources, machine, seed=0)
        assert len(grid) == 2 and all(len(row) == 2 for row in grid)
        for p, row in zip(params, grid):
            for s, t in zip(sources, row):
                ref = simulated_time(
                    impl.run(rmat_small, s, p, seed=0), machine, impl.profile
                )
                assert t == ref


class TestSupervision:
    def test_stats_and_probe_on_healthy_pool(self, rmat_small, machine):
        with SweepPool(rmat_small, jobs=2) as pool:
            pool.simulated_times("PQ-rho", 64, [0, 1], machine)
            st = pool.stats()
            assert pool.health_probe(timeout=30.0)
        assert st["submitted"] == 2 and st["completed"] == 2
        assert st["rebuilds"] == 0 and st["retried"] == 0


class TestSweepJobs:
    def test_sweep_param_jobs_matches_serial(self, road_small, machine):
        impl = get_implementation("PQ-rho")
        params, sources = [32.0, 128.0], [0, 2]
        serial = sweep_param(impl, road_small, params, sources, machine, seed=0)
        pooled = sweep_param(
            impl, road_small, params, sources, machine, seed=0, jobs=2
        )
        assert pooled.times == serial.times
        assert pooled.best_param == serial.best_param


class TestBatchPool:
    def test_chunked_rows_match_serial_fast_path(self, road_small):
        for algo, param in (("rho", 64.0), ("delta", 8.0), ("bf", None)):
            serial = multi_source_distances(road_small, SOURCES, algo=algo, param=param)
            with BatchPool(road_small, 2, algo=algo, param=param, chunk=2) as pool:
                assert np.array_equal(pool.distances(SOURCES), serial)

    def test_crash_rebuild_is_bit_identical(self, rmat_small):
        serial = multi_source_distances(rmat_small, SOURCES)
        plan = FaultPlan.single("pool.worker", "crash", at=(0,), times=1)
        with BatchPool(rmat_small, 2, retries=2, fault_plan=plan) as pool:
            out = pool.distances(SOURCES)
            st = pool.stats()
        assert np.array_equal(out, serial)
        assert st["crashes"] >= 1 and st["rebuilds"] >= 1

    def test_valid_chunk_rejects_wrong_row_count(self, rmat_small):
        # A block whose length differs from the chunk it answers would
        # misalign every later row of the stacked result.
        k, n = 3, rmat_small.n
        rows = multi_source_distances(rmat_small, SOURCES[:k])
        expected = {0: k, k: k}
        with BatchPool(rmat_small, 2) as pool:
            assert pool._valid_chunk((0, rows), expected)
            assert pool._valid_chunk((k, rows), expected)
            assert not pool._valid_chunk((0, rows[: k - 1]), expected)
            assert not pool._valid_chunk((0, np.vstack([rows, rows[:1]])), expected)
            assert not pool._valid_chunk((1, rows), expected)  # unknown chunk
            assert not pool._valid_chunk(rows[: k - 1], expected)  # bare block
            assert not pool._valid_chunk((0, rows[:, : n - 1]), expected)
            assert not pool._valid_chunk(None, expected)  # corrupted payload


class TestEnginePool:
    def test_pooled_engine_counts_pool_batches(self, rmat_small):
        baseline = QueryEngine(rmat_small, "bf").query_batch(SOURCES)
        with QueryEngine(rmat_small, "bf", pool_jobs=2) as eng:
            out = eng.query_batch(SOURCES)
            st = eng.stats()
        assert np.array_equal(out, baseline)
        assert st["transport"] == "pool"
        assert st["transports"] == {"local": 0, "pool": 1}

    def test_pooled_engine_counts_per_batch(self, rmat_small):
        with QueryEngine(rmat_small, "bf", pool_jobs=2) as eng:
            eng.query_batch([0, 1])
            eng.query_batch([2, 3])
            st = eng.stats()
        assert st["transports"]["pool"] == 2

    def test_local_engine_reports_local(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([0, 1])
        st = eng.stats()
        assert st["transport"] == "local"
        assert st["transports"] == {"local": 1, "pool": 0}

    def test_pool_jobs_rejects_sharded(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", shards=2, pool_jobs=2)
