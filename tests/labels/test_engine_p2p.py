"""Engine p2p mode + server fast path: exactness, chaos, invalidation.

Covers the serving-side contract of the label tier:

* ``mode="p2p"`` answers are bit-identical to the engine's own batch SSSP;
* a broken label build degrades to the SSSP fallback (still exact), a
  transient one is absorbed by the retry budget;
* ``apply_updates`` marks the old tables stale and rebuilds against the
  new fingerprint — a stale label answer can never be served;
* ``labels_path`` artifacts are reused across engine restarts;
* ``ShortestPathServer.submit_p2p`` serves from labels when they are hot
  and routes through batch formation (full admission) when they are not.
"""

import asyncio

import numpy as np
import pytest

from repro.baselines import dijkstra_reference
from repro.dynamic import UpdateBatch
from repro.graphs import rmat
from repro.labels import LabelStore
from repro.obs import MetricsRegistry, observed
from repro.serving import QueryEngine, ShortestPathServer
from repro.serving.cache import graph_id
from repro.serving.faults import FaultPlan, install_injector
from repro.utils.errors import ParameterError

G = rmat(8, 8, seed=31)


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    install_injector(None)


@pytest.fixture
def engine():
    eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8)
    yield eng
    eng.close()


def run(coro):
    return asyncio.run(coro)


class TestExactness:
    def test_dist_bit_identical_to_batch_sssp(self, engine):
        assert engine.labels_ready
        rng = np.random.default_rng(4)
        for _ in range(40):
            s, t = map(int, rng.integers(0, G.n, 2))
            ref = float(engine.query_batch([s])[0][t])
            d = engine.dist(s, t)
            assert d == ref or (np.isinf(d) and np.isinf(ref))
        assert engine.stats()["label_lookup"]["fallbacks"] == 0

    def test_reachable_and_knearest(self, engine):
        row = engine.query_batch([3])[0]
        assert engine.reachable(3, 10) == bool(np.isfinite(row[10]))
        sources = list(range(0, G.n, 7))
        got = engine.knearest(9, sources, 4)
        rows = engine.query_batch(sources)
        ref = sorted(
            (float(rows[i, 9]), s)
            for i, s in enumerate(sources)
            if np.isfinite(rows[i, 9])
        )
        assert got == [(s, d) for d, s in ref[:4]]

    def test_non_p2p_mode_rejects(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        try:
            with pytest.raises(ParameterError, match="p2p"):
                eng.dist(0, 1)
            with pytest.raises(ParameterError, match="p2p"):
                eng.knearest(0, [1], 1)
        finally:
            eng.close()

    def test_labels_path_requires_p2p(self, tmp_path, rmat_small):
        with pytest.raises(ParameterError, match="p2p"):
            QueryEngine(rmat_small, "bf", labels_path=tmp_path / "x.labels")

    @pytest.mark.parametrize(
        "weight,fallbacks", [(3.0, 0), (2.5, 3)], ids=["labels", "refused"]
    )
    def test_p2p_counters_match_registry(self, weight, fallbacks):
        # Every entry point counts in stats() and in the metrics registry
        # alike — label-served, and (fractional weight) through the fallback.
        graph = G.apply_updates(UpdateBatch(reweights=[(1, 2, weight)]))
        eng = QueryEngine(graph, "rho", 64, mode="p2p", num_landmarks=8)
        registry = MetricsRegistry()
        try:
            with observed(registry=registry):
                eng.dist(0, 1)
                eng.reachable(3, 10)
                eng.knearest(9, [0, 7, 14], 2)
            st = eng.stats()
        finally:
            eng.close()
        counters = registry.snapshot()["counters"]
        assert st["p2p_queries"] == counters["serving.engine.p2p_queries"] == 3
        assert st["label_fallbacks"] == fallbacks
        assert counters.get("serving.engine.label_fallbacks", 0) == fallbacks

    def test_stats_expose_label_tier(self, engine):
        engine.dist(0, 1)
        st = engine.stats()
        assert st["labels_ready"] is True
        assert st["p2p_queries"] == 1
        assert st["label_builds"] == 1
        assert st["label_lookup"]["lookups"] == 1


class TestBuildChaos:
    def test_transient_build_fault_absorbed_by_retries(self):
        install_injector(FaultPlan.single("labels.build", "exception", at=(0,)))
        eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, retries=2)
        try:
            st = eng.stats()
            assert eng.labels_ready  # second attempt succeeded
            assert st["label_builds"] == 1
            assert st["label_build_failures"] == 1
            ref = float(eng.query_batch([2])[0][11])
            d = eng.dist(2, 11)
            assert d == ref or (np.isinf(d) and np.isinf(ref))
        finally:
            eng.close()

    def test_persistent_build_fault_degrades_to_exact_fallback(self):
        install_injector(
            FaultPlan.single("labels.build", "exception", at=tuple(range(512)))
        )
        eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, retries=1)
        try:
            assert not eng.labels_ready
            assert eng.stats()["label_build_failures"] >= 2
            rng = np.random.default_rng(5)
            for _ in range(5):
                s, t = map(int, rng.integers(0, G.n, 2))
                ref = float(eng.query_batch([s])[0][t])
                d = eng.dist(s, t)  # degraded but still exact
                assert d == ref or (np.isinf(d) and np.isinf(ref))
            assert eng.stats()["label_fallbacks"] == 5
        finally:
            eng.close()

    def test_exhausted_build_not_retried_per_query(self):
        # Once the retry budget is spent, queries use the exact fallback
        # and never run the build again; only a graph change retries it.
        install_injector(
            FaultPlan.single("labels.build", "exception", at=tuple(range(512)))
        )
        eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, retries=1)
        try:
            failures = eng.stats()["label_build_failures"]
            assert failures == 2
            rng = np.random.default_rng(6)
            for _ in range(5):
                s, t = map(int, rng.integers(0, G.n, 2))
                ref = float(dijkstra_reference(G, s)[t])
                d = eng.dist(s, t)
                assert d == ref or (np.isinf(d) and np.isinf(ref))
                assert eng.reachable(s, t) == bool(np.isfinite(ref))
            assert eng.stats()["label_build_failures"] == failures
            # A new fingerprint earns a new build, which fails again here ...
            eng.apply_updates(UpdateBatch(inserts=[(0, 100, 1.0)]))
            assert eng.stats()["label_build_failures"] == failures + 2
            eng.dist(0, 100)
            assert eng.stats()["label_build_failures"] == failures + 2
            # ... and succeeds once the faults stop.
            install_injector(None)
            summary = eng.apply_updates(UpdateBatch(inserts=[(5, 200, 2.0)]))
            assert summary["labels_rebuilt"] is True and eng.labels_ready
            ref = float(dijkstra_reference(eng.graph, 5)[200])
            assert eng.dist(5, 200) == ref
        finally:
            eng.close()

    def test_corrupt_build_rejected_by_validation(self):
        # A corrupt directive poisons a distance; bundle.validate must veto
        # it inside the retry loop, so the surviving build is clean.
        install_injector(FaultPlan.single("labels.build", "corrupt", at=(0,)))
        eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, retries=2)
        try:
            assert eng.labels_ready
            assert eng.stats()["label_build_failures"] == 1
            ref = float(eng.query_batch([1])[0][8])
            d = eng.dist(1, 8)
            assert d == ref or (np.isinf(d) and np.isinf(ref))
        finally:
            eng.close()


class TestIntegerWeightContract:
    """Label exactness rests on integer weights (DESIGN §14): a graph that
    breaks the contract is refused once, for good, and every p2p answer is
    served by the exact SSSP fallback instead."""

    @staticmethod
    def _assert_exact(eng, graph, pairs):
        for s, t in pairs:
            ref = float(dijkstra_reference(graph, s)[t])
            d = eng.dist(s, t)
            assert d == ref or (np.isinf(d) and np.isinf(ref)), (s, t, d, ref)
            assert eng.reachable(s, t) == bool(np.isfinite(ref))

    def test_fractional_graph_refused_permanently(self):
        frac = G.apply_updates(UpdateBatch(reweights=[(1, 2, 7.5)]))
        eng = QueryEngine(frac, "rho", 64, mode="p2p", num_landmarks=8, retries=2)
        try:
            assert not eng.labels_ready
            rng = np.random.default_rng(9)
            pairs = [tuple(map(int, rng.integers(0, G.n, 2))) for _ in range(6)]
            self._assert_exact(eng, frac, pairs)
            st = eng.stats()
            # One refused attempt: no retries, no rebuild per query.
            assert st["label_build_failures"] == 1
            assert st["label_builds"] == 0
            assert st["label_fallbacks"] == 2 * len(pairs)
        finally:
            eng.close()

    def test_fractional_update_falls_back_then_recovers(self, engine):
        u, v = 0, int(G.indices[G.indptr[0]])
        summary = engine.apply_updates(UpdateBatch(reweights=[(u, v, 2.5)]))
        assert summary["labels_rebuilt"] is False
        assert not engine.labels_ready
        pairs = [(u, v), (v, u), (0, 60), (3, 90), (u, 120)]
        self._assert_exact(engine, engine.graph, pairs)
        assert engine.stats()["label_build_failures"] == 1
        # A later batch that restores integer weights brings labels back.
        summary = engine.apply_updates(UpdateBatch(reweights=[(u, v, 3.0)]))
        assert summary["labels_rebuilt"] is True
        self._assert_exact(engine, engine.graph, pairs)
        assert engine.stats()["label_build_failures"] == 1


class TestInvalidation:
    BATCH = UpdateBatch(inserts=[(0, 100, 1.0), (5, 200, 2.0)])

    def test_stale_labels_never_served_after_update(self, engine):
        idx_before = engine._ensure_labels()
        old_fp = engine.graph.fingerprint
        summary = engine.apply_updates(self.BATCH)
        assert summary["labels_invalidated"] == 1
        assert summary["labels_rebuilt"] is True
        assert idx_before.bundle.stale  # the old tables can refuse service
        idx_after = engine._ensure_labels()
        assert idx_after is not idx_before
        assert idx_after.bundle.fingerprint == engine.graph.fingerprint != old_fp

    def test_post_update_answers_exact_on_new_graph(self, engine):
        before = {t: engine.dist(0, t) for t in (50, 100, 150)}
        engine.apply_updates(self.BATCH)
        for t in (50, 100, 150):
            ref = float(engine.query_batch([0])[0][t])
            d = engine.dist(0, t)
            assert d == ref or (np.isinf(d) and np.isinf(ref))
        # the inserted (0, 100, 1.0) edge must be visible immediately
        assert engine.dist(0, 100) == 1.0 != before[100]

    def test_old_fingerprint_swept_from_label_store(self, engine):
        old_g = engine.graph
        old_key = LabelStore.key(old_g)
        assert engine._label_store.get(old_key) is not None
        engine.apply_updates(self.BATCH)
        assert engine._label_store.get(old_key) is None
        assert engine._label_store.get(LabelStore.key(engine.graph)) is not None
        # idempotent: a second sweep of the old fingerprint drops nothing
        assert engine._label_store.invalidate(graph_id(old_g), old_g.fingerprint) == {}

    def test_noop_update_keeps_labels(self, engine):
        summary = engine.apply_updates(UpdateBatch())
        assert summary["labels_invalidated"] == 0
        assert engine.labels_ready


class TestArtifactReuse:
    def test_second_engine_loads_instead_of_building(self, tmp_path):
        path = tmp_path / "g.labels"
        first = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, labels_path=path)
        try:
            assert first.stats()["label_builds"] == 1
            assert path.exists()
        finally:
            first.close()
        second = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, labels_path=path)
        try:
            assert second.labels_ready
            assert second.stats()["label_builds"] == 0  # loaded, not rebuilt
            ref = float(second.query_batch([4])[0][17])
            assert second.dist(4, 17) == ref
        finally:
            second.close()

    def test_corrupt_artifact_triggers_rebuild(self, tmp_path):
        path = tmp_path / "g.labels"
        first = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8, labels_path=path)
        first.close()
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(RuntimeWarning, match="rejected"):
            eng = QueryEngine(
                G, "rho", 64, mode="p2p", num_landmarks=8, labels_path=path
            )
        try:
            assert eng.labels_ready
            assert eng.stats()["label_builds"] == 1  # self-healed by rebuilding
        finally:
            eng.close()


class TestServerFastPath:
    def test_submit_p2p_label_served(self):
        eng = QueryEngine(G, "rho", 64, mode="p2p", num_landmarks=8)

        async def main():
            async with ShortestPathServer(eng) as srv:
                d = await srv.submit_p2p(3, 40)
                return d, srv.stats()

        try:
            d, st = run(main())
            ref = float(eng.query_batch([3])[0][40])
            assert d == ref or (np.isinf(d) and np.isinf(ref))
            assert st["p2p_submitted"] == 1
            assert st["p2p_label_served"] == 1
            assert st["p2p_batched"] == 0
        finally:
            eng.close()

    def test_submit_p2p_cold_tier_routes_through_batching(self, rmat_small):
        # A non-p2p engine has no labels: the request must take the full
        # batch path (admission control included), still exact.
        eng = QueryEngine(rmat_small, "bf")

        async def main():
            async with ShortestPathServer(eng) as srv:
                d = await srv.submit_p2p(2, 9)
                return d, srv.stats()

        try:
            d, st = run(main())
            ref = float(eng.query_batch([2])[0][9])
            assert d == ref or (np.isinf(d) and np.isinf(ref))
            assert st["p2p_label_served"] == 0
            assert st["p2p_batched"] == 1
        finally:
            eng.close()
