"""Regression suite: stale cache entries never survive a graph update.

The key invariants:

* every entry keyed by the pre-update fingerprint is invalidated by
  ``apply_updates`` — a post-update query can never be served a pre-update
  distance vector;
* warm-seeded repair produces exactly what a cold repair (or a fresh run)
  produces, so cache warmth is a latency optimisation, never a semantic;
* :meth:`ResultCache.invalidate` returns the dropped entries (the warm
  seeds) and counts them.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.core.framework import stepping_sssp
from repro.core.policies import RhoPolicy
from repro.dynamic import UpdateBatch, apply_resolved, incremental_sssp, resolve_updates
from repro.graphs import rmat
from repro.graphs.interop import to_scipy_sparse
from repro.serving import QueryEngine, ResultCache
from repro.serving.fastpath import multi_source_distances

G = rmat(9, 8, seed=7)


def _batch() -> UpdateBatch:
    u, v = int(G.edge_sources[0]), int(G.indices[0])
    return UpdateBatch(deletes=[(u, v)], inserts=[(5, 200, 0.01)])


def test_invalidate_unit():
    cache = ResultCache(8)
    k_old = ("g#1", "fp-old", "rho", 64, 0)
    k_old2 = ("g#1", "fp-old", "rho", 64, 5)
    k_other = ("g#1", "fp-new", "rho", 64, 0)
    for k in (k_old, k_old2, k_other):
        cache.put(k, np.arange(4.0))
    dropped = cache.invalidate("g#1", "fp-old")
    assert set(dropped) == {k_old, k_old2}
    assert cache.invalidations == 2
    assert cache.get(k_old) is None and cache.get(k_old2) is None
    assert cache.get(k_other) is not None  # other fingerprints untouched
    assert cache.invalidate("g#1", "fp-old") == {}  # idempotent


def test_stale_entries_never_served_after_update():
    eng = QueryEngine(G, "rho", 64)
    before = {s: eng.query(s).copy() for s in (0, 5, 17)}
    eng.apply_updates(_batch())
    for s, old in before.items():
        served = eng.query(s)
        fresh = multi_source_distances(eng.graph, [s], algo="rho", param=64)[0]
        assert np.array_equal(served, fresh)
        assert not np.array_equal(served, old), (
            "update changed these sources' distances in this scenario; a "
            "served pre-update vector means the stale entry leaked"
        )


def test_old_key_is_gone_from_the_cache():
    eng = QueryEngine(G, "rho", 64)
    eng.query(0)
    old_key = ResultCache.key(G, "rho", 64, 0)
    assert old_key in eng.cache
    eng.apply_updates(_batch())
    assert old_key not in eng.cache
    new_key = ResultCache.key(eng.graph, "rho", 64, 0)
    assert new_key in eng.cache  # repaired forward under the new fingerprint
    assert old_key != new_key


def test_warm_seeded_repair_equals_cold_repair():
    source = 0
    warm = stepping_sssp(G, source, RhoPolicy(64), seed=1)
    resolved = resolve_updates(G, _batch())
    g2 = apply_resolved(G, resolved)
    warm_rep = incremental_sssp(
        g2, resolved, warm, policy=RhoPolicy(64), seed=1
    )
    cold_dist = np.full(g2.n, np.inf)
    cold_dist[source] = 0.0
    cold_rep = incremental_sssp(
        g2, resolved, cold_dist, policy=RhoPolicy(64), source=source, seed=1
    )
    fresh = stepping_sssp(g2, source, RhoPolicy(64), seed=1)
    assert np.array_equal(warm_rep.dist, fresh.dist)
    assert np.array_equal(cold_rep.dist, fresh.dist)
    assert np.array_equal(warm_rep.dist, cold_rep.dist)


def test_noop_update_keeps_cache_intact():
    eng = QueryEngine(G, "rho", 64)
    eng.query(0)
    u, v = 3, 9
    while v in set(G.neighbors(u).tolist()) or v == u:
        v = (v + 1) % G.n
    summary = eng.apply_updates(UpdateBatch(deletes=[(u, v)]))
    assert summary["invalidated"] == 0
    assert eng.graph is G  # same object: fingerprint unchanged
    assert ResultCache.key(G, "rho", 64, 0) in eng.cache
    assert eng.stats()["update_noops"] == 1


def test_chained_updates_only_latest_fingerprint_lives():
    eng = QueryEngine(G, "rho", 64)
    eng.query(0)
    fingerprints = [G.fingerprint]
    eng.apply_updates(_batch())
    fingerprints.append(eng.graph.fingerprint)
    eng.apply_updates(UpdateBatch(inserts=[(7, 300, 0.02)]))
    fingerprints.append(eng.graph.fingerprint)
    assert len(set(fingerprints)) == 3
    assert ResultCache.key(eng.graph, "rho", 64, 0) in eng.cache
    # every surviving entry is keyed by the newest fingerprint only
    for key in list(eng.cache._data):
        assert key[1] == eng.graph.fingerprint



@pytest.mark.parametrize(
    "plane,plane_batches",
    [
        ({}, lambda st: st["transports"]["local"]),
        ({"shards": 3}, lambda st: st["sharded_execs"]),
        ({"pool_jobs": 2}, lambda st: st["transports"]["pool"]),
    ],
    ids=["local", "sharded", "pooled"],
)
def test_update_rebinds_execution_plane(plane, plane_batches):
    # The partition and the pool both hold the CSR they were built on;
    # apply_updates must rebind them.  Warm rows are repaired into cache
    # hits and never reach the plane, so only cold sources exercise it.
    u, v = int(G.edge_sources[0]), int(G.indices[0])
    batch = UpdateBatch(deletes=[(u, v)], inserts=[(5, 200, 3.0), (1, 33, 2.0)])
    cold = [1, 33, 200, 64]
    before_update = dijkstra(to_scipy_sparse(G), directed=True, indices=cold)
    with QueryEngine(G, "rho", 64, **plane) as eng:
        eng.query_batch([0, 5, 17])
        eng.apply_updates(batch)
        before = eng.stats()
        rows = eng.query_batch(cold)
        after = eng.stats()
        graph = eng.graph
    want = dijkstra(to_scipy_sparse(graph), directed=True, indices=cold)
    assert np.array_equal(rows, want)
    assert not np.array_equal(want, before_update)  # the update mattered
    assert after["executed"] - before["executed"] == len(cold)
    assert plane_batches(after) == plane_batches(before) + 1
    assert after["degraded"] == 0 and after["pool_fallbacks"] == 0
