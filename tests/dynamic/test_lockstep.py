"""The engine's lockstep repair: every warm row of an update in one drain.

:meth:`QueryEngine.apply_updates` resets each warm entry's cone, collects
its seeds (:func:`repro.dynamic.repair_frontier`) and drains all rows in
one warm-started :func:`~repro.serving.fastpath.multi_source_distances`
call.  Pinned here:

* **differential** — after each of several chained batches, the served
  rows equal a fresh ``multi_source_distances`` and SciPy's Dijkstra, on
  random integer-weighted graphs (disconnected, parallel edges stored in
  either order, directed and undirected) for every engine algorithm;
* **one drain per update** — a batch with warm entries calls the drain
  exactly once, whatever the number of entries;
* **drain fallback** — a drain that raises leaves every entry to the
  per-entry path, with the same summary and exact rows.

The fault-site behaviour (retry → recompute → drop under
``engine.update``) is pinned by ``tests/dynamic/test_chaos.py``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import repro.dynamic
import repro.serving.engine as engine_mod
from repro.dynamic import UpdateBatch
from repro.graphs import Graph, rmat
from repro.serving import FaultPlan, QueryEngine, ResultCache, install_injector
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import get_injector

#: (algo, param) of each engine configuration; small ρ and Δ make the
#: drains take several lockstep steps.
ALGOS = [("bf", None), ("delta", 3.0), ("rho", 2)]

G = rmat(9, 8, seed=7)
SOURCES = [0, 5, 17, 33]


@pytest.fixture(autouse=True)
def _restore_injector():
    yield
    install_injector(None)


def _scipy_rows(graph: Graph, sources) -> np.ndarray:
    """Dijkstra on SciPy's CSR, parallel edges reduced to their lightest."""
    n = graph.n
    key = graph.edge_sources * n + graph.indices
    order = np.lexsort((graph.weights, key))
    key, w = key[order], graph.weights[order]
    first = np.r_[True, key[1:] != key[:-1]] if key.size else np.zeros(0, bool)
    key, w = key[first], w[first]
    mat = csr_matrix((w, (key // n, key % n)), shape=(n, n))
    return dijkstra(mat, directed=True, indices=list(sources))


def _cached_rows(eng: QueryEngine, sources) -> np.ndarray:
    """The rows the cache holds for ``sources`` on the engine's graph."""
    rows = [eng.cache.get(ResultCache.key(eng.graph, eng.algo, eng.param, s))
            for s in sources]
    assert all(r is not None for r in rows), "a warm entry was not repaired"
    return np.stack(rows)


@st.composite
def _case(draw):
    """A random integer-weighted multigraph, warm sources and batches."""
    directed = draw(st.booleans(), label="directed")
    n = draw(st.integers(2, 24), label="n")
    vertex = st.integers(0, n - 1)
    # Few edges for the vertex count: most draws are disconnected.
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 12)),
                          max_size=2 * n))
    edges = [(u, v, float(w)) for u, v, w in edges if u != v]
    copies = draw(st.sampled_from(["none", "lighter-first", "heavier-first"]))
    if copies != "none":
        doubled = []
        for i, (u, v, w) in enumerate(edges):
            pair = [(u, v, w), (u, v, w + 4.0)] if i % 3 == 0 else [(u, v, w)]
            doubled.extend(pair if copies == "lighter-first" else pair[::-1])
        edges = doubled
    cols = list(zip(*edges)) if edges else [(), (), ()]
    g = Graph.from_edges(
        n, np.array(cols[0], dtype=np.int64), np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.float64), directed=directed,
        symmetrize=not directed, dedup=False,
    )
    sources = draw(st.lists(vertex, min_size=1, max_size=min(n, 6), unique=True))
    batches = []
    for _ in range(draw(st.integers(1, 4), label="batches")):
        ops = draw(st.lists(
            st.tuples(st.integers(0, 2), vertex, vertex, st.integers(1, 12)),
            min_size=1, max_size=8,
        ))
        ins, dels, rews = [], [], []
        for kind, u, v, w in ops:
            if u != v:
                (ins, dels, rews)[kind].append((u, v) if kind == 1 else (u, v, float(w)))
        batches.append(UpdateBatch(inserts=ins, deletes=dels, reweights=rews))
    return g, sources, batches


@pytest.mark.parametrize("algo,param", ALGOS, ids=[a for a, _ in ALGOS])
@given(case=_case())
@settings(max_examples=40, deadline=None)
def test_lockstep_rows_equal_fresh_and_dijkstra(algo, param, case):
    g, sources, batches = case
    eng = QueryEngine(g, algo, param, cache_size=64)
    eng.query_batch(sources)
    for batch in batches:
        summary = eng.apply_updates(batch)
        if summary["changed"]:
            assert summary["repaired"] == len(sources)
            assert summary["degraded"] == 0
        got = _cached_rows(eng, sources)
        fresh = multi_source_distances(eng.graph, sources, algo=algo, param=param)
        assert np.array_equal(got, fresh)
        assert np.array_equal(got, _scipy_rows(eng.graph, sources))


def _batch(k: int) -> UpdateBatch:
    """Deletes a tree edge of source 0 and inserts a shortcut (varied by k)."""
    u, v = int(G.edge_sources[k]), int(G.indices[k])
    return UpdateBatch(deletes=[(u, v)], inserts=[(5, 200 + k, 0.01)])


def _counting_drain():
    """A wrapper of the engine's fast path that counts warm-started calls."""
    calls = []

    def wrapped(*args, **kwargs):
        if kwargs.get("dist_init") is not None:
            calls.append(len(args[1]))
        return multi_source_distances(*args, **kwargs)

    return calls, wrapped


@pytest.mark.parametrize("algo,param", ALGOS, ids=[a for a, _ in ALGOS])
def test_one_drain_per_update(algo, param):
    eng = QueryEngine(G, algo, param)
    eng.query_batch(SOURCES)
    calls, wrapped = _counting_drain()
    with mock.patch.object(engine_mod, "multi_source_distances", wrapped):
        for k in range(3):
            summary = eng.apply_updates(_batch(k))
            assert summary["repaired"] == len(SOURCES)
            assert calls == [len(SOURCES)] * (k + 1)  # one drain, every row
    fresh = multi_source_distances(eng.graph, SOURCES, algo=algo, param=param)
    assert np.array_equal(_cached_rows(eng, SOURCES), fresh)


def test_no_warm_entries_runs_no_drain():
    eng = QueryEngine(G, "rho", 64)
    calls, wrapped = _counting_drain()
    with mock.patch.object(engine_mod, "multi_source_distances", wrapped):
        assert eng.apply_updates(_batch(0))["invalidated"] == 0
    assert calls == []


def test_drain_failure_falls_back_per_entry():
    """A drain that raises leaves the same summary and exact rows: every
    entry repairs on its own, with the same fault-site numbering."""
    reference = QueryEngine(G, "rho", 64)
    reference.query_batch(SOURCES)
    want = reference.apply_updates(_batch(0))

    eng = QueryEngine(G, "rho", 64)
    eng.query_batch(SOURCES)

    def broken(*args, **kwargs):
        if kwargs.get("dist_init") is not None:
            raise RuntimeError("drain exploded")
        return multi_source_distances(*args, **kwargs)

    # A zero-cost hang records every engine.update attempt that fires.
    install_injector(FaultPlan.single("engine.update", "hang", times=1, delay=1e-6))
    with mock.patch.object(engine_mod, "multi_source_distances", broken), \
            mock.patch("repro.dynamic.incremental_sssp",
                       wraps=repro.dynamic.incremental_sssp) as spy:
        got = eng.apply_updates(_batch(0))
    assert got == want
    assert got["repaired"] == len(SOURCES) and got["degraded"] == 0
    assert spy.call_count == len(SOURCES)  # one per-entry repair each
    # attempt 0 of every entry, indexed in entry order
    assert [(i, a) for _, _, i, a in get_injector().fired] == [
        (i, 0) for i in range(len(SOURCES))
    ]
    fresh = multi_source_distances(eng.graph, SOURCES, algo="rho", param=64)
    assert np.array_equal(_cached_rows(eng, SOURCES), fresh)


def test_faulted_entry_retries_alone():
    """A fault on one entry's attempt 0 retries that entry per-entry; the
    others keep their lockstep rows."""
    eng = QueryEngine(G, "rho", 64)
    eng.query_batch(SOURCES)
    install_injector(FaultPlan.single("engine.update", "corrupt", at=(2,), times=1))
    with mock.patch("repro.dynamic.incremental_sssp",
                    wraps=repro.dynamic.incremental_sssp) as spy:
        summary = eng.apply_updates(_batch(0))
    assert summary["repaired"] == len(SOURCES) and summary["degraded"] == 0
    assert spy.call_count == 1
    assert spy.call_args.kwargs["source"] == SOURCES[2]
    fresh = multi_source_distances(eng.graph, SOURCES, algo="rho", param=64)
    assert np.array_equal(_cached_rows(eng, SOURCES), fresh)
