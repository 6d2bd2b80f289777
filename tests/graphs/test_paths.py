"""Tests for path extraction, predecessors, SP trees, and SSSP verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import dijkstra_reference
from repro.core import rho_stepping
from repro.graphs import (
    Graph,
    extract_path,
    path,
    predecessors,
    rmat,
    shortest_path_tree,
    verify_sssp,
)
from repro.graphs.paths import spt_parents
from repro.utils import ParameterError


class TestVerifySSSP:
    def test_accepts_correct_distances(self, rmat_small, gold):
        verify_sssp(rmat_small, 0, gold(rmat_small, 0))

    def test_accepts_directed(self, rmat_directed, gold):
        verify_sssp(rmat_directed, 0, gold(rmat_directed, 0))

    def test_rejects_too_small_distance(self, rmat_small, gold):
        d = gold(rmat_small, 0).copy()
        d[5] -= 1.0
        with pytest.raises(AssertionError):
            verify_sssp(rmat_small, 0, d)

    def test_rejects_too_large_distance(self, rmat_small, gold):
        d = gold(rmat_small, 0).copy()
        v = int(np.argmax(np.where(np.isfinite(d), d, -1)))
        d[v] += 1.0
        with pytest.raises(AssertionError):
            verify_sssp(rmat_small, 0, d)

    def test_rejects_nonzero_source(self, rmat_small, gold):
        d = gold(rmat_small, 0).copy()
        d[0] = 1.0
        with pytest.raises(AssertionError):
            verify_sssp(rmat_small, 0, d)

    def test_rejects_wrong_length(self, rmat_small):
        with pytest.raises(ParameterError):
            verify_sssp(rmat_small, 0, np.zeros(3))

    def test_rejects_spuriously_unreachable(self):
        g = path(4, directed=True)
        d = np.array([0.0, 1.0, np.inf, np.inf])
        with pytest.raises(AssertionError):
            verify_sssp(g, 0, d)


class TestPredecessors:
    def test_path_graph_chain(self):
        g = path(6)
        d = dijkstra_reference(g, 0)
        pred = predecessors(g, 0, d)
        assert list(pred) == [-1, 0, 1, 2, 3, 4]

    def test_source_and_unreachable_are_minus_one(self):
        g = Graph.from_edges(3, np.array([0]), np.array([1]), np.array([1.0]),
                             directed=True)
        d = dijkstra_reference(g, 0)
        pred = predecessors(g, 0, d)
        assert pred[0] == -1 and pred[2] == -1 and pred[1] == 0

    def test_every_predecessor_edge_is_tight(self, rmat_directed, gold):
        d = gold(rmat_directed, 0)
        pred = predecessors(rmat_directed, 0, d)
        for v in np.flatnonzero(pred >= 0):
            u = pred[v]
            w = None
            for t, ww in zip(rmat_directed.neighbors(u), rmat_directed.neighbor_weights(u)):
                if t == v:
                    w = ww if w is None else min(w, ww)
            assert w is not None
            assert abs(d[u] + w - d[v]) < 1e-9


class TestExtractPath:
    def test_endpoints(self, rmat_small, gold):
        d = gold(rmat_small, 0)
        target = int(np.argmax(np.where(np.isfinite(d), d, -1)))
        route = extract_path(rmat_small, 0, target, d)
        assert route[0] == 0 and route[-1] == target

    def test_path_length_matches_distance(self, road_small, gold):
        d = gold(road_small, 0)
        target = road_small.n - 1
        route = extract_path(road_small, 0, target, d)
        total = 0.0
        for u, v in zip(route, route[1:]):
            w = min(
                ww for t, ww in zip(road_small.neighbors(u), road_small.neighbor_weights(u))
                if t == v
            )
            total += w
        assert abs(total - d[target]) < 1e-6

    def test_unreachable_returns_empty(self):
        g = Graph.from_edges(3, np.array([0]), np.array([1]), np.array([1.0]),
                             directed=True)
        assert extract_path(g, 0, 2, dijkstra_reference(g, 0)) == []

    def test_bad_target(self, rmat_small, gold):
        with pytest.raises(ParameterError):
            extract_path(rmat_small, 0, rmat_small.n, gold(rmat_small, 0))


class TestShortestPathTree:
    def test_tree_shape(self, rmat_small, gold):
        d = gold(rmat_small, 0)
        t = shortest_path_tree(rmat_small, 0, d)
        reachable = int(np.isfinite(d).sum())
        assert t.m == reachable - 1  # one edge per non-source reachable vertex
        assert t.directed

    def test_tree_distances_match(self, road_small, gold):
        d = gold(road_small, 0)
        t = shortest_path_tree(road_small, 0, d)
        dt = dijkstra_reference(t, 0)
        assert np.allclose(dt, d, equal_nan=True)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_verify_accepts_every_algorithm_output(seed):
    g = rmat(7, 6, seed=seed % 17)
    s = seed % g.n
    res = rho_stepping(g, s, rho=16, seed=seed)
    verify_sssp(g, s, res.dist)


def _spt_parents_reference(edge_src, edge_dst, weights, dist):
    """Reference tight-edge forest that tests both endpoints for finiteness."""
    n = len(dist)
    finite = np.isfinite(dist)
    du, dv = dist[edge_src], dist[edge_dst]
    tight = finite[edge_src] & finite[edge_dst] & (du + weights == dv) & (du < dv)
    parent = np.full(n, n, dtype=np.int64)
    np.minimum.at(parent, edge_dst[tight], edge_src[tight])
    return np.where(parent < n, parent, np.arange(n, dtype=np.int64))


@given(
    st.integers(0, 10_000),
    st.integers(2, 24),
    st.integers(1, 3),
    st.booleans(),
    st.floats(0.0, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_spt_parents_matches_reference_with_unreachable_vertices(
    seed, core, isolated, directed, drop
):
    # Vertices >= core have no edges, so every row has unreachable
    # entries; a random share of the rest is reset to inf, as the
    # incremental repair does to its affected cone.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4 * core))
    g = Graph.from_edges(
        core + isolated, rng.integers(0, core, m), rng.integers(0, core, m),
        rng.integers(1, 9, m).astype(float),
        directed=directed, symmetrize=not directed,
    )
    es, ix, w = g.edge_sources, g.indices, g.weights
    for s in range(0, g.n, 3):
        dist = dijkstra_reference(g, s)
        dist[rng.random(g.n) < drop] = np.inf
        assert np.array_equal(
            spt_parents(es, ix, w, dist), _spt_parents_reference(es, ix, w, dist)
        )
        # The in-tree form (edge arrays swapped) over the same vector.
        assert np.array_equal(
            spt_parents(ix, es, w, dist), _spt_parents_reference(ix, es, w, dist)
        )
