"""Unit tests for the CSR graph representation."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import UpdateBatch, apply_updates
from repro.graphs import Graph
from repro.utils import GraphFormatError


def _triangle(directed=True):
    return Graph.from_edges(
        3,
        np.array([0, 1, 2]),
        np.array([1, 2, 0]),
        np.array([1.0, 2.0, 3.0]),
        directed=directed,
    )


class TestFromEdges:
    def test_basic_shape(self):
        g = _triangle()
        assert g.n == 3
        assert g.m == 3
        g.validate()

    def test_neighbors_sorted_by_target(self):
        g = Graph.from_edges(
            4, np.array([0, 0, 0]), np.array([3, 1, 2]), np.array([1.0, 1.0, 1.0])
        )
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_parallel_to_indices(self):
        g = Graph.from_edges(
            3, np.array([0, 0]), np.array([2, 1]), np.array([5.0, 7.0])
        )
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbor_weights(0)) == [7.0, 5.0]

    def test_self_loops_dropped(self):
        g = Graph.from_edges(2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]))
        assert g.m == 1

    def test_parallel_edges_keep_min_weight(self):
        g = Graph.from_edges(
            2, np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([3.0, 1.0, 2.0])
        )
        assert g.m == 1
        assert g.weights[0] == 1.0

    def test_dedup_disabled_keeps_duplicates(self):
        g = Graph.from_edges(
            2, np.array([0, 0]), np.array([1, 1]), np.array([3.0, 1.0]), dedup=False
        )
        assert g.m == 2

    def test_symmetrize_adds_reverse_edges(self):
        g = Graph.from_edges(
            2, np.array([0]), np.array([1]), np.array([2.0]), symmetrize=True
        )
        assert g.m == 2
        assert not g.directed
        g.validate()

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, np.array([0]), np.array([5]), np.array([1.0]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, np.array([0, 1]), np.array([1]), np.array([1.0]))

    def test_empty_graph(self):
        g = Graph.from_edges(4, np.array([]), np.array([]), np.array([]))
        assert g.n == 4 and g.m == 0
        g.validate()
        assert g.max_weight == 0.0


class TestAccessors:
    def test_out_degree_all(self):
        g = _triangle()
        assert list(g.out_degree()) == [1, 1, 1]

    def test_out_degree_single(self):
        g = _triangle()
        assert g.out_degree(0) == 1

    def test_min_max_weight(self):
        g = _triangle()
        assert g.min_weight == 1.0
        assert g.max_weight == 3.0

    def test_min_max_weight_cached_per_graph(self):
        from repro.dynamic import UpdateBatch, apply_resolved, resolve_updates

        g = _triangle()
        assert g.max_weight == g.weights.max() and g.min_weight == g.weights.min()
        assert {"max_weight", "min_weight"} <= set(vars(g))  # computed once
        batch = UpdateBatch(reweights=[(0, 1, 0.25), (2, 0, 9.0)])
        g2 = apply_resolved(g, resolve_updates(g, batch))
        assert g2 is not g
        assert (g2.min_weight, g2.max_weight) == (0.25, 9.0)
        assert (g.min_weight, g.max_weight) == (1.0, 3.0)

    @pytest.mark.parametrize("n", [5, 70_000])  # one and two 16-bit digits
    def test_transposed_is_a_stable_sort_by_head(self, n):
        rng = np.random.default_rng(n)
        src, dst = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
        src[:3], dst[:3] = 0, n - 1  # parallel copies keep their order
        g = Graph.from_edges(n, src, dst, rng.random(3 * n) + 0.5, dedup=False)
        order = np.argsort(g.indices, kind="stable")
        t = g.transposed
        assert np.array_equal(t.indptr[1:], np.cumsum(np.bincount(g.indices, minlength=n)))
        assert np.array_equal(t.indices, g.edge_sources[order])
        assert np.array_equal(t.weights, g.weights[order])

    def test_transposed_lists_in_edges(self):
        g = Graph.from_edges(
            4, np.array([0, 2, 1, 3, 0]), np.array([1, 1, 3, 1, 2]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        t = g.transposed
        t.validate()
        assert t is g.transposed  # cached
        assert list(t.neighbors(1)) == [0, 2, 3]
        assert list(t.neighbor_weights(1)) == [1.0, 2.0, 4.0]
        assert list(t.neighbors(0)) == [] and list(t.neighbors(3)) == [1]
        und = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            symmetrize=True,
        )
        # A symmetric CSR is its own transpose: the arrays are shared, the
        # object is not (a cached self-reference would be a cycle).
        assert und.transposed is not und
        assert und.transposed.indices is und.indices
        ref = weakref.ref(und)
        del und
        assert ref() is None  # freed without the cyclic collector

    def test_edges_roundtrip(self):
        g = _triangle()
        src, dst, w = g.edges()
        g2 = Graph.from_edges(3, src, dst, w, dedup=False)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        assert np.array_equal(g.weights, g2.weights)

    def test_with_name(self):
        g = _triangle().with_name("tri")
        assert g.name == "tri"
        assert g.indices is _triangle().indices or g.m == 3  # arrays shared


class TestFingerprint:
    def test_stable_across_calls(self):
        g = _triangle()
        assert g.fingerprint == g.fingerprint
        assert "fingerprint" in g.__dict__  # cached after first access

    def test_equal_for_identical_content(self):
        # Same CSR content, different objects and names -> same fingerprint.
        a = _triangle()
        b = _triangle().with_name("other")
        assert a.fingerprint == b.fingerprint

    def test_differs_when_weights_differ(self):
        a = _triangle()
        w = a.weights.copy()
        w[0] += 1.0
        b = Graph(a.indptr, a.indices, w, directed=True)
        assert a.fingerprint != b.fingerprint

    def test_differs_when_structure_differs(self):
        a = _triangle()
        b = Graph.from_edges(
            3, np.array([0, 1, 2]), np.array([2, 0, 1]), np.array([1.0, 2.0, 3.0])
        )
        assert a.fingerprint != b.fingerprint

    def test_differs_on_directedness(self):
        g = Graph.from_edges(
            2, np.array([0]), np.array([1]), np.array([1.0]), symmetrize=True
        )
        flipped = Graph(g.indptr, g.indices, g.weights, directed=True)
        assert g.fingerprint != flipped.fingerprint


class TestFingerprintContract:
    """Equal iff same directedness, same ``n`` and same edge multiset."""

    def test_ignores_storage_order_within_a_row(self):
        g = Graph.from_edges(
            3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
        )
        order = np.array([1, 0, 2])  # row 0 stored target-descending
        shuffled = Graph(g.indptr, g.indices[order], g.weights[order])
        assert shuffled.fingerprint == g.fingerprint

    def test_differs_on_vertex_count(self):
        g = _triangle()
        wider = Graph(np.append(g.indptr, g.m), g.indices, g.weights)
        assert wider.n == g.n + 1
        assert wider.fingerprint != g.fingerprint

    def test_differs_on_edge_multiplicity(self):
        g = _triangle()
        doubled = Graph.from_edges(
            3, np.array([0, 0, 1, 2]), np.array([1, 1, 2, 0]),
            np.array([1.0, 1.0, 2.0, 3.0]), dedup=False,
        )
        assert doubled.fingerprint != g.fingerprint


@st.composite
def _graph_and_batches(draw):
    """A small multigraph (parallel copies stored lighter- or heavier-first)
    and two chained update batches with integer weights."""
    directed = draw(st.booleans(), label="directed")
    n = draw(st.integers(2, 10), label="n")
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 9)), max_size=24))
    edges = [(u, v, float(w)) for u, v, w in edges if u != v]
    copies = draw(st.sampled_from(["none", "lighter-first", "heavier-first"]))
    if copies != "none":
        doubled = []
        for i, (u, v, w) in enumerate(edges):
            if i % 2:
                doubled.append((u, v, w))
                continue
            pair = [(u, v, w), (u, v, w + 5.0)]
            doubled.extend(pair if copies == "lighter-first" else pair[::-1])
        edges = doubled
    src, dst, wt = (np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*edges) if edges else ([], [], []), (np.int64, np.int64, np.float64)
    ))
    g = Graph.from_edges(n, src, dst, wt, directed=directed,
                         symmetrize=not directed, dedup=False)
    batches = []
    for _ in range(2):
        ops = draw(st.lists(
            st.tuples(st.integers(0, 2), vertex, vertex, st.integers(1, 9)),
            min_size=1, max_size=6,
        ))
        ins, dels, rews = [], [], []
        for kind, u, v, w in ops:
            if u == v:
                continue
            (ins, dels, rews)[kind].append((u, v) if kind == 1 else (u, v, float(w)))
        batches.append(UpdateBatch(inserts=ins, deletes=dels, reweights=rews))
    return g, batches


@given(case=_graph_and_batches())
@settings(max_examples=80, deadline=None)
def test_updated_fingerprint_equals_fresh_graph(case):
    """The O(batch) fingerprint an update derives equals the one a fresh
    ``Graph`` over the same arrays computes from scratch, along a chain."""
    g, batches = case
    g.fingerprint  # the parent's edge sum is known, so updates derive theirs
    for batch in batches:
        g2 = apply_updates(g, batch)
        if g2 is not g:
            assert "edge_sum" in g2.__dict__  # derived, not recomputed
            fresh = Graph(g2.indptr, g2.indices, g2.weights, directed=g2.directed)
            assert g2.fingerprint == fresh.fingerprint
            assert g2.fingerprint != g.fingerprint
        g = g2


class TestSymmetryCache:
    def test_is_symmetric_computed_once(self):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            symmetrize=True,
        )
        assert "is_symmetric" not in g.__dict__
        assert g.is_symmetric
        assert "is_symmetric" in g.__dict__  # repeated validate() reuses it
        g.validate()
        g.validate()

    def test_asymmetric_cached_false(self):
        g = _triangle(directed=False)
        assert g.is_symmetric is False
        assert g.__dict__["is_symmetric"] is False


class TestValidate:
    def test_negative_weight_rejected(self):
        g = _triangle()
        bad = Graph(g.indptr, g.indices, -g.weights, directed=True)
        with pytest.raises(GraphFormatError):
            bad.validate()

    def test_nan_weight_rejected(self):
        g = _triangle()
        w = g.weights.copy()
        w[0] = np.nan
        with pytest.raises(GraphFormatError):
            Graph(g.indptr, g.indices, w).validate()

    def test_indptr_mismatch_rejected(self):
        g = _triangle()
        bad = Graph(g.indptr[:-1], g.indices, g.weights)
        with pytest.raises(GraphFormatError):
            bad.validate()

    def test_asymmetric_undirected_rejected(self):
        g = _triangle(directed=False)  # a directed cycle claimed undirected
        with pytest.raises(GraphFormatError):
            g.validate()

    def test_symmetric_undirected_accepted(self):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            symmetrize=True,
        )
        g.validate()

    def test_error_names_offending_weight(self):
        g = _triangle()
        w = g.weights.copy()
        w[2] = -4.0
        with pytest.raises(GraphFormatError, match=r"weights\[2\]=.*-4\.0"):
            Graph(g.indptr, g.indices, w).validate()

    def test_error_names_offending_target(self):
        g = _triangle()
        idx = g.indices.copy()
        idx[1] = 9
        with pytest.raises(GraphFormatError, match=r"indices\[1\]=9"):
            Graph(g.indptr, idx, g.weights).validate()

    def test_error_names_offending_vertex(self):
        g = _triangle()
        bad = g.indptr.copy()
        bad[1], bad[2] = bad[2], bad[1]  # indptr dips at vertex 1
        with pytest.raises(GraphFormatError, match="vertex 1"):
            Graph(bad, g.indices, g.weights).validate()

    def test_error_names_asymmetric_edge(self):
        g = _triangle(directed=False)
        with pytest.raises(GraphFormatError, match=r"\(0, 1\)"):
            g.validate()
