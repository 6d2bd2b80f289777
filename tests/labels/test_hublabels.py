"""Pruned hub labeling: every lookup must equal exact SSSP, bit for bit.

The hypothesis sweep is the subsystem's strongest net: random weighted
graphs (directed and undirected, connectivity not required), every pair
``(s, t)``, ``hub_distance == dijkstra_reference`` exactly — the pruning is
provably lossless and the integer-weight contract makes the two different
summation orders land on the same float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import dijkstra_reference
from repro.core.framework import stepping_sssp
from repro.core.policies import BellmanFordPolicy, DeltaStarPolicy, RhoPolicy
from repro.graphs import Graph, rmat, road_grid, star
from repro.labels import HubLabels, build_hub_labels, build_landmarks, hub_distance
from repro.utils.errors import LabelFormatError, ParameterError


def hubs_for(g, num_landmarks=4, seed=0):
    """Hub labels ranked by a ``num_landmarks``-row landmark table."""
    table = build_landmarks(g, min(num_landmarks, g.n), seed=seed)
    return build_hub_labels(g, table, seed=seed)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 90))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    directed = draw(st.booleans())
    return Graph.from_edges(
        n, np.array(src), np.array(dst), np.array(w, dtype=float),
        directed=directed, symmetrize=not directed,
    )


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_hub_lookup_equals_dijkstra_every_pair(g):
    labels = hubs_for(g)
    for s in range(g.n):
        ref = dijkstra_reference(g, s)
        for t in range(g.n):
            d = hub_distance(labels, s, t)
            assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t])), (
                f"hub_distance({s}, {t}) = {d!r}, Dijkstra says {ref[t]!r}"
            )


@pytest.mark.parametrize("policy", [
    lambda: BellmanFordPolicy(),
    lambda: RhoPolicy(64),
    lambda: DeltaStarPolicy(2**13),
])
def test_hub_lookup_bit_identical_to_stepping_policies(policy):
    # The cross-policy pin: hub sums are bit-identical to the stepping
    # framework's path-ordered sums (exact integers in float64).
    g = rmat(8, 8, seed=11)
    labels = hubs_for(g)
    rng = np.random.default_rng(2)
    for s in map(int, rng.integers(0, g.n, 5)):
        dist = stepping_sssp(g, s, policy()).dist
        for t in map(int, rng.integers(0, g.n, 40)):
            d = hub_distance(labels, s, t)
            assert d == dist[t] or (np.isinf(d) and np.isinf(dist[t]))


def _assert_build_deterministic(g):
    a = hubs_for(g, 6, seed=5)
    b = hubs_for(g, 6, seed=5)
    for name in ("order", "out_indptr", "out_hubs", "out_dists",
                 "in_indptr", "in_hubs", "in_dists"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.params == b.params == {"order": "spt-subtree", "seed": 5}


def test_build_deterministic():
    _assert_build_deterministic(rmat(7, 6, seed=3))


@pytest.mark.parametrize("g", [
    rmat(7, 6, seed=4, directed=True),
    road_grid(10, seed=2),
], ids=["directed", "road"])
def test_build_deterministic_other_graphs(g):
    _assert_build_deterministic(g)


def test_subtree_order_labels_small_on_road_grid():
    # The landmark SPT-subtree order ranks the grid's through-routes first;
    # degree order (which ranks a grid's vertices almost all alike) gave
    # 62.6 entries per label on this graph.
    g = road_grid(40, max_weight=float(2**16), seed=106)
    labels = hubs_for(g, 16)
    assert labels.avg_label_size <= 35


def test_subtree_order_ranks_star_centre_first():
    # Every shortest path between two leaves runs through the centre, so
    # its subtree in any leaf's SPT holds all n vertices.
    g = star(12)
    labels = hubs_for(g, 3)
    assert int(labels.order[0]) == 0
    assert labels.avg_label_size <= 2.0


def test_stale_landmark_table_rejected():
    g = rmat(6, 6, seed=2)
    other = rmat(6, 6, seed=3)
    with pytest.raises(LabelFormatError, match="stale"):
        build_hub_labels(g, build_landmarks(other, 4))


@pytest.mark.parametrize("directed", [False, True])
def test_fractional_weight_refused_naming_edge(directed):
    src, dst = np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])
    g = Graph.from_edges(4, src, dst, np.array([3.0, 2.5, 1.0, 9.0]),
                         directed=directed, symmetrize=not directed)
    e = int(np.flatnonzero(g.weights == 2.5)[0])
    u, v = int(g.edge_sources[e]), int(g.indices[e])
    with pytest.raises(ParameterError, match=rf"edge {e} \({u} -> {v}\) has weight 2\.5"):
        build_landmarks(g, 2)
    integral = Graph.from_edges(4, src, dst, np.array([3.0, 2.0, 1.0, 9.0]),
                                directed=directed, symmetrize=not directed)
    table = build_landmarks(integral, 2)
    # A table smuggled in from the integer twin must not bypass the check.
    with pytest.raises(ParameterError, match="integer-valued"):
        build_hub_labels(g, table)


def test_labels_small_on_road_graph():
    # Pruning is what keeps labels sublinear; a grid's labels must be far
    # smaller than n per vertex.
    g = road_grid(12, seed=1)
    labels = hubs_for(g)
    assert labels.avg_label_size < g.n / 4


def test_undirected_aliases_in_out():
    g = rmat(7, 6, seed=5)
    labels = hubs_for(g)
    assert labels.in_hubs is labels.out_hubs
    assert labels.total_entries == len(labels.out_hubs)


def test_directed_separate_sides():
    g = rmat(7, 6, seed=6, directed=True)
    labels = hubs_for(g)
    assert labels.in_hubs is not labels.out_hubs
    ref = dijkstra_reference(g, 0)
    for t in range(0, g.n, 9):
        d = hub_distance(labels, 0, t)
        assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t]))


def test_hub_ranks_strictly_increasing():
    g = rmat(7, 8, seed=7)
    labels = hubs_for(g)
    for v in range(g.n):
        hubs, _ = labels.out_label(v)
        assert np.all(np.diff(hubs) > 0)


def _tamper(labels, **overrides) -> HubLabels:
    fields = dict(
        order=labels.order,
        out_indptr=labels.out_indptr, out_hubs=labels.out_hubs,
        out_dists=labels.out_dists,
        in_indptr=labels.in_indptr, in_hubs=labels.in_hubs,
        in_dists=labels.in_dists,
        fingerprint=labels.fingerprint,
    )
    fields.update(overrides)
    return HubLabels(**fields)


def test_validate_names_offenders():
    g = rmat(6, 6, seed=2)
    labels = hubs_for(g)
    bad_d = np.array(labels.out_dists, copy=True)
    bad_d[0] = -1.0
    with pytest.raises(LabelFormatError, match="finite"):
        _tamper(labels, out_dists=bad_d, in_dists=bad_d).validate(g)
    bad_h = np.array(labels.out_hubs, copy=True)
    bad_h[0] = g.n + 5
    with pytest.raises(LabelFormatError, match="rank range"):
        _tamper(labels, out_hubs=bad_h, in_hubs=bad_h).validate(g)
    bad_order = np.array(labels.order, copy=True)
    bad_order[0] = bad_order[1]
    with pytest.raises(LabelFormatError, match="permutation"):
        _tamper(labels, order=bad_order).validate(g)
    with pytest.raises(LabelFormatError, match="fingerprint"):
        _tamper(labels, fingerprint="bogus").validate(g)
