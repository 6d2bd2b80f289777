"""The single-pair lookup path against its references.

``LandmarkTable.bounds`` works on Python floats and ``hub_distance`` on one
``searchsorted`` merge; both must give exactly what the vectorised
``lower_bounds`` / ``upper_bounds`` and a brute-force hub intersection
give.  The graphs always carry isolated vertices, so unreachable pairs,
``+inf`` lower bounds and ``inf - inf`` landmark differences all occur.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import dijkstra_reference
from repro.graphs import Graph
from repro.labels import (
    LabelBundle,
    LabelIndex,
    build_hub_labels,
    build_landmarks,
    hub_distance,
)

_INF = float("inf")


@st.composite
def graphs_with_unreachable_pairs(draw):
    core = draw(st.integers(2, 20))
    n = core + draw(st.integers(1, 3))  # ids >= core have no edges
    m = draw(st.integers(1, 70))
    src = draw(st.lists(st.integers(0, core - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, core - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    directed = draw(st.booleans())
    return Graph.from_edges(
        n, np.array(src), np.array(dst), np.array(w, dtype=float),
        directed=directed, symmetrize=not directed,
    )


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


@given(graphs_with_unreachable_pairs(), st.sampled_from(["farthest", "degree"]))
@settings(max_examples=60, deadline=None)
def test_scalar_bounds_bitwise_equal_vectorised(g, strategy):
    table = build_landmarks(g, min(4, g.n), strategy=strategy)
    targets = np.arange(g.n, dtype=np.int64)
    for s in range(g.n):
        lo = table.lower_bounds(s, targets)
        up = table.upper_bounds(s, targets)
        for t in range(g.n):
            got_lo, got_up = table.bounds(s, t)
            assert _bits(got_lo) == _bits(lo[t]), (s, t, got_lo, lo[t])
            assert _bits(got_up) == _bits(up[t]), (s, t, got_up, up[t])
            assert table.lower_bound(s, t) == got_lo
            assert table.upper_bound(s, t) == got_up


@given(graphs_with_unreachable_pairs())
@settings(max_examples=40, deadline=None)
def test_hub_distance_equals_brute_force_common_hubs(g):
    labels = build_hub_labels(g, build_landmarks(g, min(4, g.n)))
    for s in range(g.n):
        sh, sd = labels.out_label(s)
        out = dict(zip(sh.tolist(), sd.tolist()))
        for t in range(g.n):
            th, td = labels.in_label(t)
            sums = [out[h] + d for h, d in zip(th.tolist(), td.tolist()) if h in out]
            want = min(sums, default=_INF)
            assert _bits(hub_distance(labels, s, t)) == _bits(want), (s, t)


@given(graphs_with_unreachable_pairs())
@settings(max_examples=40, deadline=None)
def test_landmark_only_index_serves_exactly_when_bounds_pinch(g):
    table = build_landmarks(g, min(4, g.n))
    index = LabelIndex(g, LabelBundle(fingerprint=g.fingerprint, landmarks=table))
    for s in range(g.n):
        ref = dijkstra_reference(g, s)
        for t in range(g.n):
            lo, up = table.bounds(s, t)
            served = index.stats["landmark_served"]
            d = index.dist(s, t)
            assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t])), (s, t)
            pinched = s != t and lo == up
            assert index.stats["landmark_served"] == served + pinched, (s, t)
            assert index.reachable(s, t) == bool(np.isfinite(ref[t]))
    assert index.stats["bound_violations"] == 0
