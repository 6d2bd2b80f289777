"""Unit tests for the repair engine's classification, cone, and warm start."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import stepping_sssp
from repro.core.policies import RhoPolicy
from repro.dynamic import incremental
from repro.dynamic import (
    UpdateBatch,
    affected_cone,
    apply_resolved,
    incremental_sssp,
    resolve_updates,
)
from repro.graphs import Graph, path, rmat, road_grid
from repro.graphs.paths import spt_parents
from repro.utils.errors import ParameterError

G = rmat(9, 8, seed=7)


def _warm(g=G, source: int = 0):
    return stepping_sssp(g, source, RhoPolicy(64), seed=1)


def test_decrease_only_skips_cone_invalidation():
    warm = _warm()
    v = (len(G.neighbors(0)) and int(G.neighbors(0)[0]) + 1) % G.n or 5
    batch = UpdateBatch(inserts=[(0, G.n - 1, 0.001)])
    resolved = resolve_updates(G, batch)
    assert not resolved.increases.any()
    g2 = apply_resolved(G, resolved)
    rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert rep.params["decrease_only"] is True
    assert rep.params["cone"] == 0
    fresh = stepping_sssp(g2, 0, RhoPolicy(64), seed=1)
    assert np.array_equal(rep.dist, fresh.dist)


def test_empty_resolved_returns_warm_unchanged():
    warm = _warm()
    u, v = 3, 9
    while v in set(G.neighbors(u).tolist()) or v == u:
        v = (v + 1) % G.n
    resolved = resolve_updates(G, UpdateBatch(deletes=[(u, v)]))
    assert resolved.size == 0
    rep = incremental_sssp(G, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert np.array_equal(rep.dist, warm.dist)
    assert rep.params["seeds"] == 0


def test_unreachable_becomes_reachable_via_insert():
    # 0 -> 1 -> 2, vertex 3 isolated; insert 2 -> 3.
    g = Graph(
        indptr=np.array([0, 1, 2, 2, 2], dtype=np.int64),
        indices=np.array([1, 2], dtype=np.int64),
        weights=np.array([1.0, 2.0]),
        directed=True,
    )
    warm = _warm(g, 0)
    assert not np.isfinite(warm.dist[3])
    resolved = resolve_updates(g, UpdateBatch(inserts=[(2, 3, 0.5)]))
    g2 = apply_resolved(g, resolved)
    rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert rep.dist[3] == 3.5
    fresh = stepping_sssp(g2, 0, RhoPolicy(64), seed=1)
    assert np.array_equal(rep.dist, fresh.dist)


def test_reachable_becomes_unreachable_via_delete():
    # A path 0 -> 1 -> ... cut in the middle strands the whole tail.
    g = path(20)
    warm = _warm(g, 0)
    cut_u, cut_v = 9, 10
    resolved = resolve_updates(g, UpdateBatch(deletes=[(cut_u, cut_v)]))
    g2 = apply_resolved(g, resolved)
    rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    fresh = stepping_sssp(g2, 0, RhoPolicy(64), seed=1)
    assert np.array_equal(rep.dist, fresh.dist)
    if g.directed:
        assert not np.isfinite(rep.dist[15])
    assert rep.params["cone"] >= 1


def test_affected_cone_covers_descendants():
    # Directed chain 0->1->2->3: deleting 1->2 must invalidate {2, 3}.
    g = Graph(
        indptr=np.array([0, 1, 2, 3, 3], dtype=np.int64),
        indices=np.array([1, 2, 3], dtype=np.int64),
        weights=np.ones(3),
        directed=True,
    )
    dist = np.array([0.0, 1.0, 2.0, 3.0])
    resolved = resolve_updates(g, UpdateBatch(deletes=[(1, 2)]))
    g2 = apply_resolved(g, resolved)
    aff = affected_cone(g2, resolved, dist, 0)
    assert aff.tolist() == [False, False, True, True]


def test_inf_warm_vertices_never_enter_the_cone():
    g = path(6)
    warm_dist = np.full(g.n, np.inf)
    warm_dist[0] = 0.0  # a maximally cold warm start: only the source known
    resolved = resolve_updates(g, UpdateBatch(deletes=[(2, 3)]))
    g2 = apply_resolved(g, resolved)
    rep = incremental_sssp(
        g2, resolved, warm_dist, policy=RhoPolicy(64), source=0, seed=1
    )
    fresh = stepping_sssp(g2, 0, RhoPolicy(64), seed=1)
    assert np.array_equal(rep.dist, fresh.dist)
    assert rep.params["cone"] == 0  # inf is always a valid upper bound


def test_warm_start_framework_equivalence():
    """dist_init/seeds with the true fixpoint reproduces it untouched."""
    warm = _warm()
    res = stepping_sssp(
        G, 0, RhoPolicy(64), seed=1,
        dist_init=warm.dist.copy(), seeds=np.array([0], dtype=np.int64),
    )
    assert np.array_equal(res.dist, warm.dist)


def test_warm_start_parameter_validation():
    warm = _warm()
    with pytest.raises(ParameterError, match="passed together"):
        stepping_sssp(G, 0, RhoPolicy(64), dist_init=warm.dist.copy())
    with pytest.raises(ParameterError, match="length"):
        stepping_sssp(
            G, 0, RhoPolicy(64),
            dist_init=np.zeros(3), seeds=np.array([0], dtype=np.int64),
        )


def test_incremental_parameter_validation():
    warm = _warm()
    resolved = resolve_updates(G, UpdateBatch(inserts=[(0, G.n - 1, 0.5)]))
    g2 = apply_resolved(G, resolved)
    with pytest.raises(ParameterError, match="needs a source"):
        incremental_sssp(g2, resolved, warm.dist, policy=RhoPolicy(64))
    with pytest.raises(ParameterError, match="length"):
        incremental_sssp(
            g2, resolved, np.zeros(3), policy=RhoPolicy(64), source=0
        )
    with pytest.raises(ParameterError, match="expected 0.0"):
        bad = warm.dist.copy()
        bad[0] = 1.0
        incremental_sssp(g2, resolved, bad, policy=RhoPolicy(64), source=0)
    with pytest.raises(ParameterError, match="out of range"):
        incremental_sssp(
            g2, resolved, warm.dist, policy=RhoPolicy(64), source=g2.n + 3
        )


def test_repair_result_metadata():
    warm = _warm()
    u, v, w = int(G.edge_sources[0]), int(G.indices[0]), float(G.weights[0])
    resolved = resolve_updates(G, UpdateBatch(deletes=[(u, v)]))
    g2 = apply_resolved(G, resolved)
    rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert rep.algorithm == "incremental-rho-stepping"
    assert rep.params["incremental"] is True
    assert rep.params["updates"] == resolved.size
    assert rep.source == 0


# --------------------------------------------------------------------------- #
# Cone and seeds against the whole-graph definitions
# --------------------------------------------------------------------------- #


def _oracle_cone(graph, dist, source):
    """The O(m) definition: roots of the tight-parent forest other than the
    source, and every descendant of one, by pointer jumping."""
    n = graph.n
    finite = np.isfinite(dist)
    par = spt_parents(graph.edge_sources, graph.indices, graph.weights, dist)
    aff = finite & (par == np.arange(n))
    aff[source] = False
    while True:
        naff, npar = aff | aff[par], par[par]
        if np.array_equal(naff, aff) and np.array_equal(npar, par):
            return aff & finite
        aff, par = naff, npar


def _oracle_frontier(graph, updates, dist, source):
    """The reset row and the seeds of one improving-edge scan over all
    edges (the cone is skipped for a decrease-only batch)."""
    d = np.array(dist, dtype=np.float64, copy=True)
    if updates.increases.any():
        d[_oracle_cone(graph, d, source)] = np.inf
    es = graph.edge_sources
    return d, np.unique(es[d[es] + graph.weights < d[graph.indices]])


@contextmanager
def _walk_share(share):
    """Run the cone walk with another budget (``inf``: never fall back)."""
    with mock.patch.object(incremental, "_WALK_SHARE", share):
        yield


def _assert_matches_definition(g2, resolved, dist, source):
    cone = affected_cone(g2, resolved, dist, source)
    assert np.array_equal(cone, _oracle_cone(g2, dist, source))
    got = np.array(dist, copy=True)
    size, seeds = incremental.repair_frontier(g2, resolved, got, source)
    want, want_seeds = _oracle_frontier(g2, resolved, dist, source)
    assert np.array_equal(seeds, want_seeds)
    assert np.array_equal(got, want)
    assert size == (int(cone.sum()) if resolved.increases.any() else 0)
    return cone


def _parallel(g):
    """``g`` with a heavier and an equal-weight copy of every third edge,
    the heavier one stored first (before the original)."""
    es, ix, w = g.edges()
    extra = slice(0, None, 3)
    src = np.concatenate([es[extra], es, es[extra]])
    dst = np.concatenate([ix[extra], ix, ix[extra]])
    wt = np.concatenate([w[extra] * 2, w, w[extra]])
    if g.directed:
        return Graph.from_edges(g.n, src, dst, wt, dedup=False)
    keep = src < dst  # one orientation each, mirrored back by symmetrize
    return Graph.from_edges(
        g.n, src[keep], dst[keep], wt[keep], symmetrize=True, dedup=False
    )


#: Small graphs hand the walk over to the whole-graph pass almost at once;
#: "walk-only" keeps the walk going to the end so that it is tested too.
SHARES = pytest.mark.parametrize(
    "share", [incremental._WALK_SHARE, np.inf], ids=["budgeted", "walk-only"]
)

RMAT_DIR = rmat(9, 8, directed=True, seed=8)
PROPERTY_GRAPHS = {
    "rmat-und": G,
    "rmat-dir": RMAT_DIR,
    "road": road_grid(18, seed=9),
    "parallel-und": _parallel(G),
    "parallel-dir": _parallel(RMAT_DIR),
}


def _draw_edits(data, g, warm, source):
    """A batch aimed at the warm tree: edits to tight edges (mostly), to
    the source's own edges, and random inserts."""
    es, ix, w = g.edge_sources, g.indices, g.weights
    d = warm[es]
    tight = np.flatnonzero((d < warm[ix]) & (d + w == warm[ix]))
    around = np.flatnonzero((es == source) | (ix == source))
    ins, dels, rews = [], [], []
    for _ in range(data.draw(st.integers(1, 10), label="size")):
        pool = data.draw(st.sampled_from(["tight", "source", "any"]), label="pool")
        pool = {"tight": tight, "source": around}.get(pool, np.arange(g.m))
        if not pool.size:
            pool = np.arange(g.m)
        e = int(pool[data.draw(st.integers(0, len(pool) - 1), label="e")])
        u, v, old = int(es[e]), int(ix[e]), float(w[e])
        kind = data.draw(st.sampled_from(["delete", "up", "down", "insert"]), label="kind")
        if kind == "delete":
            dels.append((u, v))
        elif kind == "up":
            rews.append((u, v, old * data.draw(st.floats(1.01, 4.0), label="f")))
        elif kind == "down":
            rews.append((u, v, old * data.draw(st.floats(0.05, 0.99), label="f")))
        else:
            a = data.draw(st.integers(0, g.n - 1), label="a")
            b = (a + data.draw(st.integers(1, g.n - 1), label="b")) % g.n
            ins.append((a, b, old * data.draw(st.floats(0.05, 2.0), label="f")))
    return UpdateBatch(inserts=ins, deletes=dels, reweights=rews)


@SHARES
@pytest.mark.parametrize("gname", sorted(PROPERTY_GRAPHS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cone_and_seeds_equal_whole_graph_definition(gname, share, data):
    g = PROPERTY_GRAPHS[gname]
    source = data.draw(st.integers(0, g.n - 1), label="source")
    warm = stepping_sssp(g, source, RhoPolicy(64), seed=1).dist
    resolved = resolve_updates(g, _draw_edits(data, g, warm, source))
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        _assert_matches_definition(g2, resolved, warm, source)


@SHARES
@pytest.mark.parametrize(
    "batch",
    [UpdateBatch(deletes=[(0, 1)]), UpdateBatch(reweights=[(0, 1, 3.0)])],
    ids=["delete", "reweight-up"],
)
def test_parallel_edge_heavier_copy_stored_first(share, batch):
    # 0 -> 1 is stored as [5.0, 1.0]: the tight copy is the second one.
    # Deleting the pair, or setting it to 3.0 (an increase from the
    # lightest copy), strands 1 and its child 2.
    g = Graph.from_edges(
        4, [0, 0, 1, 0], [1, 1, 2, 3], [5.0, 1.0, 1.0, 9.0], dedup=False
    )
    assert g.weights[:2].tolist() == [5.0, 1.0]
    warm = _warm(g, 0)
    resolved = resolve_updates(g, batch)
    assert resolved.old_w.tolist() == [1.0] and resolved.increases.all()
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm.dist, 0)
        rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert np.flatnonzero(cone).tolist() == [1, 2]
    assert np.array_equal(rep.dist, stepping_sssp(g2, 0, RhoPolicy(64), seed=1).dist)


@SHARES
def test_unreachable_vertices_stay_outside_the_cone(share):
    # 0 -> 1 -> 2 -> 3 with 4 -> 5 -> 6 never reached from 0.
    g = Graph.from_edges(7, [0, 1, 2, 4, 5], [1, 2, 3, 5, 6], [1.0, 2.0, 3.0, 1.0, 1.0])
    warm = stepping_sssp(g, 0, RhoPolicy(64), seed=1).dist
    batch = UpdateBatch(deletes=[(1, 2), (4, 5)], inserts=[(5, 3, 1.0)])
    resolved = resolve_updates(g, batch)
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm, 0)
    assert np.flatnonzero(cone).tolist() == [2, 3]


@SHARES
def test_seeds_are_the_finite_tails_into_the_cone(share):
    # Directed: 0 -> 1 -> 2 -> 4 is the tree; 3 -> 2 is a slack in-edge
    # and 2 -> 5 a slack out-edge.  Deleting 1 -> 2 strands {2, 4}; only 3
    # (a finite tail into the cone) can improve it, not 5 (a head out of it).
    g = Graph.from_edges(
        6, [0, 1, 0, 3, 2, 0, 2], [1, 2, 3, 2, 4, 5, 5],
        [1.0, 1.0, 5.0, 5.0, 1.0, 1.0, 1.0],
    )
    warm = _warm(g, 0)
    resolved = resolve_updates(g, UpdateBatch(deletes=[(1, 2)]))
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm.dist, 0)
        rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert np.flatnonzero(cone).tolist() == [2, 4]
    assert rep.params["seeds"] == 1


@SHARES
def test_decreased_tight_edge_head_enters_the_cone(share):
    # 0 -> 1 -> 2 is the tree; lowering 1 -> 2 unties it, raising 0 -> 3
    # makes the batch mixed: 2 (and its child 4) lose their certificate.
    g = Graph.from_edges(
        5, [0, 1, 0, 2], [1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0]
    )
    warm = stepping_sssp(g, 0, RhoPolicy(64), seed=1).dist
    resolved = resolve_updates(g, UpdateBatch(reweights=[(1, 2, 0.5), (0, 3, 5.0)]))
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm, 0)
        assert np.flatnonzero(cone).tolist() == [2, 3, 4]
        # Decrease-only: the cone is skipped; the seeds still match the scan.
        resolved = resolve_updates(g, UpdateBatch(reweights=[(1, 2, 0.5)]))
        _assert_matches_definition(apply_resolved(g, resolved), resolved, warm, 0)


@SHARES
@pytest.mark.parametrize("directed", [False, True])
def test_cutting_the_source_invalidates_the_whole_path(share, directed):
    g = path(300, directed=directed)
    warm = _warm(g, 0)
    resolved = resolve_updates(g, UpdateBatch(deletes=[(0, 1)]))
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm.dist, 0)
        rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert int(cone.sum()) == g.n - 1 == rep.params["cone"]
    assert rep.params["seeds"] == 0
    assert np.array_equal(rep.dist, stepping_sssp(g2, 0, RhoPolicy(64), seed=1).dist)


@SHARES
def test_root_hidden_by_rounding_is_found(share):
    # 1 -> 2 weighs less than half an ulp of dist[1] = 2**53, so the warm
    # row has dist[2] == dist[1]: vertex 2 has no strictly tight in-edge in
    # the pre-update graph already, and no changed edge points at it.
    big = float(2**53)
    g = Graph.from_edges(
        5, [0, 1, 2, 0], [1, 2, 3, 4], [big, 0.5, 4.0, 1.0]
    )
    warm = _warm(g, 0)
    assert warm.dist[2] == warm.dist[1]
    resolved = resolve_updates(g, UpdateBatch(reweights=[(0, 4, 2.0)]))
    g2 = apply_resolved(g, resolved)
    with _walk_share(share):
        cone = _assert_matches_definition(g2, resolved, warm.dist, 0)
        rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    assert np.flatnonzero(cone).tolist() == [2, 3, 4]
    assert np.array_equal(rep.dist, stepping_sssp(g2, 0, RhoPolicy(64), seed=1).dist)


def test_no_seeds_returns_the_reset_row_without_a_drain():
    g = path(6, directed=True)
    warm = _warm(g, 0)
    resolved = resolve_updates(g, UpdateBatch(deletes=[(2, 3)]))
    g2 = apply_resolved(g, resolved)
    with mock.patch.object(incremental, "stepping_sssp") as drain:
        rep = incremental_sssp(g2, resolved, warm, policy=RhoPolicy(64), seed=1)
    drain.assert_not_called()
    assert rep.params["seeds"] == 0 and rep.params["cone"] == 3
    assert rep.dist.tolist() == [0.0, 1.0, 2.0, np.inf, np.inf, np.inf]
    assert rep.algorithm == "incremental-rho-stepping"
