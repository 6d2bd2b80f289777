"""Equivalence tests for the vectorised kernel layer.

Every kernel in :mod:`repro.runtime.kernels` is an *implementation* choice:
whatever the dispatch picks, the result must be bit-identical to the naive
NumPy reference (``np.minimum.at`` / ``np.unique`` / stable-argsort).  These
tests force every dispatch arm — fallback mode, the default mode, and each
arm explicitly via threshold overrides — across dtypes, duplicate densities,
inf values, and empty inputs.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import rmat
from repro.runtime import kernels
from repro.runtime.atomics import test_and_set as batched_test_and_set
from repro.runtime.atomics import write_min
from repro.runtime.kernels import (
    KernelThresholds,
    Workspace,
    fallback_mode,
    first_occurrence,
    gather_edges,
    scatter_min,
    segmented_min,
    unique_ids,
    unique_sorted,
)


@contextmanager
def forced(**overrides):
    """Pin the dispatch thresholds for the duration of the block."""
    prev = kernels._THRESHOLDS
    kernels._THRESHOLDS = KernelThresholds(**overrides)
    try:
        yield
    finally:
        kernels._THRESHOLDS = prev


# scatter-min has one implementation; both dispatch modes must reach it.
SCATTER_ARMS = [
    {"fallback": False},  # default dispatch
    {"fallback": True},  # pre-kernel idioms
]


def scatter_arm(arm):
    return fallback_mode() if arm["fallback"] else nullcontext()
DEDUP_ARMS = [
    {"dedup_mask_ratio": 1 << 62},  # always np.unique
    {"dedup_mask_ratio": 1},  # always mark-bits + flatnonzero
]


# --------------------------------------------------------------------------- #
# scatter_min
# --------------------------------------------------------------------------- #


@st.composite
def scatter_batch(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    k = draw(st.integers(min_value=0, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, n, size=k)
    # Mix finite values and infs, including all-inf value arrays.
    values = np.where(rng.random(n) < 0.2, np.inf, rng.random(n) * 100.0)
    cands = np.where(rng.random(k) < 0.2, np.inf, rng.random(k) * 100.0)
    return values, targets, cands


@settings(max_examples=60, deadline=None)
@given(batch=scatter_batch(), arm=st.sampled_from(range(len(SCATTER_ARMS))))
def test_scatter_min_matches_minimum_at(batch, arm):
    values, targets, cands = batch
    ref = values.copy()
    np.minimum.at(ref, targets, cands)
    with scatter_arm(SCATTER_ARMS[arm]):
        got = values.copy()
        old = scatter_min(got, targets, cands)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(old, values[targets])


@pytest.mark.parametrize("arm", SCATTER_ARMS)
def test_scatter_min_empty(arm):
    with scatter_arm(arm):
        values = np.array([3.0, 1.0])
        old = scatter_min(values, np.zeros(0, dtype=np.int64), np.zeros(0))
    assert old.size == 0
    np.testing.assert_array_equal(values, [3.0, 1.0])


@pytest.mark.parametrize("arm", SCATTER_ARMS)
def test_scatter_min_integer_values(arm):
    with scatter_arm(arm):
        values = np.array([5, 9, 2], dtype=np.int64)
        targets = np.array([1, 1, 0, 2], dtype=np.int64)
        cands = np.array([7, 3, 9, 1], dtype=np.int64)
        scatter_min(values, targets, cands)
    np.testing.assert_array_equal(values, [5, 3, 1])


# --------------------------------------------------------------------------- #
# write_min / test_and_set through the kernels
# --------------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(batch=scatter_batch(), cas=st.booleans())
def test_write_min_same_in_both_modes(batch, cas):
    values, targets, cands = batch
    v1 = values.copy()
    s1 = write_min(v1, targets, cands, cas=cas)
    with fallback_mode():
        v2 = values.copy()
        s2 = write_min(v2, targets, cands, cas=cas)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(s1, s2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), k=st.integers(0, 300))
def test_test_and_set_workspace_equivalence(seed, k):
    rng = np.random.default_rng(seed)
    n = 64
    ids = rng.integers(0, n, size=k)
    flags = rng.random(n) < 0.3
    ws = Workspace(n)
    f1, f2 = flags.copy(), flags.copy()
    with fallback_mode():
        ref = batched_test_and_set(f1, ids)
    with forced(first_occ_dense_min=0):
        got = batched_test_and_set(f2, ids, workspace=ws)
    np.testing.assert_array_equal(ref, got)
    np.testing.assert_array_equal(f1, f2)


# --------------------------------------------------------------------------- #
# dedup
# --------------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=500),
    k=st.integers(min_value=0, max_value=1000),
    arm=st.sampled_from(range(len(DEDUP_ARMS))),
)
def test_unique_ids_matches_np_unique(seed, n, k, arm):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, n, size=k)
    ws = Workspace(n)
    with forced(**DEDUP_ARMS[arm]):
        got = unique_ids(ids, n, workspace=ws)
    np.testing.assert_array_equal(got, np.unique(ids))
    assert got.dtype == np.int64 or k == 0
    # The workspace mask must come back clean for the next wave.
    if ws._mask is not None:
        assert not ws._mask.any()


@pytest.mark.parametrize("arm", DEDUP_ARMS)
def test_unique_ids_empty(arm):
    with forced(**arm):
        out = unique_ids(np.zeros(0, dtype=np.int64), 10, workspace=Workspace(10))
    assert out.size == 0 and out.dtype == np.int64


def test_unique_sorted():
    for arr in ([], [0], [0, 0], [0, 1, 1, 4, 4, 4, 9]):
        a = np.array(arr, dtype=np.int64)
        np.testing.assert_array_equal(unique_sorted(a), np.unique(a))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), k=st.integers(0, 500))
def test_first_occurrence_dense_matches_sort(seed, k):
    rng = np.random.default_rng(seed)
    n = 100
    ids = rng.integers(0, n, size=k)
    with fallback_mode():
        ref = first_occurrence(ids)
    ws = Workspace(n)
    with forced(first_occ_dense_min=0):
        got = first_occurrence(ids, workspace=ws)
    np.testing.assert_array_equal(ref, got)
    # Slots buffer restored to -1 for all touched entries.
    if ws._slots is not None:
        assert (ws._slots == -1).all()


# --------------------------------------------------------------------------- #
# segmented_min / gather_edges
# --------------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_segmented_min_matches_reduceat(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 50))
    values = rng.random(k) * 10
    values[rng.random(k) < 0.2] = np.inf
    n_seg = int(rng.integers(1, k + 1))
    seg = np.sort(rng.choice(k, size=n_seg, replace=False)).astype(np.int64)
    seg[0] = 0
    np.testing.assert_array_equal(
        segmented_min(values, seg), np.minimum.reduceat(values, seg)
    )


def test_segmented_min_empty():
    out = segmented_min(np.zeros(0), np.zeros(0, dtype=np.int64))
    assert out.size == 0


class TestGatherEdges:
    def setup_method(self):
        self.g = rmat(7, 6, directed=True, seed=42)

    def test_matches_fallback(self):
        rng = np.random.default_rng(0)
        for size in (1, 5, 40, self.g.n):
            frontier = np.sort(rng.choice(self.g.n, size=size, replace=False)).astype(np.int64)
            tuned = gather_edges(self.g, frontier)
            with fallback_mode():
                ref = gather_edges(self.g, frontier)
            for a, b in zip(tuned, ref):
                np.testing.assert_array_equal(a, b)

    def test_reference_semantics(self):
        frontier = np.array([3, 0, 7], dtype=np.int64)
        targets, pos, w, seg_starts, degs = gather_edges(self.g, frontier)
        expect_t = np.concatenate([self.g.neighbors(int(u)) for u in frontier])
        expect_w = np.concatenate([self.g.neighbor_weights(int(u)) for u in frontier])
        np.testing.assert_array_equal(targets, expect_t)
        np.testing.assert_array_equal(w, expect_w)
        np.testing.assert_array_equal(degs, self.g.out_degree(frontier))
        np.testing.assert_array_equal(np.cumsum(np.r_[0, degs[:-1]]), seg_starts)
        np.testing.assert_array_equal(self.g.indices[pos], targets)

    @pytest.mark.parametrize("use_fallback", [False, True])
    def test_empty_frontier_dtypes(self, use_fallback):
        def check():
            targets, pos, w, seg_starts, degs = gather_edges(
                self.g, np.zeros(0, dtype=np.int64)
            )
            assert targets.dtype == np.int64
            assert pos.dtype == np.int64
            assert w.dtype == np.float64
            assert seg_starts.dtype == np.int64
            assert all(a.size == 0 for a in (targets, pos, w, seg_starts, degs))

        if use_fallback:
            with fallback_mode():
                check()
        else:
            check()

    def test_zero_degree_frontier_dtypes(self):
        # A frontier whose vertices all have degree 0: isolated-vertex graph.
        from repro.graphs.csr import Graph

        g = Graph(
            indptr=np.zeros(5, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            weights=np.zeros(0, dtype=np.float64),
        )
        targets, pos, w, seg_starts, degs = gather_edges(g, np.array([1, 3], dtype=np.int64))
        assert targets.dtype == np.int64 and pos.dtype == np.int64
        assert w.dtype == np.float64
        assert seg_starts.dtype == np.int64 and len(seg_starts) == 2


# --------------------------------------------------------------------------- #
# Graph gather caches
# --------------------------------------------------------------------------- #


class TestGraphCaches:
    def test_degrees_cached_and_correct(self):
        g = rmat(6, 4, directed=True, seed=7)
        np.testing.assert_array_equal(g.degrees, np.diff(g.indptr))
        assert g.degrees is g.degrees  # cached, not recomputed

    def test_edge_sources_is_coo_row(self):
        g = rmat(6, 4, directed=True, seed=7)
        src, dst, w = g.edges()
        np.testing.assert_array_equal(g.edge_sources, src)
        assert g.edge_sources is g.edge_sources


# --------------------------------------------------------------------------- #
# Workspace / thresholds
# --------------------------------------------------------------------------- #


class TestWorkspace:
    def test_buffers_lazy_and_reused(self):
        ws = Workspace(16)
        assert ws._mask is None and ws._slots is None
        m1 = ws.mask()
        assert m1 is ws.mask()  # same buffer, no realloc
        s1 = ws.slots()
        assert s1 is ws.slots()
        assert not m1.any() and (s1 == -1).all()

    def test_unique_convenience(self):
        ws = Workspace(32)
        ids = np.array([5, 5, 1, 31, 1], dtype=np.int64)
        np.testing.assert_array_equal(ws.unique(ids), [1, 5, 31])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Workspace(-1)


def test_thresholds_are_fixed():
    assert kernels.thresholds() == KernelThresholds(float("inf"), 256, 1024)
    assert kernels.thresholds() is kernels.thresholds()


def test_set_mode_validates():
    with pytest.raises(ValueError):
        kernels.set_mode("turbo")
    kernels.set_mode("auto")
