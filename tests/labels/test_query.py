"""LabelIndex: validated lookups, chaos degradation, staleness refusal.

The serving contract under test: a query *never* returns a wrong distance.
Corrupt lookups are caught by the exact ALT bound sandwich and degrade to
the SSSP fallback bit-identically; injected lookup faults cost latency, not
correctness; a stale bundle refuses to answer at all.
"""

import numpy as np
import pytest

from repro.baselines import dijkstra_reference
from repro.graphs import rmat
from repro.labels import (
    LabelBundle,
    LabelIndex,
    build_hub_labels,
    build_landmarks,
)
from repro.serving.faults import FaultPlan, install_injector
from repro.utils.errors import LabelFormatError, ParameterError

G = rmat(8, 8, seed=21)
G_DIR = rmat(8, 6, seed=22, directed=True)


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    install_injector(None)


def _bundle(g, *, hubs=True, landmarks=True) -> LabelBundle:
    table = build_landmarks(g, 6)
    return LabelBundle(
        fingerprint=g.fingerprint,
        landmarks=table if landmarks else None,
        hubs=build_hub_labels(g, table) if hubs else None,
    )


@pytest.mark.parametrize("g", [G, G_DIR], ids=["undirected", "directed"])
def test_dist_and_reachable_exact(g):
    index = LabelIndex(g, _bundle(g))
    rng = np.random.default_rng(3)
    refs = {}
    for _ in range(60):
        s, t = map(int, rng.integers(0, g.n, 2))
        if s not in refs:
            refs[s] = dijkstra_reference(g, s)
        d = index.dist(s, t)
        ref = refs[s][t]
        assert d == ref or (np.isinf(d) and np.isinf(ref))
        assert index.reachable(s, t) == bool(np.isfinite(ref))
    assert index.stats["fallbacks"] == 0  # healthy tables: pure label serving


def test_knearest_matches_brute_force():
    index = LabelIndex(G, _bundle(G))
    sources = list(range(0, G.n, 5))
    t = 7
    got = index.knearest(t, sources, 6)
    ref = sorted(
        (float(dijkstra_reference(G, s)[t]), s) for s in sources
    )
    want = [(s, d) for d, s in ref if np.isfinite(d)][:6]
    assert got == want


def test_landmark_only_index_falls_back_when_bounds_gap():
    index = LabelIndex(G, _bundle(G, hubs=False))
    ref = dijkstra_reference(G, 3)
    for t in range(0, G.n, 17):
        d = index.dist(3, t)
        assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t]))
    # some answers pinched (landmark-served), the rest took the fallback
    st = index.stats
    assert st["landmark_served"] + st["fallbacks"] == st["lookups"]


def test_corrupt_lookup_degrades_bit_identically():
    install_injector(
        FaultPlan.single("labels.lookup", "corrupt", at=tuple(range(64)))
    )
    index = LabelIndex(G, _bundle(G))
    ref = dijkstra_reference(G, 5)
    for t in range(0, G.n, 9):
        d = index.dist(5, t)
        assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t]))
    st = index.stats
    assert st["bound_violations"] > 0
    assert st["fallbacks"] == st["bound_violations"]
    assert st["hub_served"] == 0  # every corrupted answer was caught


def test_injected_lookup_exception_falls_back():
    install_injector(FaultPlan.single("labels.lookup", "exception", at=(0, 1)))
    index = LabelIndex(G, _bundle(G))
    ref = dijkstra_reference(G, 2)
    for t in (9, 10, 11):
        d = index.dist(2, t)
        assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t]))
    assert index.stats["injected_faults"] == 2
    assert index.stats["hub_served"] == 1  # the un-faulted lookup served


def test_stale_bundle_refuses_every_entry_point():
    bundle = _bundle(G)
    index = LabelIndex(G, bundle)
    assert np.isfinite(index.dist(0, 1)) or True  # serving while fresh
    bundle.mark_stale()
    with pytest.raises(LabelFormatError, match="stale"):
        index.dist(0, 1)
    with pytest.raises(LabelFormatError, match="stale"):
        index.reachable(0, 1)
    with pytest.raises(LabelFormatError, match="stale"):
        index.knearest(1, [0, 2], 1)


def test_mismatched_bundle_rejected_at_construction():
    other = rmat(8, 8, seed=77)
    with pytest.raises(LabelFormatError):
        LabelIndex(other, _bundle(G))


def test_vertex_validation():
    index = LabelIndex(G, _bundle(G))
    with pytest.raises(ParameterError):
        index.dist(-1, 0)
    with pytest.raises(ParameterError):
        index.dist(0, G.n)
    with pytest.raises(ParameterError):
        index.knearest(0, [0], 0)


def test_external_fallback_is_used():
    calls = []

    def fallback(s):
        calls.append(s)
        return dijkstra_reference(G, s)

    index = LabelIndex(G, _bundle(G, hubs=False), fallback=fallback)
    index.dist(4, 9)
    # landmark-only with a gap → the engine-supplied fallback row was used
    assert calls == [4] or calls == []  # pinched bounds skip the fallback
    if not calls:  # force a fallback through a corrupt directive
        install_injector(FaultPlan.single("labels.lookup", "exception", at=(1,)))
        index.dist(4, 9)
        assert calls == [4]
