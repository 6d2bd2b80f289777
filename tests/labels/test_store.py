"""`.labels` artifact + in-memory store: round-trips, self-heal, staleness."""

import numpy as np
import pytest

from repro.graphs import rmat
from repro.labels import (
    FORMAT_VERSION,
    LabelBundle,
    LabelStore,
    build_hub_labels,
    build_landmarks,
    load_labels,
    load_or_none,
    save_labels,
)
from repro.serving.cache import graph_id
from repro.utils.errors import LabelFormatError

G = rmat(7, 8, seed=13)
G_DIR = rmat(7, 6, seed=14, directed=True)


def _bundle(g) -> LabelBundle:
    table = build_landmarks(g, 5)
    return LabelBundle(
        fingerprint=g.fingerprint,
        landmarks=table,
        hubs=build_hub_labels(g, table),
        meta={"note": "test"},
    )


@pytest.mark.parametrize("g", [G, G_DIR], ids=["undirected", "directed"])
def test_round_trip_exact(tmp_path, g):
    bundle = _bundle(g)
    path = save_labels(tmp_path / "g.labels", bundle)
    loaded = load_labels(path, graph=g)
    assert loaded.fingerprint == g.fingerprint
    assert loaded.meta == {"note": "test"}
    assert np.array_equal(loaded.landmarks.dist_from, bundle.landmarks.dist_from)
    assert np.array_equal(loaded.hubs.out_hubs, bundle.hubs.out_hubs)
    assert np.array_equal(loaded.hubs.out_dists, bundle.hubs.out_dists)
    # aliasing is preserved: one stored copy for undirected tables
    assert (loaded.landmarks.dist_to is loaded.landmarks.dist_from) == (
        not g.directed
    )
    assert (loaded.hubs.in_hubs is loaded.hubs.out_hubs) == (not g.directed)


def test_atomic_write_leaves_no_temp(tmp_path):
    save_labels(tmp_path / "g.labels", _bundle(G))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "g.labels"]
    assert leftovers == []


def test_truncated_artifact_self_heals(tmp_path):
    path = save_labels(tmp_path / "g.labels", _bundle(G))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(LabelFormatError, match="corrupt|unreadable"):
        load_labels(path, graph=G)
    with pytest.warns(RuntimeWarning, match="rejected"):
        assert load_or_none(path, graph=G) is None


def test_garbage_artifact_self_heals(tmp_path):
    path = tmp_path / "g.labels"
    path.write_bytes(b"this is not a zip file at all")
    with pytest.warns(RuntimeWarning, match="rejected"):
        assert load_or_none(path, graph=G) is None


def test_missing_artifact_is_none(tmp_path):
    assert load_or_none(tmp_path / "absent.labels", graph=G) is None


def test_wrong_graph_rejected(tmp_path):
    path = save_labels(tmp_path / "g.labels", _bundle(G))
    other = rmat(7, 8, seed=99)
    with pytest.raises(LabelFormatError, match="fingerprint|vertices"):
        load_labels(path, graph=other)
    with pytest.warns(RuntimeWarning, match="rejected"):
        assert load_or_none(path, graph=other) is None


def test_version_skew_rejected(tmp_path, monkeypatch):
    import repro.labels.store as store_mod

    path = save_labels(tmp_path / "g.labels", _bundle(G))
    monkeypatch.setattr(store_mod, "FORMAT_VERSION", FORMAT_VERSION + 1)
    with pytest.raises(LabelFormatError, match="version"):
        load_labels(path, graph=G)


def test_doctored_payload_rejected_by_validation(tmp_path):
    # A structurally valid npz whose distances were tampered with must be
    # caught by table validation, not served.
    bad = _bundle(G)
    path = save_labels(tmp_path / "g.labels", bad)
    loaded = load_labels(path)  # no graph: fingerprint unchecked here
    loaded.hubs.out_dists[0] = -5.0
    save_path = tmp_path / "doctored.labels"
    with pytest.raises(LabelFormatError):
        save_labels(save_path, loaded)  # save validates too
    with pytest.raises(LabelFormatError):
        loaded.validate(G)


def test_empty_bundle_rejected(tmp_path):
    with pytest.raises(LabelFormatError, match="neither"):
        save_labels(tmp_path / "g.labels", LabelBundle(fingerprint=G.fingerprint))


def test_landmarks_only_round_trip(tmp_path):
    bundle = LabelBundle(
        fingerprint=G.fingerprint, landmarks=build_landmarks(G, 4)
    )
    loaded = load_labels(save_labels(tmp_path / "lm.labels", bundle), graph=G)
    assert loaded.has_landmarks and not loaded.has_hubs


def test_store_invalidate_marks_stale():
    store = LabelStore()
    bundle = _bundle(G)
    key = LabelStore.key(G)
    store.put(key, bundle)
    assert store.get(key) is bundle
    dropped = store.invalidate(graph_id(G), G.fingerprint)
    assert list(dropped.values()) == [bundle]
    assert bundle.stale
    assert store.get(key) is None
    with pytest.raises(LabelFormatError, match="stale"):
        bundle.require_fresh()


def test_require_fresh_checks_fingerprint():
    bundle = _bundle(G)
    bundle.require_fresh(G)  # fresh + matching: fine
    other = rmat(7, 8, seed=55)
    with pytest.raises(LabelFormatError, match="does not match"):
        bundle.require_fresh(other)
