"""The kernel layer must not move a single simulated-machine number.

The vectorised kernels (:mod:`repro.runtime.kernels`) only change how each
relaxation batch executes — *which* vertices/edges/successes each step counts
is semantics and must stay bit-identical.  Two guards:

* golden snapshots: per-step ``StepRecord`` fields and the SHA-256 of the
  final distance array, captured from the pre-kernel implementation on the
  GE/OK/TW tiny stand-ins, for the three production algorithms and all four
  baselines;
* mode invariance: adaptive dispatch vs :func:`~repro.runtime.kernels.fallback_mode`
  (the pre-kernel NumPy idioms) produce identical records live.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.galois import galois_delta_stepping
from repro.baselines.gapbs import gapbs_delta_stepping
from repro.baselines.julienne import julienne_delta_stepping
from repro.baselines.ligra import ligra_bellman_ford
from repro.core.algorithms import bellman_ford, delta_star_stepping, rho_stepping
from repro.datasets import load_dataset
from repro.runtime.kernels import fallback_mode

DATA = Path(__file__).resolve().parents[1] / "data"


def _snapshot(result) -> dict:
    steps = [
        {
            "index": s.index,
            "theta": None if np.isnan(s.theta) else s.theta,
            "mode": s.mode,
            "frontier": s.frontier,
            "edges": s.edges,
            "relax_success": s.relax_success,
            "extract_scanned": s.extract_scanned,
            "pq_touches": s.pq_touches,
            "sample_work": s.sample_work,
            "waves": s.waves,
            "max_task": s.max_task,
        }
        for s in result.stats.steps
    ]
    return {
        "steps": steps,
        "dist_sha256": hashlib.sha256(result.dist.tobytes()).hexdigest(),
        "dist_sum": float(result.dist[np.isfinite(result.dist)].sum()),
    }


def _assert_matches(got: dict, want: dict, label: str) -> None:
    assert len(got["steps"]) == len(want["steps"]), f"{label}: step count changed"
    for i, (a, b) in enumerate(zip(got["steps"], want["steps"])):
        assert a == b, f"{label}: step {i} diverged: {a} != {b}"
    assert got["dist_sha256"] == want["dist_sha256"], f"{label}: distances changed"


@pytest.fixture(scope="module")
def ge_tiny():
    return load_dataset("GE", "tiny", cache=False)


_GE_CASES = {
    "PQ-rho": lambda g: rho_stepping(g, 0, rho=64, seed=12345),
    "PQ-delta": lambda g: delta_star_stepping(g, 0, 2048.0, seed=12345),
    "PQ-BF": lambda g: bellman_ford(g, 0, seed=12345),
    "gapbs": lambda g: gapbs_delta_stepping(g, 0, 2048.0),
    "julienne": lambda g: julienne_delta_stepping(g, 0, 2048.0),
    "galois": lambda g: galois_delta_stepping(g, 0, 2048.0),
    "ligra": lambda g: ligra_bellman_ford(g, 0),
}


class TestGoldenGETiny:
    """Bit-identical to the pre-kernel implementation on the GE stand-in."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA / "golden_steprecords_GE-tiny.json") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("label", sorted(_GE_CASES))
    def test_step_records_unchanged(self, ge_tiny, golden, label):
        got = _snapshot(_GE_CASES[label](ge_tiny))
        _assert_matches(got, golden["runs"][label], label)


class TestGoldenScaleFree:
    """Same guard on the scale-free stand-ins (exercises dense extraction)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA / "golden_steprecords_scalefree-tiny.json") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("gname", ["OK", "TW"])
    @pytest.mark.parametrize("label", ["PQ-rho", "PQ-delta", "PQ-BF", "gapbs"])
    def test_step_records_unchanged(self, golden, gname, label):
        g = load_dataset(gname, "tiny", cache=False)
        fns = {
            "PQ-rho": lambda: rho_stepping(g, 0, rho=64, seed=777),
            "PQ-delta": lambda: delta_star_stepping(g, 0, 65536.0, seed=777),
            "PQ-BF": lambda: bellman_ford(g, 0, seed=777),
            "gapbs": lambda: gapbs_delta_stepping(g, 0, 65536.0),
        }
        got = _snapshot(fns[label]())
        _assert_matches(got, golden[gname]["runs"][label], f"{gname}/{label}")

    def test_dense_mode_covered(self, golden):
        # The golden runs must keep exercising the dense extraction arm;
        # if parameters drift such that it disappears, the guard weakens.
        modes = {
            s["mode"]
            for gname in ("OK", "TW")
            for run in golden[gname]["runs"].values()
            for s in run["steps"]
        }
        assert "dense" in modes


class TestModeInvariance:
    """Tuned dispatch vs forced fallback: identical records, live."""

    @pytest.mark.parametrize("label", ["PQ-rho", "PQ-delta", "gapbs", "julienne"])
    def test_fallback_equals_auto(self, ge_tiny, label):
        auto = _snapshot(_GE_CASES[label](ge_tiny))
        with fallback_mode():
            fb = _snapshot(_GE_CASES[label](ge_tiny))
        _assert_matches(auto, fb, label)
