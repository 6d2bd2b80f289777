"""Label-tier benchmark: precomputation cost vs point-to-point query time.

For the two stand-in datasets (OK scale-free, GE road) this measures:

* **build** — landmark table (ALT bounds) and pruned hub labeling
  construction time, plus the resulting label sizes;
* **query** — per-lookup latency of :class:`~repro.labels.LabelIndex`
  over a random pair sample (best of ``REPS`` sweeps);
* **scalar** — the pre-label baseline for one p2p question: a full
  ρ-stepping SSSP run from the source (best of ``REPS``).

Every label-served distance is asserted **equal** to the stepping
framework's answer inside the benchmark before anything is timed, and the
timed sweeps must finish with zero fallbacks (pure label serving).  The
full run asserts the headline acceptance number: >= 100x p2p speedup over
scalar SSSP on at least one dataset.

Results land in ``BENCH_labels.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_labels.py            # full run
    PYTHONPATH=src python benchmarks/bench_labels.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import stepping_sssp
from repro.core.policies import RhoPolicy
from repro.datasets import load_dataset
from repro.labels import LabelBundle, LabelIndex, build_hub_labels, build_landmarks

REPO_ROOT = Path(__file__).resolve().parents[1]

GRAPHS = ["OK", "GE"]

#: Landmarks per table (capped at n for tiny scales).
NUM_LANDMARKS = 16

#: Timed repeats per measurement (the minimum is reported, after a warm-up).
REPS = 3

#: The scalar baseline policy — the serving stack's default ρ configuration.
SCALAR_RHO = 2**10


def sample_pairs(n: int, count: int, rng) -> "list[tuple[int, int]]":
    s = rng.integers(0, n, count)
    t = rng.integers(0, n, count)
    return [(int(a), int(b)) for a, b in zip(s, t)]


def bench_graph(gname: str, scale: str, num_pairs: int, num_sources: int) -> dict:
    graph = load_dataset(gname, scale)
    graph.degrees, graph.edge_sources  # warm CSR caches outside timings
    rng = np.random.default_rng(7)
    L = min(NUM_LANDMARKS, graph.n)

    t0 = time.perf_counter()
    landmarks = build_landmarks(graph, L, algo="rho", param=SCALAR_RHO)
    landmark_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    hubs = build_hub_labels(graph, landmarks)
    hub_s = time.perf_counter() - t0
    index = LabelIndex(
        graph,
        LabelBundle(fingerprint=graph.fingerprint, landmarks=landmarks, hubs=hubs),
    )

    pairs = sample_pairs(graph.n, num_pairs, rng)

    # Equality gate before any timing: every label answer must match the
    # stepping framework's distance for the same pair.
    rows: "dict[int, np.ndarray]" = {}
    for s, t in pairs:
        if s not in rows:
            rows[s] = stepping_sssp(graph, s, RhoPolicy(SCALAR_RHO), seed=0).dist
        d = index.dist(s, t)
        if d != rows[s][t] and not (np.isinf(d) and np.isinf(rows[s][t])):
            raise AssertionError(
                f"{gname}: label dist({s}, {t}) = {d!r} != stepping {rows[s][t]!r}"
            )
    equality_checks = len(pairs)

    # Timed label sweeps: pure lookups, zero fallbacks allowed.
    fallbacks_before = index.stats["fallbacks"]
    label_total = float("inf")
    for _ in range(REPS + 1):  # first iteration is the warm-up
        t0 = time.perf_counter()
        for s, t in pairs:
            index.dist(s, t)
        label_total = min(label_total, time.perf_counter() - t0)
    if index.stats["fallbacks"] != fallbacks_before:
        raise AssertionError(f"{gname}: timed sweep fell back to SSSP")
    label_query_s = label_total / len(pairs)

    # Scalar baseline: answering one p2p question without labels means one
    # full SSSP run from the source.
    scalar_times = []
    for s in {p[0] for p in pairs[:num_sources]}:
        best = float("inf")
        for _ in range(REPS + 1):
            t0 = time.perf_counter()
            stepping_sssp(graph, s, RhoPolicy(SCALAR_RHO), seed=0)
            best = min(best, time.perf_counter() - t0)
        scalar_times.append(best)
    scalar_query_s = float(np.mean(scalar_times))

    return {
        "graph": gname,
        "n": graph.n,
        "m": graph.m,
        "num_landmarks": L,
        "landmark_build_seconds": landmark_s,
        "hub_build_seconds": hub_s,
        "avg_hub_label_size": hubs.avg_label_size,
        "hub_entries": hubs.total_entries,
        "pairs_timed": len(pairs),
        "label_query_seconds": label_query_s,
        "scalar_query_seconds": scalar_query_s,
        "speedup": scalar_query_s / label_query_s if label_query_s else float("inf"),
        "equality_checks": equality_checks,
        "hub_served": index.stats["hub_served"],
        "landmark_served": index.stats["landmark_served"],
        "fallbacks": index.stats["fallbacks"],
    }


def render(result: dict) -> str:
    lines = ["-- label tier: build once, answer p2p in microseconds "
             "(equality asserted) --",
             f"{'graph':<7}{'n':>8}{'avg|L|':>8}{'lm build':>10}{'hub build':>11}"
             f"{'label q':>10}{'scalar q':>11}{'speedup':>9}"]
    for r in result["rows"]:
        lines.append(
            f"{r['graph']:<7}{r['n']:>8}{r['avg_hub_label_size']:>8.1f}"
            f"{r['landmark_build_seconds']:>9.2f}s{r['hub_build_seconds']:>10.2f}s"
            f"{r['label_query_seconds'] * 1e6:>8.1f}us"
            f"{r['scalar_query_seconds'] * 1e3:>9.2f}ms{r['speedup']:>8.0f}x"
        )
    lines.append("")
    lines.append(f"equality: {result['equality_checks']} label answers, all "
                 "equal to the stepping framework's distances")
    lines.append(f"best p2p speedup: {result['best_speedup']:.0f}x")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: tiny graphs, small pair sample, no "
                         "speedup floor (timing noise dominates tiny graphs)")
    ap.add_argument("--scale", default=None, choices=["tiny", "small", "default"],
                    help="dataset scale (default: small; smoke: tiny)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_labels.json",
                    help="output JSON path (default: repo root)")
    args = ap.parse_args(argv)

    scale = args.scale or ("tiny" if args.smoke else "small")
    num_pairs = 50 if args.smoke else 400
    num_sources = 3 if args.smoke else 8

    rows = [bench_graph(g, scale, num_pairs, num_sources) for g in GRAPHS]

    best = max(r["speedup"] for r in rows)
    result = {
        "bench": "labels",
        "mode": "smoke" if args.smoke else "full",
        "scale": scale,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rows": rows,
        "equality_checks": sum(r["equality_checks"] for r in rows),
        "best_speedup": best,
    }
    print(render(result))
    if not args.smoke and best < 100.0:
        raise AssertionError(
            f"acceptance floor missed: best p2p speedup is {best:.1f}x, "
            "need >= 100x over scalar SSSP on at least one dataset"
        )
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
