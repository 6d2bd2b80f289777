"""Dynamic-update benchmark: incremental repair vs recompute-from-scratch.

For two stand-in graphs (OK scale-free, GE road) and two policies (PQ-ρ,
PQ-Δ*), applies edge-update batches of increasing size to a warm SSSP
result and times:

* **recompute** — a fresh :func:`~repro.core.stepping_sssp` run on the
  updated graph (what the serving stack did before ``repro/dynamic``);
* **repair** — :func:`~repro.dynamic.incremental_sssp` from the warm
  pre-update distances (cone invalidation + seeded drain through the same
  policy).

Every repair's distances are asserted **bit-identical** to the fresh
recompute inside the benchmark (``np.array_equal`` — repair that changes
answers is not repair).  Reported per row: batch size, resolved edge
deltas, cone size, repair seeds, both times (best of ``REPS`` after a
warm-up), and the speedup.  The full run asserts the headline acceptance
number: >= 3x repair-vs-recompute speedup for the smallest batch size on
at least one dataset, over the rows whose batch invalidated a non-empty
cone.  (A batch that leaves every warm distance standing — cone 0, no
seeds — returns the warm copy without a drain; its 100x+ speedup says
nothing about repairing a changed tree.)

Results land in ``BENCH_dynamic.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py            # full run
    PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke    # CI-sized
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
from repro.core.policies import DeltaStarPolicy, RhoPolicy
from repro.datasets import load_dataset
from repro.dynamic import UpdateBatch, apply_resolved, incremental_sssp, resolve_updates

REPO_ROOT = Path(__file__).resolve().parents[1]

GRAPHS = ["OK", "GE"]

#: (label, policy factory) — one ρ and one Δ* configuration.
ALGOS = [
    ("PQ-rho", lambda: RhoPolicy(2**10)),
    ("PQ-delta*", lambda: DeltaStarPolicy(2.0**14)),
]

#: Update-batch sizes (edge operations per batch).
BATCH_SIZES = [2, 8, 32, 128]

#: Timed repeats per cell (the minimum is reported, after one warm-up).
REPS = 3


def make_batch(graph, size: int, rng) -> UpdateBatch:
    """A mixed batch of ``size`` ops against edges that mostly exist."""
    es, ix, w = graph.edge_sources, graph.indices, graph.weights
    lo, hi = float(w.min()), float(w.max())
    ins, dels, rews = [], [], []
    for _ in range(size):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            u = int(rng.integers(0, graph.n))
            v = int(rng.integers(0, graph.n))
            if u == v:
                v = (v + 1) % graph.n
            ins.append((u, v, float(rng.uniform(lo, hi))))
        elif kind == 1:
            e = int(rng.integers(0, graph.m))
            dels.append((int(es[e]), int(ix[e])))
        else:
            e = int(rng.integers(0, graph.m))
            rews.append((int(es[e]), int(ix[e]), float(rng.uniform(lo, hi))))
    return UpdateBatch(inserts=ins, deletes=dels, reweights=rews)


def bench_cell(graph, gname, algo_label, make_policy, batch_size, rng) -> dict:
    source = 0
    warm = stepping_sssp(graph, source, make_policy(), seed=0)
    resolved = resolve_updates(graph, make_batch(graph, batch_size, rng))
    updated = apply_resolved(graph, resolved)
    updated.degrees, updated.edge_sources  # warm CSR caches outside timings

    recompute_s = float("inf")
    fresh = None
    for _ in range(REPS + 1):  # first iteration is the warm-up
        t0 = time.perf_counter()
        fresh = stepping_sssp(updated, source, make_policy(), seed=0)
        recompute_s = min(recompute_s, time.perf_counter() - t0)

    repair_s = float("inf")
    rep = None
    for _ in range(REPS + 1):
        t0 = time.perf_counter()
        rep = incremental_sssp(
            updated, resolved, warm, policy=make_policy(), seed=0
        )
        repair_s = min(repair_s, time.perf_counter() - t0)
        if not np.array_equal(rep.dist, fresh.dist):
            raise AssertionError(
                f"{gname}/{algo_label}/b={batch_size}: repaired distances "
                "differ from the fresh recompute"
            )

    return {
        "graph": gname, "algorithm": algo_label, "batch_size": batch_size,
        "edges_changed": resolved.size,
        "decrease_only": bool(rep.params["decrease_only"]),
        "cone": int(rep.params["cone"]),
        "seeds": int(rep.params["seeds"]),
        "repair_seconds": repair_s,
        "recompute_seconds": recompute_s,
        "speedup": recompute_s / repair_s if repair_s else float("inf"),
        "distances_equal": True,  # asserted above; recorded for the JSON
    }


def render(result: dict) -> str:
    lines = ["-- incremental repair vs fresh recompute (bit-equality asserted) --",
             f"{'graph':<7}{'algorithm':<11}{'batch':>6}{'delta':>7}{'cone':>8}"
             f"{'seeds':>8}{'repair':>10}{'recompute':>11}{'speedup':>9}"]
    for r in result["rows"]:
        lines.append(
            f"{r['graph']:<7}{r['algorithm']:<11}{r['batch_size']:>6}"
            f"{r['edges_changed']:>7}{r['cone']:>8}{r['seeds']:>8}"
            f"{r['repair_seconds'] * 1e3:>8.1f}ms"
            f"{r['recompute_seconds'] * 1e3:>9.1f}ms{r['speedup']:>8.1f}x"
        )
    lines.append("")
    lines.append(f"equality: {result['equality_checks']} repairs, all "
                 "bit-identical to the fresh recompute on the updated graph")
    best = result["best_small_batch_speedup"]
    lines.append("best small-batch speedup (cone > 0): "
                 + ("n/a" if best is None else f"{best:.1f}x"))
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: tiny graphs, two batch sizes, no "
                         "speedup floor (timing noise dominates tiny graphs)")
    ap.add_argument("--scale", default=None, choices=["tiny", "small", "default"],
                    help="dataset scale (default: small; smoke: tiny)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_dynamic.json",
                    help="output JSON path (default: repo root)")
    args = ap.parse_args(argv)

    scale = args.scale or ("tiny" if args.smoke else "small")
    sizes = BATCH_SIZES[:2] if args.smoke else BATCH_SIZES

    rows = []
    for gname in GRAPHS:
        graph = load_dataset(gname, scale)
        graph.degrees, graph.edge_sources  # warm CSR caches
        rng = np.random.default_rng(42)
        for algo_label, make_policy in ALGOS:
            for b in sizes:
                rows.append(bench_cell(graph, gname, algo_label, make_policy, b, rng))

    small = min(sizes)
    best_small = max(
        (r["speedup"] for r in rows if r["batch_size"] == small and r["cone"] > 0),
        default=None,
    )
    result = {
        "bench": "dynamic",
        "mode": "smoke" if args.smoke else "full",
        "scale": scale,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rows": rows,
        "equality_checks": (REPS + 1) * len(rows),  # every repair is asserted
        "best_small_batch_speedup": best_small,
    }
    print(render(result))
    if not args.smoke and best_small is None:
        raise AssertionError(
            f"acceptance floor untestable: no batch={small} row invalidated a "
            "non-empty cone"
        )
    if not args.smoke and best_small < 3.0:
        raise AssertionError(
            f"acceptance floor missed: best batch={small} repair speedup with "
            f"a non-empty cone is {best_small:.2f}x, need >= 3x on at least "
            "one dataset"
        )
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
