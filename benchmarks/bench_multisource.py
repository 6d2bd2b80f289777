"""Multi-source batch benchmark: scalar loop vs batch engines vs pooled serving.

Answers K SSSP queries on one graph four ways and reports queries/second:

* **scalar** — the baseline serial loop, one metered scalar run per source
  (what ``average_simulated_time`` did before this layer existed);
* **exact-batch** — the lockstep :func:`batch_stepping_sssp` replay (shared
  relaxation wave, per-lane PQs, bit-for-bit StepRecord streams);
* **fast-batch** — the dense :mod:`repro.serving.fastpath` engine (identical
  distances, no accounting);
* **pooled** — the chunked fast path fanned out through a persistent
  :class:`~repro.serving.BatchPool` (graph installed once per worker,
  result rows pickled home).

Distance equality against the scalar loop is asserted inside the benchmark
for **every** variant — a speedup that changes answers is not a speedup.

Results land in ``BENCH_multisource.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_multisource.py            # full run
    PYTHONPATH=src python benchmarks/bench_multisource.py --smoke    # CI-sized

The full run enforces two acceptance criteria: fast-batch must clear 2x the
scalar loop for a 16-source batch on the GE (road-grid) stand-in, and
pooled must clear 1.3x the scalar loop on at least one graph x algorithm
row.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import (
    DEFAULT_RHO,
    bellman_ford,
    bellman_ford_batch,
    delta_star_stepping,
    delta_star_stepping_batch,
    rho_stepping,
    rho_stepping_batch,
)
from repro.datasets import load_dataset
from repro.serving import BatchPool, multi_source_distances
from repro.utils import spawn_generators

REPO_ROOT = Path(__file__).resolve().parents[1]

# (label, algo key for the fast path, param, scalar runner, batch runner).
CASES = [
    ("PQ-rho", "rho", DEFAULT_RHO,
     lambda g, s, p: rho_stepping(g, s, int(p), seed=0),
     lambda g, ss, p: rho_stepping_batch(g, ss, int(p), seed=0)),
    ("PQ-BF", "bf", None,
     lambda g, s, p: bellman_ford(g, s, seed=0),
     lambda g, ss, p: bellman_ford_batch(g, ss, seed=0)),
    ("PQ-delta", "delta", 2048.0,
     lambda g, s, p: delta_star_stepping(g, s, float(p), seed=0),
     lambda g, ss, p: delta_star_stepping_batch(g, ss, float(p), seed=0)),
]


def pick_sources(graph, count: int, seed: int = 1234) -> list[int]:
    rng = spawn_generators(seed, 1)[0]
    candidates = np.flatnonzero(graph.out_degree() > 0)
    take = min(count, len(candidates))
    return [int(v) for v in rng.choice(candidates, size=take, replace=False)]


def _best_of(fn, repeats: int):
    """Best wall time over ``repeats`` runs; returns (seconds, last result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_case(graph, gname, scale, sources, label, algo, param, scalar, batch,
               repeats, jobs):
    K = len(sources)
    graph.degrees  # warm the CSR cache so no variant pays the build

    scalar_t, ref_list = _best_of(
        lambda: [scalar(graph, s, param) for s in sources], repeats
    )
    ref = np.stack([r.dist for r in ref_list])

    exact_t, exact_res = _best_of(lambda: batch(graph, sources, param), repeats)
    exact = np.stack([r.dist for r in exact_res])
    if not np.array_equal(ref, exact):
        raise AssertionError(f"{label}: exact-batch distances differ from scalar loop")

    fast_t, fast = _best_of(
        lambda: multi_source_distances(graph, sources, algo=algo, param=param),
        repeats,
    )
    if not np.array_equal(ref, fast):
        raise AssertionError(f"{label}: fast-batch distances differ from scalar loop")

    # Pooled serving: the chunked fast path through a persistent BatchPool.
    # The pool stays warm across repeats (that is the production shape) and
    # its distances must equal the scalar reference bit for bit.
    with BatchPool(graph, jobs, algo=algo, param=param) as pool:
        pool.health_probe(timeout=60.0)  # absorb worker start-up cost
        pooled_t, pooled = _best_of(lambda: pool.distances(sources), repeats)
    if not np.array_equal(ref, pooled):
        raise AssertionError(f"{label}: pooled distances differ from scalar loop")

    def row(variant, seconds):
        return {
            "graph": gname, "scale": scale, "algorithm": label,
            "variant": variant, "sources": K, "seconds": seconds,
            "qps": K / seconds if seconds else float("inf"),
            "speedup_vs_scalar": scalar_t / seconds if seconds else float("inf"),
        }

    return [
        row("scalar-loop", scalar_t),
        row("exact-batch", exact_t),
        row("fast-batch", fast_t),
        row("pooled", pooled_t),
    ]


def render(result: dict) -> str:
    lines = ["-- multi-source batch (distances verified equal across variants) --",
             f"{'graph':<7}{'algorithm':<11}{'variant':<13}{'K':>4}"
             f"{'seconds':>10}{'q/s':>9}{'speedup':>9}"]
    for r in result["rows"]:
        lines.append(
            f"{r['graph']:<7}{r['algorithm']:<11}{r['variant']:<13}"
            f"{r['sources']:>4}"
            f"{r['seconds']:>10.4f}{r['qps']:>9.1f}{r['speedup_vs_scalar']:>8.2f}x"
        )
    lines.append("")
    for c in (result["criterion"], result["pooled_criterion"]):
        lines.append(
            f"criterion: {c['variant']} {c['measured']:.2f}x vs scalar on "
            f"{c['case']} (need >= {c['required']:.1f}x) -> "
            f"{'PASS' if c['passed'] else 'FAIL'}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: tiny graph, 4 sources, 1 repeat")
    ap.add_argument("--scale", default=None, choices=["tiny", "small", "default"],
                    help="dataset scale (default: small; smoke: tiny)")
    ap.add_argument("--sources", type=int, default=None,
                    help="batch size K (default: 16; smoke: 4)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="pool workers for the pooled variant")
    ap.add_argument("--repeats", type=int, default=None,
                    help="best-of repeats per timing (default: 3; smoke: 1)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_multisource.json",
                    help="output JSON path (default: repo root)")
    args = ap.parse_args(argv)

    scale = args.scale or ("tiny" if args.smoke else "small")
    K = args.sources or (4 if args.smoke else 16)
    repeats = args.repeats or (1 if args.smoke else 3)

    gname = "GE"
    graph = load_dataset(gname, scale)
    sources = pick_sources(graph, K)

    rows = []
    for label, algo, param, scalar, batch in CASES:
        rows.extend(bench_case(graph, gname, scale, sources, label, algo, param,
                               scalar, batch, repeats, args.jobs))

    # Criterion 1: fast batch >= 2x scalar for the rho case.
    fast_rho = next(r for r in rows
                    if r["algorithm"] == "PQ-rho" and r["variant"] == "fast-batch")
    criterion = {
        "case": f"PQ-rho {gname}-{scale} K={K}",
        "variant": "fast-batch",
        "required": 2.0,
        "measured": fast_rho["speedup_vs_scalar"],
        "passed": fast_rho["speedup_vs_scalar"] >= 2.0,
    }

    # Criterion 2: pooled > 1.3x scalar on at least one
    # graph x algorithm row (the pool-plane acceptance bar).
    pooled_rows = [r for r in rows if r["variant"] == "pooled"]
    best_pooled = max(pooled_rows, key=lambda r: r["speedup_vs_scalar"])
    pooled_criterion = {
        "case": f"{best_pooled['algorithm']} {gname}-{scale} K={K}",
        "variant": "pooled",
        "required": 1.3,
        "measured": best_pooled["speedup_vs_scalar"],
        "passed": best_pooled["speedup_vs_scalar"] > 1.3,
    }

    result = {
        "bench": "multisource",
        "mode": "smoke" if args.smoke else "full",
        "scale": scale,
        "sources": K,
        "repeats": repeats,
        "jobs": args.jobs,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rows": rows,
        "criterion": criterion,
        "pooled_criterion": pooled_criterion,
    }
    print(render(result))
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if not args.smoke:
        failed = [c["variant"] for c in (criterion, pooled_criterion)
                  if not c["passed"]]
        if failed:
            print(f"FAIL: below throughput criterion: {', '.join(failed)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
