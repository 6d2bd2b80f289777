"""Hot-path kernel benchmark: seed NumPy idioms vs the vectorised kernel layer.

Times the three relaxation-wave primitives (scatter-min, frontier dedup, edge
gather) at frontier sizes from 1e3 to 1e6, plus end-to-end PQ-rho / PQ-delta
runs on the GE/TW stand-ins with adaptive dispatch vs
:func:`repro.runtime.kernels.fallback_mode` (the pre-kernel idioms).  The
end-to-end comparison also asserts both modes execute the identical step
sequence — the kernels must only move wall clock, never counts.

Results land in ``BENCH_hotpath.json`` (first point of the perf trajectory;
see DESIGN.md "Kernel layer & perf methodology").  Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpath.py --compare BENCH_hotpath.json

``--compare`` re-runs the benchmark and reports the speedup ratio against a
previously stored JSON, failing (exit 1) if any end-to-end case regressed by
more than 25%.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.algorithms import delta_star_stepping, rho_stepping
from repro.datasets import load_dataset
from repro.graphs.generators import rmat
from repro.runtime import kernels
from repro.runtime.kernels import Workspace, fallback_mode, gather_edges, unique_ids

REPO_ROOT = Path(__file__).resolve().parents[1]

FULL_SIZES = [1 << 10, 1 << 13, 1 << 16, 1 << 20]
SMOKE_SIZES = [1 << 10, 1 << 13]

# End-to-end cases: (graph, scale-invariant params).  Deltas match the golden
# regression runs; rho is the package default order of magnitude.
E2E_CASES = [
    ("GE", "PQ-rho", lambda g: rho_stepping(g, 0, rho=1 << 13, seed=12345)),
    ("GE", "PQ-delta", lambda g: delta_star_stepping(g, 0, 2048.0, seed=12345)),
    ("TW", "PQ-rho", lambda g: rho_stepping(g, 0, rho=1 << 13, seed=777)),
    ("TW", "PQ-delta", lambda g: delta_star_stepping(g, 0, 65536.0, seed=777)),
]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------- #
# Microkernels
# --------------------------------------------------------------------------- #


def bench_micro(sizes: list[int], repeats: int) -> list[dict]:
    """Seed idiom vs kernel path for each primitive at each batch size."""
    rows = []
    rng = np.random.default_rng(0xBE7C)
    for k in sizes:
        n = 4 * k
        targets = rng.integers(0, n, size=k).astype(np.int64)
        cands = rng.random(k) * 1e6
        values = rng.random(n) * 1e6
        ws = Workspace(n)

        # scatter-min: seed idiom (gather old + np.minimum.at, as the pre-kernel
        # write_min did) vs adaptive dispatch (which also returns old).
        def seed_scatter():
            v = values.copy()
            v[targets]
            np.minimum.at(v, targets, cands)

        seed_t = _best_of(seed_scatter, repeats)
        kern_t = _best_of(lambda: kernels.scatter_min(values.copy(), targets, cands), repeats)
        rows.append({"kernel": "scatter_min", "k": k, "n": n,
                     "seed_ms": seed_t * 1e3, "kernel_ms": kern_t * 1e3,
                     "speedup": seed_t / kern_t if kern_t else float("inf")})

        # dedup: np.unique (seed) vs mark-bits + flatnonzero.
        seed_t = _best_of(lambda: np.unique(targets), repeats)
        kern_t = _best_of(lambda: unique_ids(targets, n, workspace=ws), repeats)
        rows.append({"kernel": "dedup", "k": k, "n": n,
                     "seed_ms": seed_t * 1e3, "kernel_ms": kern_t * 1e3,
                     "speedup": seed_t / kern_t if kern_t else float("inf")})

        # gather: textbook cumsum + double-repeat vs cached degrees + one repeat.
        scale = max(6, int(np.log2(max(k, 2))) - 2)
        g = rmat(scale, 8, directed=True, seed=9)
        frontier = np.sort(rng.choice(g.n, size=min(k, g.n), replace=False)).astype(np.int64)
        g.degrees  # warm the cache; the seed path never had one to warm

        def seed_gather():
            with fallback_mode():
                gather_edges(g, frontier)

        seed_t = _best_of(seed_gather, repeats)
        kern_t = _best_of(lambda: gather_edges(g, frontier), repeats)
        rows.append({"kernel": "gather", "k": int(frontier.size), "n": g.n,
                     "seed_ms": seed_t * 1e3, "kernel_ms": kern_t * 1e3,
                     "speedup": seed_t / kern_t if kern_t else float("inf")})
    return rows


# --------------------------------------------------------------------------- #
# End-to-end
# --------------------------------------------------------------------------- #


def bench_e2e(scale: str, repeats: int) -> list[dict]:
    """Full PQ-rho / PQ-delta runs, fallback idioms vs adaptive kernels."""
    rows = []
    for gname, label, fn in E2E_CASES:
        g = load_dataset(gname, scale)
        # Warm run in each mode also provides the step-identity check.
        auto_res = fn(g)
        with fallback_mode():
            fb_res = fn(g)
        if len(auto_res.stats.steps) != len(fb_res.stats.steps):
            raise AssertionError(
                f"{gname}/{label}: step count differs between modes "
                f"({len(auto_res.stats.steps)} vs {len(fb_res.stats.steps)})"
            )
        for a, b in zip(auto_res.stats.steps, fb_res.stats.steps):
            if (a.frontier, a.edges, a.relax_success, a.pq_touches) != (
                b.frontier, b.edges, b.relax_success, b.pq_touches
            ):
                raise AssertionError(f"{gname}/{label}: step {a.index} counts differ")

        def run_fb():
            with fallback_mode():
                fn(g)

        fb_t = _best_of(run_fb, repeats)
        auto_t = _best_of(lambda: fn(g), repeats)
        rows.append({
            "graph": gname, "scale": scale, "algorithm": label,
            "steps": len(auto_res.stats.steps),
            "edges_relaxed": int(sum(s.edges for s in auto_res.stats.steps)),
            "fallback_s": fb_t, "kernel_s": auto_t,
            "speedup": fb_t / auto_t if auto_t else float("inf"),
        })
    return rows


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #


def render(result: dict) -> str:
    lines = ["-- microkernels (best-of timings, seed idiom vs kernel layer) --",
             f"{'kernel':<12}{'k':>9}{'n':>9}{'seed ms':>10}{'kernel ms':>11}{'speedup':>9}"]
    for r in result["micro"]:
        lines.append(f"{r['kernel']:<12}{r['k']:>9}{r['n']:>9}"
                     f"{r['seed_ms']:>10.3f}{r['kernel_ms']:>11.3f}{r['speedup']:>8.2f}x")
    lines.append("")
    lines.append("-- end-to-end (identical step sequences verified) --")
    lines.append(f"{'graph':<7}{'algorithm':<10}{'steps':>6}{'fallback s':>12}"
                 f"{'kernel s':>10}{'speedup':>9}")
    for r in result["e2e"]:
        lines.append(f"{r['graph']:<7}{r['algorithm']:<10}{r['steps']:>6}"
                     f"{r['fallback_s']:>12.4f}{r['kernel_s']:>10.4f}{r['speedup']:>8.2f}x")
    return "\n".join(lines)


def compare(result: dict, baseline_path: Path) -> int:
    try:
        base = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 1
    print(f"\n-- comparison vs {baseline_path} --")
    worst = 1.0
    for r in result["e2e"]:
        match = [b for b in base.get("e2e", [])
                 if b["graph"] == r["graph"] and b["algorithm"] == r["algorithm"]
                 and b.get("scale") == r["scale"]]
        if not match:
            print(f"{r['graph']}/{r['algorithm']}: no baseline entry")
            continue
        ratio = match[0]["kernel_s"] / r["kernel_s"] if r["kernel_s"] else float("inf")
        worst = min(worst, ratio)
        print(f"{r['graph']}/{r['algorithm']}: {match[0]['kernel_s']:.4f}s -> "
              f"{r['kernel_s']:.4f}s ({ratio:.2f}x vs baseline)")
    if worst < 0.75:
        print(f"REGRESSION: slowest case at {worst:.2f}x of baseline (threshold 0.75x)")
        return 1
    return 0


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: small batches, tiny graphs, 1 repeat")
    ap.add_argument("--compare", metavar="BASELINE", type=Path,
                    help="compare end-to-end timings against a stored JSON")
    ap.add_argument("--scale", default=None, choices=["tiny", "small", "default"],
                    help="dataset scale for end-to-end runs (default: small; smoke: tiny)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_hotpath.json",
                    help="output JSON path (default: repo root BENCH_hotpath.json)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="best-of repeats per timing (default: 5; smoke: 2)")
    args = ap.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    scale = args.scale or ("tiny" if args.smoke else "small")
    repeats = args.repeats or (2 if args.smoke else 5)

    th = kernels.thresholds()
    result = {
        "bench": "hotpath",
        "mode": "smoke" if args.smoke else "full",
        "scale": scale,
        "repeats": repeats,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "thresholds": dataclasses.asdict(th),
        "micro": bench_micro(sizes, repeats),
        "e2e": bench_e2e(scale, repeats),
    }
    print(render(result))

    rc = 0
    if args.compare:
        rc = compare(result, args.compare)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
