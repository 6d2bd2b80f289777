"""Serving-front-door benchmark: throughput, latency SLOs, overload shedding.

Drives the asyncio :class:`~repro.serving.server.ShortestPathServer` with
the open-loop load generator (:mod:`repro.serving.loadgen`) on two stand-in
graphs and reports, per (graph, profile):

* **achieved qps vs the scalar loop** — the scalar baseline is the
  popularity-weighted throughput of a one-scalar-run-per-request loop,
  timed from the same runs that produce the distance-equality oracle; the
  steady profile must beat it by >= 4x.
* **latency percentiles of admitted requests** (p50/p95/p99/max ms) and the
  fraction meeting their deadline (``slo_attained``).
* **overload behaviour** — the ``overload`` profile offers 2x the
  calibrated execution capacity at a bounded queue: the server must shed at
  admission (typed ``OverloadError``; ``shed > 0``) while the p95 of the
  requests it *did* admit stays within their deadline, with no queue
  growth beyond the bound.

Distance equality is asserted *inside the run*: every successful response
is compared bit-for-bit with the scalar reference for its source
(``mismatches`` must be 0) — a front door that changes answers is not a
front door.

Every gate of every (graph, profile) row is evaluated; the misses are
reported together on stderr and the run exits 1 without writing the
report, so one failing gate never hides another.  Results land in
``BENCH_serving.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.serving.admission import AdmissionController
from repro.serving.loadgen import (
    LoadProfile,
    build_reference,
    run_profile,
    source_pool,
    zipf_weights,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

GRAPHS = ["OK", "GE"]

ALGO, PARAM = "rho", None


def profiles(smoke: bool) -> "list[tuple[LoadProfile, dict, dict]]":
    """(profile, engine kwargs, server kwargs) triples.

    The overload profile models *cold* traffic — 64 near-uniform sources at
    2x the calibrated execution capacity, with the result cache pinned to a
    few entries so offered load actually reaches the execution path (a
    256-entry cache would swallow a 64-source pool after one warm lap and
    nothing would ever overload) — and a deliberately small bounded queue
    so shedding, not queueing, is the pressure valve.
    """
    duration = 0.8 if smoke else 2.5
    steady = LoadProfile(
        "steady", duration=duration, rate_factor=0.5,
        num_sources=16, alpha=1.1, deadline=0.5, seed=1,
    )
    overload = LoadProfile(
        "overload", duration=duration, rate_factor=2.0,
        num_sources=64, alpha=0.3, deadline=0.6, seed=2,
    )
    # Small batches bound per-flush service time (a cold road-graph batch of
    # 16 approaches the deadline by itself), and slack=1.5 makes the
    # feasibility check conservative: requests that *might* just squeak in
    # are shed instead, keeping the p95 of admitted requests comfortably
    # inside the deadline under overload.
    overload_admission = AdmissionController(max_queue=64, max_batch=8, slack=1.5)
    return [
        (steady, {}, {}),
        (
            overload,
            {"cache_size": 8},
            {"max_batch": 8, "max_queue": 64, "admission": overload_admission},
        ),
    ]


def gate_failures(gname: str, prof: LoadProfile, rep: dict, server_kwargs: dict) -> "list[str]":
    """Every gate one (graph, profile) row misses, as messages."""
    failed = []
    if rep["mismatches"] != 0:
        failed.append(
            f"{gname}/{prof.name}: {rep['mismatches']} responses disagreed "
            f"with the scalar reference"
        )
    if prof.name == "steady":
        if not rep["speedup_vs_scalar"] >= 4.0:
            failed.append(
                f"{gname}/steady: {rep['speedup_vs_scalar']:.1f}x vs the "
                f"scalar loop, need >= 4x"
            )
        if rep["shed"] != 0:
            failed.append(f"{gname}/steady shed {rep['shed']} requests")
        return failed
    if not rep["shed"] > 0:
        failed.append(f"{gname}/overload shed nothing at 2x capacity")
    p95 = rep["latency_ms"]["p95"]
    if not (rep["completed"] > 0 and p95 is not None):
        failed.append(f"{gname}/overload admitted nothing")
    elif not p95 <= rep["deadline_ms"]:
        failed.append(
            f"{gname}/overload p95 of admitted requests {p95:.1f} ms "
            f"blew the {rep['deadline_ms']:.0f} ms deadline"
        )
    if not rep["queue_peak"] <= server_kwargs["max_queue"]:
        failed.append(f"{gname}/overload queue grew past the bound")
    return failed


def bench_graph(gname: str, smoke: bool) -> "tuple[list[dict], list[str]]":
    """Rows of every profile on one graph, and the gates they missed."""
    graph = load_dataset(gname)
    rows, failed = [], []
    for prof, engine_kwargs, server_kwargs in profiles(smoke):
        pool = source_pool(graph, prof.num_sources)
        weights = zipf_weights(len(pool), prof.alpha)
        reference, scalar_qps = build_reference(
            graph, pool, weights, algo=ALGO, param=PARAM
        )
        rep = asyncio.run(run_profile(
            graph, prof, algo=ALGO, param=PARAM, pool=pool,
            reference=reference, scalar_qps=scalar_qps,
            engine_kwargs=engine_kwargs, server_kwargs=server_kwargs,
        ))
        rep["graph"] = gname
        failed += gate_failures(gname, prof, rep, server_kwargs)
        rows.append(rep)
        lat = rep["latency_ms"]
        print(
            f"  {gname:3s} {prof.name:8s} offered={rep['offered_qps']:8.1f}/s "
            f"achieved={rep['achieved_qps']:8.1f}/s "
            f"scalar={rep['scalar_qps']:7.1f}/s "
            f"({rep['speedup_vs_scalar']:5.1f}x)  "
            f"p95={lat['p95'] if lat['p95'] is None else round(lat['p95'], 1)} ms  "
            f"shed={rep['shed']} expired={rep['expired']} "
            f"mism={rep['mismatches']}"
        )
        sys.stdout.flush()
    return rows, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="CI-sized run")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_serving.json"))
    args = ap.parse_args()

    graphs = GRAPHS[:1] if args.smoke else GRAPHS
    all_rows, failed = [], []
    for gname in graphs:
        print(f"{gname}:")
        rows, missed = bench_graph(gname, args.smoke)
        all_rows.extend(rows)
        failed.extend(missed)

    if failed:
        # Every gate of every profile ran; report them all, write nothing.
        print(f"FAILED {len(failed)} gate(s):", file=sys.stderr)
        for msg in failed:
            print(f"  {msg}", file=sys.stderr)
        return 1

    report = {
        "bench": "serving",
        "mode": "smoke" if args.smoke else "full",
        "scale": __import__("os").environ.get("REPRO_SCALE", "small"),
        "algo": ALGO,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rows": all_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {args.out} ({len(all_rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
