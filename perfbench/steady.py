"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --runs 10

Runs ``perfbench/run.py`` for every workload in ``BENCHMARK.json``, with
its ``run_seconds``, alternating set A and set B (A B A B ...), each run
with its own seed (1, 2, 3, ...).  For each workload and end-to-end metric
it prints each set's median and quartiles, the spread (interquartile
distance over the median), the gap between the two medians (B against A,
positive when B is worse) and the bound from ``BENCHMARK.json``.  It exits
1 when a spread exceeds its bound, when the two medians differ by more
than the bound either way, when the share of failed operations differs
between the sets, or when any run is incorrect.  ``setup_s`` is held to
the gap only: each run's figure is already a median of fresh set-up
processes, whose times follow the host's CPU-speed drift, so its spread is
printed for reference and its bound guards the difference between the
sets.  The full figures are written to ``.perfbench-runs/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench-runs" / f"{workload}-seed{seed}-trace0" / "record.json"
    result["host_steal_s"] = json.loads(record.read_text()).get("host_steal_s")
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values per set)")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {(w, s): [] for w in workloads for s in "AB"}
    seed = 1
    for i in range(args.runs):
        for s in "AB":
            for w in workloads:
                res = one_run(w, seed, seconds)
                runs[(w, s)].append({"seed": seed, **res})
                print(f"[{i + 1}/{args.runs}] {s} {w} seed={seed} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"steal={res['host_steal_s']:.2f}s wall={res['wall_s']:.1f}s", flush=True)
                seed += 1

    breaches = []
    report = {}
    for w in workloads:
        a, b = runs[(w, "A")], runs[(w, "B")]
        if not all(r["correct"] for r in a + b):
            breaches.append(f"{w}: incorrect run")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in (a, b)]
        if shares[0] != shares[1]:
            breaches.append(f"{w}: failed share {shares[0]} vs {shares[1]}")
        print(f"\n{w}  (failed share A={shares[0]:.4g} B={shares[1]:.4g})")
        print(f"  {'metric':16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
              f"{'spreadA':>8} {'spreadB':>8} {'gap':>7} {'bound':>6}")
        for name, m in bounds.items():
            sa = summarize([r["metrics"][name]["value"] for r in a])
            sb = summarize([r["metrics"][name]["value"] for r in b])
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (sb["median"] - sa["median"]) / sa["median"]
            report[f"{w}/{name}"] = {"A": sa, "B": sb, "gap": gap, "bound": m["bound"]}
            flags = []
            if name != "setup_s" and max(sa["spread"], sb["spread"]) > m["bound"]:
                flags.append("SPREAD")
            if abs(gap) > m["bound"]:
                flags.append("GAP")
            breaches += [f"{w}/{name}: {f}" for f in flags]
            fmt = "{median:.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"  {name:16} {fmt.format(**sa):>32} {fmt.format(**sb):>32} "
                  f"{sa['spread']:8.3f} {sb['spread']:8.3f} {gap:+7.3f} {m['bound']:6.2f} "
                  f"{' '.join(flags)}")
    out = ROOT / ".perfbench-runs" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": {f"{w}/{s}": v for (w, s), v in runs.items()},
                               "summary": report, "breaches": breaches}, indent=1))
    print("\nbreaches: " + ("; ".join(breaches) if breaches else "none"))
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
