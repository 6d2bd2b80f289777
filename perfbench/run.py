"""End-to-end benchmark of the stepping-SSSP program: one workload per call.

    python3 perfbench/run.py --workload sssp-road --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The benchmark makes its inputs from ``--seed`` with the
package's public generators, runs the program in separate processes (the
stepping algorithms and the query engine in-process for ``sssp-road``,
``p2p-road`` and ``updates-social``; ``repro serve`` over TCP with two
closed-loop connections for ``rows-social``), checks every answer
against SciPy's Dijkstra on its own copy of the input, and prints one JSON
object as its last line of output.

A run plays whole rounds of a seeded operation list until ``--seconds``
have passed.  Set-up (graph load, engine construction, label build, server
listen, kernel autotune) is timed in three fresh program processes and the
median is reported.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the benchmark makes one untraced and one traced
run and reports the per-layer figures of the traced one (see README.md).
A record of the run (seeds, sizes, versions, CPU affinity, kernel
thresholds, counts) is written to ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUPS = 3  # set-up is timed in this many fresh processes; the median is reported
CONNECTIONS = 2  # closed-loop TCP clients (nproc on the reference host)
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The program could not be run to the end of a workload."""


# --------------------------------------------------------------------------- #
# Program processes
# --------------------------------------------------------------------------- #


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_program(workload: str, work: Path, seconds: float, *, setup_only=False,
                trace=0, tag="run") -> dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "program.py"), "--workload", workload,
           "--inputs", str(work / "inputs"), "--seconds", str(seconds),
           "--out", str(out), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(work / f"{tag}.log", "w") as log:
        proc = subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                              timeout=seconds + CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"program exited {proc.returncode}; see {work / (tag + '.log')}")
    return json.loads(out.read_text())


class Server:
    """One ``repro serve`` process started through ``serve.py``."""

    def __init__(self, work: Path, trace: int, tag: str) -> None:
        self.out = work / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "serve.py"),
               "--graph", str(work / "inputs" / "graph.npz"),
               "--out", str(self.out), "--trace", str(trace)]
        self.log = open(work / f"{tag}.log", "w")
        self.proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""  # READY, or "" on exit
        if not line.startswith("READY"):
            self.close()
            raise BenchError(f"server did not start; see {self.log.name}")
        _, port, setup_s = line.split()
        self.port, self.setup_s = int(port), float(setup_s)

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            self.close()
        if code != 0:
            raise BenchError(f"server exited {code}; see {self.log.name}")
        return json.loads(self.out.read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


async def _drive(port: int, rounds: list, seconds: float) -> dict:
    """Closed loop: each connection sends its next request when the last
    reply arrived; no new round starts once ``seconds`` have passed."""
    conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    ops: list = []
    latencies: dict = {}
    replies: dict = {}
    state = {"round": 0, "pos": 0, "done": False}
    clock = time.perf_counter
    start = clock()

    def next_op():
        if state["done"]:
            return None
        rnd = rounds[state["round"]]
        op = rnd[state["pos"]]
        state["pos"] += 1
        if state["pos"] == len(rnd):
            state["round"] += 1
            state["pos"] = 0
            state["done"] = state["round"] == len(rounds) or clock() - start >= seconds
        ops.append(op)
        return len(ops) - 1, op

    async def client(reader, writer):
        while (item := next_op()) is not None:
            i, op = item
            t0 = clock()
            writer.write((json.dumps({"id": i, "source": op}) + "\n").encode())
            line = await reader.readline()
            latencies[i] = clock() - t0
            replies[i] = line

    await asyncio.gather(*(client(r, w) for r, w in conns))
    end = clock()
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()
    order = range(len(ops))
    return {"window": [start, end], "rounds": state["round"], "ops": ops,
            "latencies": [latencies[i] for i in order],
            "replies": [json.loads(replies[i]) for i in order]}


def run_tcp(work: Path, kept: dict, seconds: float, trace: int) -> dict:
    server = Server(work, trace, tag=f"serve-trace{trace}")
    try:
        client = asyncio.run(_drive(server.port, kept["ops"]["rounds"], seconds))
    finally:
        result = server.stop()
    result.update(client, setup_s=server.setup_s)
    return result


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #


def setup_samples(workload: str, work: Path, seconds: float) -> list:
    """Set-up seconds of SETUPS - 1 set-up-only program processes."""
    samples = []
    for i in range(SETUPS - 1):
        if workload in TCP_WORKLOADS:
            server = Server(work, 0, tag=f"setup{i}")
            samples.append(server.setup_s)
            server.stop()
        else:
            samples.append(run_program(workload, work, seconds, setup_only=True,
                                       tag=f"setup{i}")["setup_s"])
    return samples


def measured_run(workload: str, work: Path, kept: dict, seconds: float, trace: int) -> dict:
    if workload in TCP_WORKLOADS:
        return run_tcp(work, kept, seconds, trace)
    return run_program(workload, work, seconds, trace=trace, tag=f"run-trace{trace}")


def check(workload: str, kept: dict, run: dict) -> tuple:
    """(failed operations, mismatching answers) of one measured run."""
    if workload == "sssp-road":
        sources = [op[1] for rnd in kept["ops"]["rounds"][:run["rounds"]] for op in rnd]
        return 0, check_rows(kept, sources, run["answers"])
    if workload == "updates-social":
        return 0, check_updates(kept, run["rounds"], run["answers"])
    if workload == "p2p-road":
        seed = kept["ops"]["seed"]
        pairs = [op for r in range(run["rounds"]) for op in p2p_round(kept["n"], seed, r)]
        return 0, check_p2p(kept, pairs, run["answers"])
    errors = sum(not r.get("ok") for r in run["replies"])
    good = [(op, r) for op, r in zip(run["ops"], run["replies"]) if r.get("ok")]
    bad = check_row_summaries(kept, [op for op, _ in good],
                              [(r["reached"], r["checksum"]) for _, r in good])
    return errors, bad


def latency_figures(run: dict) -> dict:
    lat_ms = [x * 1e3 for x in run["latencies"]]
    p50, p90 = (statistics.quantiles(lat_ms, n=100, method="inclusive")[k] for k in (49, 89))
    wall = run["window"][1] - run["window"][0]
    return {"throughput_ops": len(lat_ms) / wall, "latency_p50_ms": p50,
            "latency_p90_ms": p90, "latency_mean_ms": statistics.fmean(lat_ms)}


def counter_figures(workload: str, run: dict, ops: int) -> dict:
    """Per-layer counts read off the program's own counters."""
    eng = run.get("engine") or {}
    base = run.get("engine_after_setup") or {}

    def delta(key):
        return eng.get(key, 0) - base.get(key, 0)

    hits, misses = delta("cache_hits"), delta("cache_misses")
    lookup = eng.get("label_lookup") or {}
    server = run.get("server") or {}
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.executed_rows": delta("executed") / ops,
        "engine.deduped_rows": delta("deduped") / ops,
        "cache.invalidated": delta("cache_invalidations") / ops,
        "server.shed": float((server.get("admission") or {}).get("shed_total", 0)),
        "labels.hub_served_ratio": (lookup.get("hub_served", 0) / lookup["lookups"]
                                    if lookup.get("lookups") else 0.0),
        "labels.fallbacks": float(lookup.get("fallbacks", 0) + eng.get("label_fallbacks", 0)),
        "dynamic.repaired": delta("repaired") / ops,
        "dynamic.repair_degraded": float(delta("repair_degraded")),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    kept = prepare(workload, seed, seconds, work / "inputs")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": {"n": kept["n"], "m": kept["m"]}}
    setups = [] if trace else setup_samples(workload, work, seconds)
    steal0 = host_steal_s()
    run = measured_run(workload, work, kept, seconds, 0)
    record["host_steal_s"] = host_steal_s() - steal0
    setups.append(run["setup_s"])
    (work / "latencies_ms.json").write_text(json.dumps([x * 1e3 for x in run["latencies"]]))
    errors, bad = check(workload, kept, run)
    figures = latency_figures(run)
    attempted = len(run["latencies"])
    record.update(
        attempted=attempted, failed=errors + bad, mismatches=bad, rounds=run["rounds"],
        setup_samples_s=setups, thresholds=run["thresholds"], peak_rss_mb=run["peak_rss_mb"],
    )
    metrics = {
        "throughput_ops": (figures["throughput_ops"], "1/s"),
        "latency_p50_ms": (figures["latency_p50_ms"], "ms"),
        "latency_p90_ms": (figures["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    if trace:
        traced = measured_run(workload, work, kept, seconds, 1)
        t_errors, t_bad = check(workload, kept, traced)
        record.update(traced_attempted=len(traced["latencies"]), traced_failed=t_errors + t_bad)
        bad += t_bad
        attempted += len(traced["latencies"])
        errors += t_errors
        tfig = latency_figures(traced)
        layers = layer_metrics(traced["trace"], traced["window"], len(traced["latencies"]),
                               tfig["latency_mean_ms"],
                               counter_figures(workload, traced, len(traced["latencies"])),
                               batched=workload in TCP_WORKLOADS)
        layers["trace.overhead"] = tfig["latency_p50_ms"] / figures["latency_p50_ms"]
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    return {
        "record": record,
        "result": {
            "correct": bad == 0,
            "attempted": attempted,
            "failed": errors + bad,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def host_steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)), "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work = ROOT / ".perfbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, args.trace, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
    record = dict(out["record"], environment=environment())
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


def _import_program_side() -> None:
    """Make the program importable from the checkout, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


_import_program_side()
from spans import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    TCP_WORKLOADS,
    WORKLOADS,
    check_p2p,
    check_row_summaries,
    check_rows,
    check_updates,
    p2p_round,
    prepare,
)

#: Per-layer metric -> unit, as listed in BENCHMARK.json.
PER_LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
}

if __name__ == "__main__":
    raise SystemExit(main())
