"""The program side of the in-process workloads, run in its own process.

``sssp-road`` calls the stepping algorithms from ``repro.core`` directly;
``p2p-road`` asks a ``repro.serving.QueryEngine(mode="p2p")`` for
point-to-point distances; ``updates-social`` drives a fast-mode engine
through ``apply_updates``.  The process imports the program, then times
set-up (graph load from file, kernel autotune, engine construction with its
label build, warm rows),
then, unless ``--setup-only``, plays whole rounds of the seeded operation
list until ``--seconds`` have passed.  Latencies and answers go into arrays
sized for every operation the run could play, allocated and written before
set-up, so the benchmark's own bookkeeping weighs the same on peak RSS
however many operations complete.  Peak RSS is read at the end of the
timed phase, before those arrays are turned into JSON and before the
benchmark builds any reference data (which happens in the parent).
Results go to ``--out`` as JSON.

    python3 perfbench/program.py --workload sssp-road --inputs DIR \
        --seconds 10 --out result.json [--setup-only] [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import repro.core
import repro.dynamic
import repro.graphs
import repro.serving
from repro.runtime import kernels

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import IN_PROCESS, P2P_PER_ROUND, ROAD_DELTA, digest, p2p_round  # noqa: E402


def setup(workload: str, inputs: Path, ops: dict):
    """Everything before the first operation can be served."""
    graph = repro.graphs.load_npz(inputs / "graph.npz")
    kernels.thresholds()  # one-time autotune, otherwise paid by the first op
    if workload == "sssp-road":
        graph.degrees  # the CSR's lazily cached degree array
        return graph
    if workload == "p2p-road":
        return repro.serving.QueryEngine(graph, "rho", mode="p2p")
    engine = repro.serving.QueryEngine(graph, "rho", mode="fast")
    engine.query_batch(ops["warm"])
    return engine


def road_op(graph, algo: str, source: int) -> np.ndarray:
    if algo == "delta_star":
        return repro.core.delta_star_stepping(graph, source, ROAD_DELTA).dist
    if algo == "rho":
        return repro.core.rho_stepping(graph, source).dist
    return repro.core.bellman_ford(graph, source).dist


def update_op(engine, warm: list, batch: dict) -> np.ndarray:
    engine.apply_updates(repro.dynamic.UpdateBatch(
        inserts=batch["inserts"], deletes=batch["deletes"], reweights=batch["reweights"],
    ))
    return engine.query_batch(warm)


def buffers(workload: str, ops: dict) -> tuple:
    """(latencies, answers) for every operation of every generated round,
    every page written now: a p2p answer is a distance (``inf`` when
    unreachable), a row answer its 32-character digest."""
    if workload == "p2p-road":
        cap = ops["max_rounds"] * P2P_PER_ROUND
        answers = np.full(cap, np.nan)
    else:
        cap = sum(len(rnd) for rnd in ops["rounds"])
        shape = (cap, len(ops["warm"])) if workload == "updates-social" else (cap,)
        answers = np.full(shape, b"-" * 32, dtype="S32")
    return np.full(cap, np.nan), answers


def measure(workload: str, state, ops: dict, seconds: float, bufs: tuple) -> dict:
    """Whole rounds of operations until ``seconds`` have passed."""
    latencies, answers = bufs
    k = 0
    clock = time.perf_counter
    start = clock()
    rounds = 0
    if workload == "p2p-road":
        rounds_iter = (p2p_round(ops["n"], ops["seed"], r) for r in range(ops["max_rounds"]))
    else:
        rounds_iter = iter(ops["rounds"])
    for rnd in rounds_iter:
        for op in rnd:
            if workload == "sssp-road":
                t0 = clock()
                row = road_op(state, op[0], op[1])
                latencies[k] = clock() - t0
                answers[k] = digest(row)
            elif workload == "p2p-road":
                t0 = clock()
                d = state.dist(op[0], op[1])
                latencies[k] = clock() - t0
                answers[k] = d
            else:
                t0 = clock()
                rows = update_op(state, ops["warm"], op)
                latencies[k] = clock() - t0
                answers[k] = [digest(r) for r in rows]
            k += 1
        rounds += 1
        if clock() - start >= seconds:
            break
    end = clock()
    out = {"window": [start, end], "rounds": rounds, "latencies": latencies[:k],
           "answers": answers[:k]}
    if workload != "sssp-road":
        out["engine"] = state.stats()
    return out


def to_json(workload: str, out: dict) -> None:
    """Turn the measured arrays into JSON lists (after peak RSS is read)."""
    out["latencies"] = out["latencies"].tolist()
    if workload == "p2p-road":
        out["answers"] = [None if d == float("inf") else d for d in out["answers"].tolist()]
    else:
        out["answers"] = out["answers"].astype(str).tolist()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=IN_PROCESS)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    recorder = None
    if args.trace:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    ops = json.loads((args.inputs / "ops.json").read_text())
    bufs = None if args.setup_only else buffers(args.workload, ops)
    t0 = time.perf_counter()
    state = setup(args.workload, args.inputs, ops)
    result = {"setup_s": time.perf_counter() - t0,
              "thresholds": asdict(kernels.thresholds())}
    if args.workload == "updates-social":
        result["engine_after_setup"] = state.stats()
    if not args.setup_only:
        result.update(measure(args.workload, state, ops, args.seconds, bufs))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.setup_only:
        to_json(args.workload, result)
    if recorder is not None:
        result["trace"] = recorder.dump()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
