"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``       graph statistics and the (k, ρ) signature of a dataset or file.
``run``        run one SSSP algorithm and report work-span stats + simulated time.
``batch``      answer a multi-source batch through the serving engine.
``sweep``      sweep Δ or ρ over powers of two and print the relative-time curve.
``trace``      run one algorithm under the tracer and print its span tree.
``generate``   write a synthetic graph (rmat / road-grid / road-geo) to .npz.
``partition``  split a graph into shards and report cut/halo/balance numbers.
``serve``      run the asyncio micro-batching front door on a TCP port
               (newline-delimited JSON requests, overload-safe admission).
``loadgen``    drive open-loop load profiles at a server built in-process and
               print/write the per-profile latency + SLO report.
``stream``     replay an interleaved update+query trace through the engine
               (incremental repair keeps the cache warm across updates);
               ``--trace`` replays a JSON-lines file, otherwise a synthetic
               trace is generated, and ``--verify`` checks every answer
               against a fresh recompute on the current graph.
``build-labels`` run the offline precomputation pass (landmark table +
               pruned hub labels, see :mod:`repro.labels`) and write the
               versioned ``.labels`` artifact.
``query``      answer one point-to-point ``dist(s, t)`` from a ``.labels``
               artifact (built on the fly when ``--labels`` is omitted),
               with ALT-bound validation and ``--verify`` against Dijkstra.

``run`` and ``batch`` accept ``--shards N`` (plus ``--partitioner P``) to
execute through the sharded BSP driver — distances are bit-identical to the
unsharded paths, so ``--verify`` still holds.

``run``/``batch``/``sweep``/``trace`` accept ``--metrics PATH`` to dump a
metrics-registry snapshot (JSON by default; Prometheus text for ``.prom`` /
``.txt`` paths) covering kernels, the LAB-PQ, the stepping loop and the
serving layer.

Datasets are the seven paper stand-ins (OK LJ TW FT WB GE USA, sized by
``REPRO_SCALE``) or any ``.npz`` / ``.gr`` / edge-list file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import format_series, format_table, get_implementation, simulated_time
from repro.baselines import dijkstra_reference
from repro.core import (
    DEFAULT_RHO,
    bellman_ford,
    delta_star_stepping,
    delta_stepping,
    dijkstra_stepping,
    rho_stepping,
)
from repro.datasets import DATASETS, load_dataset
from repro.graphs import (
    Graph,
    estimate_k_rho,
    load_dimacs,
    load_edgelist,
    load_npz,
    rmat,
    road_geometric,
    road_grid,
    save_npz,
)
from repro.obs import (
    OBS,
    MetricsRegistry,
    Tracer,
    observed,
    render_span_tree,
    write_metrics,
)
from repro.runtime import MachineModel
from repro.runtime.machine import DEFAULT_PROFILE
from repro.utils.errors import ReproError

__all__ = ["main"]

_ALGOS = {
    "rho": lambda g, s, p, seed: rho_stepping(g, s, int(p or DEFAULT_RHO), seed=seed),
    "delta-star": lambda g, s, p, seed: delta_star_stepping(g, s, float(p or 2**14), seed=seed),
    "delta": lambda g, s, p, seed: delta_stepping(g, s, float(p or 2**14), seed=seed),
    "bf": lambda g, s, p, seed: bellman_ford(g, s, seed=seed),
    "dijkstra": lambda g, s, p, seed: dijkstra_stepping(g, s, seed=seed),
}


def _load_graph(spec: str) -> Graph:
    if spec in DATASETS:
        return load_dataset(spec)
    if spec.endswith(".npz"):
        return load_npz(spec)
    if spec.endswith(".gr"):
        return load_dimacs(spec)
    return load_edgelist(spec)


def _cmd_info(args) -> int:
    g = _load_graph(args.graph)
    degs = g.out_degree()
    rows = [
        ["vertices", g.n],
        ["edges", g.m],
        ["directed", g.directed],
        ["min weight", g.min_weight],
        ["max weight", g.max_weight],
        ["avg degree", float(degs.mean())],
        ["max degree", int(degs.max()) if g.n else 0],
    ]
    print(format_table(["property", "value"], rows, title=f"graph {args.graph}"))
    if args.krho:
        est = estimate_k_rho(g, num_samples=args.samples, seed=0)
        print(format_table(
            ["rho", "k_rho"], [[r, k] for r, k in est.as_dict().items()],
            title=f"\n(k, rho) signature ({est.num_samples} samples)",
        ))
    return 0


def _shard_policy(algorithm: str, param):
    """A fresh stepping policy matching a ``run`` algorithm name."""
    from repro.core.policies import (
        BellmanFordPolicy,
        DeltaPolicy,
        DeltaStarPolicy,
        DijkstraPolicy,
        RhoPolicy,
    )

    if algorithm == "rho":
        return RhoPolicy(int(param or DEFAULT_RHO))
    if algorithm == "delta-star":
        return DeltaStarPolicy(float(param or 2**14))
    if algorithm == "delta":
        return DeltaPolicy(float(param or 2**14))
    if algorithm == "dijkstra":
        return DijkstraPolicy()
    return BellmanFordPolicy()


def _cmd_run(args) -> int:
    g = _load_graph(args.graph)
    if args.shards:
        from repro.shard import sharded_sssp

        opts = {"refine": args.refine} if args.partitioner == "fennel" else {}
        res = sharded_sssp(
            g, args.source, _shard_policy(args.algorithm, args.param),
            num_shards=args.shards, method=args.partitioner, seed=args.seed,
            partition_opts=opts,
        )
    else:
        run = _ALGOS[args.algorithm]
        res = run(g, args.source, args.param, args.seed)
    if args.verify:
        res.check_against(dijkstra_reference(g, args.source))
        print("verified against sequential Dijkstra")
    machine = MachineModel(P=args.cores)
    s = res.stats
    rows = [
        ["reached", res.reached],
        ["steps", s.num_steps],
        ["waves", s.num_waves],
        ["visits/vertex", s.visits_per_vertex(g.n)],
        ["visits/edge", s.visits_per_edge(g.m)],
        [f"simulated time (P={args.cores})", f"{machine.time_seconds(s) * 1e3:.3f} ms"],
        ["simulated self-speedup", f"{machine.self_speedup(s):.1f}x"],
        ["wall time (this host)", f"{res.wall_seconds * 1e3:.1f} ms"],
    ]
    if args.shards:
        rows.extend([
            ["shards", f"{res.params['num_shards']} ({res.params['partitioner']})"],
            ["cut edges", res.params["cut_edges"]],
            ["halo messages", res.params["halo_messages"]],
        ])
    print(format_table(["metric", "value"], rows,
                       title=f"{res.algorithm} on {args.graph} from source {args.source}"))
    return 0


def _cmd_batch(args) -> int:
    import time

    from repro.serving import QueryEngine

    g = _load_graph(args.graph)
    try:
        sources = [int(s) for s in args.sources.split(",") if s.strip()]
    except ValueError:
        raise ReproError(f"--sources must be comma-separated ints, got {args.sources!r}")
    if not sources:
        raise ReproError("--sources is empty")
    engine = QueryEngine(
        g, args.algo, args.param, seed=args.seed,
        retries=args.retries, shards=args.shards, partitioner=args.partitioner,
        refine=args.refine, pool_jobs=args.jobs,
    )
    with engine:
        t0 = time.perf_counter()
        dist = engine.query_batch(sources, deadline=args.deadline)
        elapsed = time.perf_counter() - t0
        transport = engine.stats().get("transport") or "local"
    if args.verify:
        for i, s in enumerate(sources):
            ref = dijkstra_reference(g, s)
            if not np.allclose(dist[i], ref, atol=1e-9, equal_nan=True):
                raise ReproError(f"batch row for source {s} disagrees with Dijkstra")
        print(f"verified {len(sources)} rows against sequential Dijkstra")
    st = engine.stats()
    reached = int(np.isfinite(dist).sum(axis=1).min())
    rows = [
        ["sources", len(sources)],
        ["executed", st["executed"]],
        ["deduped", st["deduped"]],
        ["min reached/row", reached],
        ["transport", transport],
        ["wall time", f"{elapsed * 1e3:.1f} ms"],
        ["throughput", f"{len(sources) / elapsed:.1f} queries/s"],
    ]
    if args.jobs >= 2:
        label = f"pooled[{args.jobs}]"
    elif args.shards:
        label = f"sharded[{args.shards}]"
    else:
        label = "fast"
    print(format_table(["metric", "value"], rows,
                       title=f"{label} batch ({args.algo}) on {args.graph}"))
    return 0


def _cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    machine = MachineModel(P=args.cores)
    impl = get_implementation(args.implementation)
    params = [2.0**e for e in range(args.lo, args.hi + 1)]
    if args.jobs >= 2:
        from repro.serving import SweepPool

        with SweepPool(
            g, args.jobs, timeout=args.task_timeout, retries=args.retries,
            collect_metrics=OBS.registry.enabled,
        ) as pool:
            grid = pool.map_cells(impl.key, params, [args.source], machine, seed=args.seed)
        times = [row[0] for row in grid]
    else:
        times = []
        for p in params:
            res = impl.run(g, args.source, p, seed=args.seed)
            times.append(simulated_time(res, machine, impl.profile))
    best = min(times)
    print(format_series(
        [f"2^{int(np.log2(p))}" for p in params],
        [t / best for t in times],
        x_label="param", y_label="rel time",
    ))
    print(f"best param: 2^{int(np.log2(params[int(np.argmin(times))]))} "
          f"({best * 1e3:.3f} ms simulated)")
    return 0


def _cmd_trace(args) -> int:
    g = _load_graph(args.graph)
    run = _ALGOS[args.algorithm]
    tracer = Tracer()
    # registry=None leaves any installed registry in place (e.g. --metrics).
    with observed(tracer=tracer):
        res = run(g, args.source, args.param, args.seed)
    if not tracer.roots:
        raise ReproError("no spans recorded (tracing seam did not fire)")
    root = next((s for s in tracer.roots if s.name == "sssp.run"), tracer.roots[0])
    machine = MachineModel(P=args.cores)
    steps = res.stats.steps
    spans = root.find("sssp.step")
    total_ns = 0.0
    for rec, span in zip(steps, spans):
        ns = machine.step_time_ns(rec, DEFAULT_PROFILE)
        total_ns += ns
        span.set(sim_us=round(ns * 1e-3, 2), span_levels=rec.span_levels(g.n))
    root.set(sim_ms=round(total_ns * 1e-6, 3))
    print(render_span_tree(root, max_depth=args.depth))
    print(f"{len(steps)} steps; simulated time (P={args.cores}) "
          f"{total_ns * 1e-6:.3f} ms; wall {res.wall_seconds * 1e3:.1f} ms")
    return 0


def _cmd_partition(args) -> int:
    from repro.shard import ShardedGraph

    g = _load_graph(args.graph)
    opts = {"refine": args.refine} if args.partitioner == "fennel" else {}
    sg = ShardedGraph.build(g, args.shards, args.partitioner, seed=args.seed, **opts)
    rows = [
        [r["shard"], r["vertices"], r["edges"], r["halo"], r["cut_edges"]]
        for r in sg.shard_sizes()
    ]
    print(format_table(
        ["shard", "vertices", "edges", "halo", "cut edges"], rows,
        title=f"{args.partitioner} partition of {args.graph} into {args.shards}",
    ))
    print(f"cut edges: {sg.cut_edges} ({sg.cut_ratio:.1%} of {g.m})")
    print(f"edge imbalance: {sg.edge_imbalance:.3f}  "
          f"vertex imbalance: {sg.partition.vertex_imbalance:.3f}")
    if args.check_roundtrip:
        r = sg.reassemble()
        if not (
            np.array_equal(r.indptr, g.indptr)
            and np.array_equal(r.indices, g.indices)
            and np.array_equal(r.weights, g.weights)
        ):
            raise ReproError("reassembled CSR differs from the input graph")
        print("reassemble round-trip: exact")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serving import QueryEngine, ShortestPathServer, serve_tcp

    g = _load_graph(args.graph)
    engine = QueryEngine(
        g, args.algo, args.param, seed=args.seed, retries=args.retries,
        mode="p2p" if args.p2p else "fast",
        shards=args.shards, partitioner=args.partitioner,
        pool_jobs=args.jobs,
        labels_path=args.labels if args.p2p else None,
    )
    server = ShortestPathServer(
        engine, max_batch=args.max_batch,
        max_queue=args.max_queue, default_deadline=args.deadline,
    )
    print(f"serving {args.algo} on {args.graph} at {args.host}:{args.port} "
          f"(B={args.max_batch}, queue<={args.max_queue})", file=sys.stderr)

    async def serve_until_signalled() -> None:
        # SIGTERM and SIGINT both cancel this task, so serve_tcp drains and
        # returns.  Installing SIGINT here too (not relying on the default
        # KeyboardInterrupt) covers a server started in the background from
        # a non-interactive shell, which inherits SIGINT as ignored.
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        stopping = False

        def stop() -> None:
            nonlocal stopping
            if not stopping:  # a second signal must not cut the drain short
                stopping = True
                task.cancel()

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop)
        try:
            await serve_tcp(server, args.host, args.port)
        except asyncio.CancelledError:  # signalled before the listener was up
            pass

    prior = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        with engine:
            asyncio.run(serve_until_signalled())
    except KeyboardInterrupt:  # Ctrl-C before the event loop started
        pass
    finally:
        for sig, handler in prior.items():
            if handler is not None:  # None: installed outside Python
                signal.signal(sig, handler)
    print("interrupted; server stopped", file=sys.stderr)
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.serving.loadgen import (
        LoadProfile,
        build_reference,
        run_profile,
        source_pool,
        zipf_weights,
    )

    g = _load_graph(args.graph)
    specs = []
    if args.profile in ("steady", "both"):
        specs.append(LoadProfile(
            "steady", duration=args.duration, rate=args.rate,
            rate_factor=args.rate_factor, num_sources=args.sources,
            alpha=args.alpha, deadline=args.deadline, seed=args.seed,
        ))
    if args.profile in ("overload", "both"):
        specs.append(LoadProfile(
            "overload", duration=args.duration, rate=None, rate_factor=2.0,
            num_sources=4 * args.sources, alpha=0.3,
            deadline=max(args.deadline, 0.6), seed=args.seed + 1,
        ))
    reports = []
    for prof in specs:
        pool = source_pool(g, prof.num_sources)
        weights = zipf_weights(len(pool), prof.alpha)
        reference, scalar_qps = build_reference(
            g, pool, weights, algo=args.algo, param=args.param
        )
        engine_kwargs, server_kwargs = {}, {}
        if prof.name == "overload":
            # Overload is *cold* traffic: pin the result cache small so
            # offered load reaches the execution path, keep the queue bound
            # tight so shedding (not queueing) absorbs the excess, and make
            # the feasibility check conservative (slack) so admitted
            # requests finish well inside their deadline.
            from repro.serving.admission import AdmissionController

            engine_kwargs = {"cache_size": 8}
            server_kwargs = {
                "max_batch": 8, "max_queue": 64,
                "admission": AdmissionController(
                    max_queue=64, max_batch=8, slack=1.5
                ),
            }
        rep = asyncio.run(run_profile(
            g, prof, algo=args.algo, param=args.param, pool=pool,
            reference=reference, scalar_qps=scalar_qps,
            engine_kwargs=engine_kwargs, server_kwargs=server_kwargs,
        ))
        if rep["mismatches"]:
            raise ReproError(
                f"{rep['mismatches']} responses disagreed with scalar runs"
            )
        reports.append(rep)
        lat = rep["latency_ms"]
        rows = [
            ["offered qps", f"{rep['offered_qps']:.1f}"],
            ["achieved qps", f"{rep['achieved_qps']:.1f}"],
            ["scalar-loop qps", f"{rep['scalar_qps']:.1f}"],
            ["speedup vs scalar", f"{rep['speedup_vs_scalar']:.1f}x"],
            ["p50 / p95 / p99 ms", " / ".join(
                "-" if lat[k] is None else f"{lat[k]:.1f}"
                for k in ("p50", "p95", "p99"))],
            ["completed", rep["completed"]],
            ["shed (typed)", rep["shed"]],
            ["expired", rep["expired"]],
            ["mismatches", rep["mismatches"]],
            ["queue peak", rep["queue_peak"]],
        ]
        print(format_table(
            ["metric", "value"], rows,
            title=f"{prof.name} profile ({args.algo}) on {args.graph}",
        ))
    if args.out:
        import json

        with open(args.out, "w") as fh:
            json.dump({"bench": "serving", "graph": args.graph,
                       "algo": args.algo, "rows": reports}, fh, indent=1)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_stream(args) -> int:
    from repro.dynamic import load_trace, replay, save_trace, synth_trace
    from repro.serving import QueryEngine

    g = _load_graph(args.graph)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = synth_trace(
            g, events=args.events, update_every=args.update_every,
            batch_size=args.batch_size, sources=args.sources, seed=args.seed,
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace}", file=sys.stderr)
    engine = QueryEngine(
        g, args.algo, args.param, seed=args.seed, retries=args.retries,
        cache_size=args.cache_size,
    )
    with engine:
        summary = replay(engine, trace, verify=args.verify)
        st = engine.stats()
    rows = [
        ["events", summary["events"]],
        ["queries", summary["queries"]],
        ["update batches", summary["updates"]],
        ["update no-ops", st["update_noops"]],
        ["cache hits", st["cache_hits"]],
        ["entries invalidated", st["cache_invalidations"]],
        ["entries repaired", st["repaired"]],
        ["repairs degraded", st["repair_degraded"]],
        ["query time", f"{summary['query_seconds'] * 1e3:.1f} ms"],
        ["update time", f"{summary['update_seconds'] * 1e3:.1f} ms"],
        ["throughput", f"{summary['qps']:.1f} queries/s"],
    ]
    if args.verify:
        rows.append(["mismatches", summary["mismatches"]])
    print(format_table(["metric", "value"], rows,
                       title=f"stream replay ({args.algo}) on {args.graph}"))
    if summary["mismatches"]:
        raise ReproError(
            f"{summary['mismatches']} served answers diverged from fresh "
            f"recomputes — {summary.get('first_mismatch', 'no detail')}"
        )
    if args.verify:
        print(f"verified {summary['queries']} answers against fresh recomputes")
    return 0


def _cmd_build_labels(args) -> int:
    from repro.labels import LabelBundle, build_hub_labels, build_landmarks, save_labels

    g = _load_graph(args.graph)
    landmarks = build_landmarks(
        g, min(args.landmarks, g.n), strategy=args.strategy,
        algo=args.algo, param=args.param, shortcut_rho=args.shortcut_rho,
        seed=args.seed,
    )
    hubs = build_hub_labels(g, landmarks, seed=args.seed) if args.hubs else None
    bundle = LabelBundle(
        fingerprint=g.fingerprint, landmarks=landmarks, hubs=hubs,
        meta={"graph": args.graph},
    )
    path = save_labels(args.out, bundle)
    rows = [
        ["landmarks", landmarks.num_landmarks],
        ["strategy", landmarks.strategy],
        ["landmark build", f"{landmarks.build_seconds * 1e3:.1f} ms"],
    ]
    if hubs is not None:
        rows.extend([
            ["hub entries", hubs.total_entries],
            ["avg label size", f"{hubs.avg_label_size:.1f}"],
            ["hub build", f"{hubs.build_seconds * 1e3:.1f} ms"],
        ])
    rows.append(["artifact", str(path)])
    print(format_table(["metric", "value"], rows,
                       title=f"label tables for {args.graph}"))
    return 0


def _cmd_query(args) -> int:
    import time

    from repro.labels import (
        LabelBundle,
        LabelIndex,
        build_hub_labels,
        build_landmarks,
        load_labels,
    )

    g = _load_graph(args.graph)
    if args.labels:
        bundle = load_labels(args.labels, graph=g)
    else:
        landmarks = build_landmarks(g, min(args.landmarks, g.n), seed=args.seed)
        bundle = LabelBundle(
            fingerprint=g.fingerprint, landmarks=landmarks,
            hubs=build_hub_labels(g, landmarks, seed=args.seed),
        )
    index = LabelIndex(g, bundle, algo=args.algo, param=args.param, seed=args.seed)
    t0 = time.perf_counter()
    d = index.dist(args.source, args.target)
    lookup_s = time.perf_counter() - t0
    lb, ub = index.bounds(args.source, args.target)
    if args.verify:
        ref = float(dijkstra_reference(g, args.source)[args.target])
        if not (d == ref or (np.isinf(d) and np.isinf(ref))):
            raise ReproError(
                f"label answer {d!r} disagrees with Dijkstra {ref!r}"
            )
        print("verified against sequential Dijkstra")
    rows = [
        ["dist", d if np.isfinite(d) else "unreachable"],
        ["ALT bounds", f"[{lb:g}, {ub:g}]"],
        ["served by", "hub labels" if index.stats["hub_served"] else
         ("landmarks" if index.stats["landmark_served"] else "SSSP fallback")],
        ["lookup time", f"{lookup_s * 1e6:.0f} us"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"dist({args.source}, {args.target}) on {args.graph}",
    ))
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "rmat":
        g = rmat(args.scale, args.degree, seed=args.seed, directed=args.directed)
    elif args.kind == "road-grid":
        g = road_grid(args.side, seed=args.seed)
    elif args.kind == "road-geo":
        g = road_geometric(args.n, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown kind {args.kind}")
    save_npz(g, args.out)
    print(f"wrote {g} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stepping algorithms for parallel SSSP (SPAA 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph statistics")
    p.add_argument("graph", help="dataset name (OK..USA) or graph file")
    p.add_argument("--krho", action="store_true", help="estimate the (k, rho) curve")
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("run", help="run one SSSP algorithm")
    p.add_argument("algorithm", choices=sorted(_ALGOS))
    p.add_argument("graph")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=96)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--shards", type=int, default=0,
                   help="run through the sharded BSP executor with N shards")
    p.add_argument("--partitioner", choices=["contiguous", "degree", "fennel", "ldg"],
                   default="contiguous", help="partition method for --shards")
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                   help="fennel only: boundary-vertex refinement sweep after "
                        "the streaming pass (default: on)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot (.json, or .prom/.txt for "
                        "Prometheus text format)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("batch", help="multi-source batch through the serving engine")
    p.add_argument("graph")
    p.add_argument("--sources", required=True, help="comma-separated source ids, e.g. 0,5,11")
    p.add_argument("--algo", default="rho",
                   help="rho, delta or bf (validated by the engine)")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-batch deadline in seconds (default: unbounded)")
    p.add_argument("--retries", type=int, default=2,
                   help="execution retries on transient failure")
    p.add_argument("--jobs", type=int, default=0,
                   help="serve the batch through a pool of N worker processes "
                        "(0 = in-process; not with --shards)")
    p.add_argument("--verify", action="store_true",
                   help="check every row against sequential Dijkstra")
    p.add_argument("--shards", type=int, default=0,
                   help="serve through the sharded BSP executor with N shards")
    p.add_argument("--partitioner", choices=["contiguous", "degree", "fennel", "ldg"],
                   default="contiguous", help="partition method for --shards")
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                   help="fennel only: boundary-vertex refinement sweep after "
                        "the streaming pass (default: on)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot (.json, or .prom/.txt for "
                        "Prometheus text format)")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("sweep", help="parameter sweep for one implementation")
    p.add_argument("implementation", help="Table 4 row label, e.g. PQ-rho, GAPBS")
    p.add_argument("graph")
    p.add_argument("--lo", type=int, default=6, help="low exponent (2^lo)")
    p.add_argument("--hi", type=int, default=16, help="high exponent (2^hi)")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=96)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep grid (1 = serial)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-cell timeout in seconds for pooled sweeps")
    p.add_argument("--retries", type=int, default=2,
                   help="per-cell retry budget for pooled sweeps")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot (.json, or .prom/.txt for "
                        "Prometheus text format); pooled sweeps merge "
                        "worker-side kernel/PQ counters")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("trace", help="run one algorithm and print its span tree")
    p.add_argument("algorithm", choices=sorted(_ALGOS))
    p.add_argument("graph")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=96)
    p.add_argument("--depth", type=int, default=3,
                   help="maximum span-tree depth to render")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="also write a metrics snapshot for the traced run")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("partition", help="shard a graph and report cut/halo stats")
    p.add_argument("graph")
    p.add_argument("--shards", type=int, required=True, help="number of shards")
    p.add_argument("--partitioner", choices=["contiguous", "degree", "fennel", "ldg"],
                   default="contiguous")
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                   help="fennel only: boundary-vertex refinement sweep after "
                        "the streaming pass (default: on)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-roundtrip", action="store_true",
                   help="also reassemble the shards and compare with the input")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("serve", help="asyncio TCP front door (JSON lines)")
    p.add_argument("graph")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8777, help="0 = ephemeral")
    p.add_argument("--algo", default="rho", help="rho, delta or bf")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=32,
                   help="most requests per batch; a batch is flushed as "
                        "soon as the worker is free")
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission queue bound (reject-newest beyond it)")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="engine execution retries on transient failure")
    p.add_argument("--jobs", type=int, default=0,
                   help="serve batches through a pool of N worker processes")
    p.add_argument("--shards", type=int, default=0,
                   help="serve through the sharded BSP executor with N shards")
    p.add_argument("--partitioner", choices=["contiguous", "degree", "fennel", "ldg"],
                   default="contiguous", help="partition method for --shards")
    p.add_argument("--p2p", action="store_true",
                   help="build the label tier at startup and serve "
                        '{"source", "target"} requests in microseconds')
    p.add_argument("--labels", default=None, metavar="PATH",
                   help="with --p2p: load/store the .labels artifact here")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot on shutdown")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("loadgen", help="open-loop load profiles + SLO report")
    p.add_argument("graph")
    p.add_argument("--algo", default="rho", help="rho, delta or bf")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--profile", choices=["steady", "overload", "both"],
                   default="steady")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of open-loop arrivals per profile")
    p.add_argument("--rate", type=float, default=None,
                   help="steady profile arrivals/s (default: calibrated)")
    p.add_argument("--rate-factor", type=float, default=0.5,
                   help="steady rate as a fraction of calibrated capacity")
    p.add_argument("--sources", type=int, default=16,
                   help="distinct sources in the popularity pool")
    p.add_argument("--alpha", type=float, default=1.1,
                   help="power-law popularity exponent (0 = uniform)")
    p.add_argument("--deadline", type=float, default=0.5,
                   help="per-request deadline in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON report (e.g. BENCH_serving.json)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot for the run")
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser("stream", help="replay an interleaved update+query trace")
    p.add_argument("graph")
    p.add_argument("--algo", default="rho", help="rho, delta or bf")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=2,
                   help="engine execution/repair retries on transient failure")
    p.add_argument("--cache-size", type=int, default=256,
                   help="result-cache capacity in distance vectors")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="JSON-lines trace to replay (default: synthesize one)")
    p.add_argument("--save-trace", default=None, metavar="PATH",
                   help="also write the replayed trace as JSON lines")
    p.add_argument("--events", type=int, default=64,
                   help="synthetic trace length (ignored with --trace)")
    p.add_argument("--update-every", type=int, default=8,
                   help="synthetic trace: every K-th event is an update batch")
    p.add_argument("--batch-size", type=int, default=4,
                   help="synthetic trace: edge operations per update batch")
    p.add_argument("--sources", type=int, default=8,
                   help="synthetic trace: distinct sources in the query pool")
    p.add_argument("--verify", action="store_true",
                   help="check every served answer against a fresh recompute "
                        "on the engine's current graph (bit-exact)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot (.json, or .prom/.txt for "
                        "Prometheus text format)")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("build-labels",
                       help="precompute landmark + hub-label tables (.labels)")
    p.add_argument("graph")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="where to write the .labels artifact")
    p.add_argument("--landmarks", type=int, default=16,
                   help="landmark count (clamped to the vertex count)")
    p.add_argument("--strategy", choices=["farthest", "degree"],
                   default="farthest", help="landmark selection strategy")
    p.add_argument("--algo", default="bf",
                   help="stepping policy for the landmark vectors (rho/delta/bf)")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--shortcut-rho", type=int, default=None,
                   help="run landmark SSSPs over the rho-shortcut-augmented "
                        "graph (identical vectors, fewer rounds)")
    p.add_argument("--hubs", action=argparse.BooleanOptionalAction, default=True,
                   help="also build the pruned hub labels (exact p2p tier; "
                        "--no-hubs keeps only the landmark bounds)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot for the build")
    p.set_defaults(fn=_cmd_build_labels)

    p = sub.add_parser("query",
                       help="point-to-point dist(s, t) from label tables")
    p.add_argument("graph")
    p.add_argument("source", type=int)
    p.add_argument("target", type=int)
    p.add_argument("--labels", default=None, metavar="PATH",
                   help=".labels artifact (default: build tables on the fly)")
    p.add_argument("--landmarks", type=int, default=16,
                   help="landmark count for on-the-fly builds")
    p.add_argument("--algo", default="bf",
                   help="fallback stepping policy (rho/delta/bf)")
    p.add_argument("--param", type=float, default=None, help="rho or delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="check the answer against sequential Dijkstra")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot for the query")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("generate", help="write a synthetic graph to .npz")
    p.add_argument("kind", choices=["rmat", "road-grid", "road-geo"])
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=int, default=12, help="rmat: log2 target vertices")
    p.add_argument("--degree", type=int, default=8, help="rmat: average degree")
    p.add_argument("--directed", action="store_true", help="rmat: directed output")
    p.add_argument("--side", type=int, default=64, help="road-grid: lattice side")
    p.add_argument("--n", type=int, default=4096, help="road-geo: vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    try:
        if metrics_path is None:
            return args.fn(args)
        registry = MetricsRegistry()
        try:
            with observed(registry=registry):
                return args.fn(args)
        finally:
            # Written even when the command fails: a chaos-injected run's
            # partial counters are exactly what the operator wants to see.
            write_metrics(registry, metrics_path)
            print(f"metrics written to {metrics_path}", file=sys.stderr)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
