"""Open-loop load generator + SLO reporter for the serving front door.

"Millions of users" is a latency distribution, not a wall-clock total — so
this module measures the server the way traffic actually arrives:

* **open loop**: arrivals are a Poisson process at a configured rate
  (exponential inter-arrival times from a seeded RNG).  Clients do *not*
  wait for the previous response before sending — which is exactly what
  makes overload visible: a closed-loop generator self-throttles and can
  never push a server past capacity.
* **power-law source popularity**: request sources are drawn from a pool of
  ``num_sources`` distinct vertices with Zipf-like weights
  (``rank^-alpha``), the realistic serving skew where a few sources are hot
  and the tail is cold.
* **per-profile SLO report**: achieved qps, latency percentiles of the
  *admitted* requests, shed/expired/failed counts by type, and — because a
  speedup that changes answers is not a speedup — every successful response
  is compared against a scalar reference run for its source; ``mismatches``
  must be zero.

The scalar baseline (``scalar_qps``) is measured from the same per-source
scalar runs that produce the reference rows, popularity-weighted: it is the
throughput a naive one-scalar-run-per-request loop would sustain on this
exact traffic, the number the front door's batching/dedup/cache has to
beat.

Capacity calibration: before the profiles run, a short closed-loop burst
against a throwaway server measures sustainable capacity for the same
source distribution; profile rates are then expressed as multiples of it
(``overload`` = 2x capacity), so "2x overload" means the same thing on a
laptop and a 96-core box.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core import (
    DEFAULT_RHO,
    bellman_ford,
    delta_star_stepping,
    rho_stepping,
)
from repro.serving.engine import QueryEngine
from repro.serving.server import ShortestPathServer
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    OverloadError,
    ParameterError,
)
from repro.utils.rng import spawn_generators

__all__ = [
    "LoadProfile",
    "build_reference",
    "measure_capacity",
    "run_profile",
    "sample_arrivals",
    "source_pool",
    "zipf_weights",
]

_SCALAR = {
    "rho": lambda g, s, p: rho_stepping(g, s, int(p if p is not None else DEFAULT_RHO), seed=0),
    "delta": lambda g, s, p: delta_star_stepping(g, s, float(p), seed=0),
    "bf": lambda g, s, p: bellman_ford(g, s, seed=0),
}


class LoadProfile:
    """One traffic profile: arrival process + popularity + SLO.

    ``rate`` is absolute arrivals/second when given; otherwise the rate is
    ``rate_factor`` x the calibrated server capacity for this profile's
    source distribution (so ``rate_factor=2.0`` *is* the 2x-overload
    profile, independent of host speed).
    """

    def __init__(
        self,
        name: str,
        *,
        duration: float = 3.0,
        rate: "float | None" = None,
        rate_factor: float = 0.5,
        num_sources: int = 16,
        alpha: float = 1.1,
        deadline: "float | None" = 0.5,
        max_arrivals: int = 20000,
        seed: int = 0,
    ) -> None:
        if duration <= 0:
            raise ParameterError(f"duration must be positive, got {duration}")
        if rate is not None and rate <= 0:
            raise ParameterError(f"rate must be positive, got {rate}")
        if rate_factor <= 0:
            raise ParameterError(f"rate_factor must be positive, got {rate_factor}")
        if num_sources < 1:
            raise ParameterError(f"num_sources must be >= 1, got {num_sources}")
        if alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {alpha}")
        if deadline is not None and deadline <= 0:
            raise ParameterError(f"deadline must be positive, got {deadline}")
        self.name = name
        self.duration = float(duration)
        self.rate = rate
        self.rate_factor = float(rate_factor)
        self.num_sources = int(num_sources)
        self.alpha = float(alpha)
        self.deadline = deadline
        self.max_arrivals = int(max_arrivals)
        self.seed = int(seed)


# --------------------------------------------------------------------------- #
# traffic shaping
# --------------------------------------------------------------------------- #


def zipf_weights(num_sources: int, alpha: float) -> np.ndarray:
    """Normalised rank^-alpha popularity weights (alpha=0 → uniform)."""
    ranks = np.arange(1, num_sources + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


def source_pool(graph, num_sources: int, seed: int = 1234) -> "list[int]":
    """``num_sources`` distinct vertices with outgoing edges (reachable work)."""
    rng = spawn_generators(seed, 1)[0]
    candidates = np.flatnonzero(graph.out_degree() > 0)
    take = min(num_sources, len(candidates))
    return [int(v) for v in rng.choice(candidates, size=take, replace=False)]


def sample_arrivals(rate: float, duration: float, rng) -> np.ndarray:
    """Cumulative Poisson arrival times in ``[0, duration)`` (open loop)."""
    expected = max(8, int(rate * duration * 1.2))
    gaps = rng.exponential(1.0 / rate, size=expected)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration:  # rare: undershot the window
        extra = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + times[-1]
        times = np.concatenate([times, extra])
    return times[times < duration]


def build_reference(graph, pool, weights, *, algo: str, param) -> "tuple[dict, float]":
    """Scalar reference rows for every pooled source, plus the scalar qps.

    Returns ``({source: distances}, scalar_qps)`` where ``scalar_qps`` is
    the popularity-weighted throughput of a one-scalar-run-per-request
    loop — each run timed once while producing the equality oracle.
    """
    if algo not in _SCALAR:
        raise ParameterError(f"unknown algo {algo!r}; choose from {sorted(_SCALAR)}")
    runner = _SCALAR[algo]
    reference: "dict[int, np.ndarray]" = {}
    per_query = 0.0
    for src, w in zip(pool, weights):
        t0 = time.perf_counter()
        reference[src] = runner(graph, src, param).dist
        per_query += float(w) * (time.perf_counter() - t0)
    return reference, (1.0 / per_query if per_query > 0 else float("inf"))


# --------------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------------- #


async def measure_capacity(
    graph,
    pool,
    weights,
    *,
    algo: str,
    param,
    seconds: float = 1.0,
    concurrency: int = 64,
    max_batch: int = 32,
    seed: int = 99,
) -> float:
    """Closed-loop burst capacity (qps) for this source distribution.

    Runs against a throwaway engine+server so calibration warms neither the
    cache nor the counters of the servers being measured.  The calibration
    engine's result cache is pinned to one entry so the number reflects
    *execution* capacity (batching + in-batch dedup) rather than cache-hit
    capacity — otherwise "2x capacity" on a cache-warm pool would be an
    arrival rate no execution path could ever absorb.
    """
    engine = QueryEngine(graph, algo, param, retries=0, cache_size=1)
    server = ShortestPathServer(
        engine, max_batch=max_batch, max_queue=max(256, 4 * concurrency),
    )
    rng = spawn_generators(seed, 1)[0]
    done = 0

    async with server:
        stop_at = time.monotonic() + seconds

        async def worker(wrng):
            nonlocal done
            while time.monotonic() < stop_at:
                src = int(wrng.choice(len(pool), p=weights))
                try:
                    await server.submit(pool[src])
                    done += 1
                except ExecutionError:
                    pass

        t0 = time.monotonic()
        await asyncio.gather(*(
            worker(r) for r in spawn_generators(int(rng.integers(2**31)), concurrency)
        ))
        elapsed = time.monotonic() - t0
    engine.close()
    return done / elapsed if elapsed > 0 else float("inf")


# --------------------------------------------------------------------------- #
# profile runner
# --------------------------------------------------------------------------- #


def _percentiles(values_ms: "list[float]") -> dict:
    if not values_ms:
        return {"p50": None, "p95": None, "p99": None, "max": None}
    arr = np.sort(np.asarray(values_ms))

    def at(q: float) -> float:
        rank = min(len(arr) - 1, max(0, int(np.ceil(q * len(arr))) - 1))
        return float(arr[rank])

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99), "max": float(arr[-1])}


async def run_profile(
    graph,
    profile: LoadProfile,
    *,
    algo: str = "rho",
    param=None,
    pool: "list[int] | None" = None,
    reference: "dict | None" = None,
    scalar_qps: "float | None" = None,
    capacity_qps: "float | None" = None,
    engine_kwargs: "dict | None" = None,
    server_kwargs: "dict | None" = None,
) -> dict:
    """Run one open-loop profile against a fresh engine+server; report SLOs.

    ``pool`` is the list of candidate sources (defaults to
    :func:`source_pool` with its default seed — pass the same pool you gave
    :func:`build_reference`).  ``reference`` (``{source: scalar
    distances}``) enables the in-run distance-equality assert.  A fresh
    :class:`QueryEngine` and :class:`ShortestPathServer` are built per
    profile so rows are independent (cold cache, zeroed counters).
    """
    if pool is None:
        pool = source_pool(graph, profile.num_sources)
    weights = zipf_weights(len(pool), profile.alpha)
    rate = profile.rate
    if rate is None:
        if capacity_qps is None:
            capacity_qps = await measure_capacity(
                graph, pool, weights, algo=algo, param=param,
            )
        rate = profile.rate_factor * capacity_qps
    rng = spawn_generators(4321 + profile.seed, 1)[0]
    arrivals = sample_arrivals(rate, profile.duration, rng)
    if arrivals.size > profile.max_arrivals:
        arrivals = arrivals[: profile.max_arrivals]
    picks = rng.choice(len(pool), size=arrivals.size, p=weights)

    engine = QueryEngine(graph, algo, param, retries=1, **(engine_kwargs or {}))
    server = ShortestPathServer(engine, **(server_kwargs or {}))

    latencies_ms: "list[float]" = []
    counts = {
        "completed": 0, "shed": 0, "expired": 0,
        "circuit": 0, "failed": 0, "mismatches": 0,
    }
    shed_reasons: "dict[str, int]" = {}
    queue_peak = 0

    async def one_request(at: float, src: int, t_origin: float) -> None:
        nonlocal queue_peak
        delay = t_origin + at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        queue_peak = max(queue_peak, server.queue_depth)
        t0 = time.monotonic()
        try:
            row = await server.submit(src, deadline=profile.deadline)
        except OverloadError as exc:
            counts["shed"] += 1
            shed_reasons[exc.reason] = shed_reasons.get(exc.reason, 0) + 1
        except DeadlineExceeded:
            counts["expired"] += 1
        except CircuitOpenError:
            counts["circuit"] += 1
        except ExecutionError:
            counts["failed"] += 1
        else:
            counts["completed"] += 1
            latencies_ms.append((time.monotonic() - t0) * 1e3)
            if reference is not None and not np.array_equal(row, reference[src]):
                counts["mismatches"] += 1

    async with server:
        t_origin = time.monotonic()
        await asyncio.gather(*(
            one_request(float(at), pool[int(k)], t_origin)
            for at, k in zip(arrivals, picks)
        ))
        elapsed = time.monotonic() - t_origin
        sstats = server.stats()
    engine.close()

    lat = _percentiles(latencies_ms)
    deadline_ms = None if profile.deadline is None else profile.deadline * 1e3
    slo_attained = None
    if deadline_ms is not None and latencies_ms:
        slo_attained = float(np.mean(np.asarray(latencies_ms) <= deadline_ms))
    report = {
        "profile": profile.name,
        "num_sources": len(pool),
        "alpha": profile.alpha,
        "deadline_ms": deadline_ms,
        "offered_qps": float(rate),
        "arrivals": int(arrivals.size),
        "duration_s": float(elapsed),
        "achieved_qps": counts["completed"] / elapsed if elapsed > 0 else 0.0,
        "capacity_qps": capacity_qps,
        "latency_ms": lat,
        "slo_attained": slo_attained,
        "queue_peak": int(queue_peak),
        "shed_reasons": shed_reasons,
        "flushes": sstats["flushes"],
        "batch_fill_mean": (
            sstats["completed"] / sstats["flushes"] if sstats["flushes"] else 0.0
        ),
        "engine_deduped": engine.deduped,
        "engine_executed": engine.executed,
        **counts,
    }
    if scalar_qps is not None:
        report["scalar_qps"] = float(scalar_qps)
        report["speedup_vs_scalar"] = (
            report["achieved_qps"] / scalar_qps if scalar_qps > 0 else float("inf")
        )
    return report
