"""Sharded BSP executor: bit-identical distances for every algorithm ×
partitioner × shard count (the subsystem's acceptance matrix)."""

import time

import numpy as np
import pytest

from repro.core import SteppingOptions, stepping_sssp
from repro.core.policies import (
    BellmanFordPolicy,
    DeltaPolicy,
    DeltaStarPolicy,
    DijkstraPolicy,
    RadiusPolicy,
    RhoPolicy,
)
from repro.obs import MetricsRegistry, Tracer, observed
from repro.shard import PARTITIONERS, ShardedGraph, sharded_sssp
from repro.utils.errors import DeadlineExceeded, ParameterError

METHODS = sorted(PARTITIONERS)
SHARD_COUNTS = [1, 2, 4, 7]

POLICIES = {
    "delta-star": lambda: DeltaStarPolicy(2.0**14),
    "rho": lambda: RhoPolicy(64),
    "bf": lambda: BellmanFordPolicy(),
}


def scalar_reference(graph, source, make_policy, seed=7):
    return stepping_sssp(graph, source, make_policy(), seed=seed).dist


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", SHARD_COUNTS)
@pytest.mark.parametrize("algo", sorted(POLICIES))
def test_bit_identical_rmat(rmat_small, method, k, algo):
    make = POLICIES[algo]
    ref = scalar_reference(rmat_small, 0, make)
    res = sharded_sssp(rmat_small, 0, make(), num_shards=k, method=method, seed=7)
    assert np.array_equal(res.dist, ref)
    assert res.params["num_shards"] == k
    assert res.params["partitioner"] == method


@pytest.mark.parametrize("algo", sorted(POLICIES))
def test_bit_identical_road(road_small, algo):
    make = POLICIES[algo]
    ref = scalar_reference(road_small, 5, make)
    for method in METHODS:
        res = sharded_sssp(road_small, 5, make(), num_shards=4, method=method, seed=7)
        assert np.array_equal(res.dist, ref)


@pytest.mark.parametrize("algo", sorted(POLICIES))
def test_bit_identical_directed(rmat_directed, algo):
    make = POLICIES[algo]
    ref = scalar_reference(rmat_directed, 3, make)
    res = sharded_sssp(rmat_directed, 3, make(), num_shards=4, method="ldg", seed=7)
    assert np.array_equal(res.dist, ref)


def test_zero_frontier_shards(path_graph):
    # On a path with 7 contiguous shards, only the frontier's shard (and at
    # a boundary, its successor) has queued work — most shards extract
    # nothing in most supersteps and must idle cleanly.
    make = POLICIES["delta-star"]
    ref = scalar_reference(path_graph, 0, make)
    res = sharded_sssp(path_graph, 0, make(), num_shards=7, method="contiguous", seed=7)
    assert np.array_equal(res.dist, ref)
    assert res.params["halo_messages"] >= 6  # every boundary crossed at least once


def test_unreached_vertices_stay_inf(rmat_directed):
    # Directed graphs can have unreachable vertices; they must stay at inf.
    ref = scalar_reference(rmat_directed, 0, POLICIES["bf"])
    res = sharded_sssp(rmat_directed, 0, BellmanFordPolicy(), num_shards=3, method="degree")
    assert np.array_equal(res.dist, ref)
    assert np.isinf(res.dist).sum() == np.isinf(ref).sum()


def test_prebuilt_sharded_graph_is_reused(rmat_small):
    sg = ShardedGraph.build(rmat_small, 4, "ldg", seed=2)
    make = POLICIES["rho"]
    ref = scalar_reference(rmat_small, 0, make)
    a = sharded_sssp(rmat_small, 0, make(), sharded=sg, seed=7)
    b = sharded_sssp(rmat_small, 0, make(), sharded=sg, seed=7)
    assert np.array_equal(a.dist, ref)
    assert np.array_equal(b.dist, ref)


def test_delta_and_dijkstra_policies(rmat_small):
    for make in (lambda: DeltaPolicy(2.0**14), lambda: DijkstraPolicy()):
        ref = scalar_reference(rmat_small, 0, make)
        res = sharded_sssp(rmat_small, 0, make(), num_shards=2, method="contiguous", seed=7)
        assert np.array_equal(res.dist, ref)


def test_augmented_policy_rejected(rmat_small):
    with pytest.raises(ParameterError, match="augment"):
        sharded_sssp(rmat_small, 0, RadiusPolicy(), num_shards=2)


def test_bad_parameters(rmat_small):
    with pytest.raises(ParameterError):
        sharded_sssp(rmat_small, 0, BellmanFordPolicy(), num_shards=0)
    with pytest.raises(ParameterError):
        sharded_sssp(rmat_small, rmat_small.n, BellmanFordPolicy(), num_shards=2)


def test_superstep_stats_and_params(rmat_small):
    res = sharded_sssp(rmat_small, 0, DeltaStarPolicy(2.0**14), num_shards=4,
                       method="degree", seed=7)
    assert res.stats.num_steps >= 1
    assert all(rec.mode == "bsp" for rec in res.stats.steps)
    assert res.params["cut_edges"] > 0
    assert res.params["halo_messages"] > 0
    assert res.stats.total_edge_visits >= rmat_small.m  # every edge relaxed


def test_shard_metrics_and_spans(rmat_small):
    registry = MetricsRegistry()
    tracer = Tracer()
    with observed(registry=registry, tracer=tracer):
        sharded_sssp(rmat_small, 0, RhoPolicy(64), num_shards=4, method="ldg", seed=7)
    snap = registry.snapshot()
    counters = snap["counters"]
    assert counters["shard.supersteps"] >= 1
    assert counters["shard.halo.messages"] >= 1
    assert counters["shard.edges"] >= rmat_small.m
    assert "shard.partition.cut_edges" in snap["gauges"]
    root = next(s for s in tracer.roots if s.name == "shard.run")
    assert root.attrs["shards"] == 4
    assert len(root.find("shard.superstep")) == counters["shard.supersteps"]


def test_max_steps_guard(rmat_small):
    opts = SteppingOptions(max_steps=1)
    with pytest.raises(RuntimeError, match="max_steps"):
        sharded_sssp(rmat_small, 0, DijkstraPolicy(), num_shards=2, options=opts)


class TestDeadlinePropagation:
    """``deadline_at`` cancels a straggling run between BSP supersteps."""

    def test_expired_deadline_cancels_before_first_superstep(self, rmat_small):
        registry = MetricsRegistry()
        with observed(registry=registry):
            with pytest.raises(DeadlineExceeded):
                sharded_sssp(
                    rmat_small, 0, BellmanFordPolicy(), num_shards=2,
                    deadline_at=time.monotonic() - 1.0, seed=7,
                )
        # The check runs at the top of the loop: no superstep ever executed.
        assert registry.snapshot()["counters"].get("shard.supersteps", 0) == 0

    def test_deadline_checked_between_supersteps(self, rmat_small):
        # A policy slow enough that the budget dies mid-run: the executor
        # must finish the superstep it is in, then raise at the loop head —
        # partial progress, typed error, no wedged run.
        class SlowDijkstra(DijkstraPolicy):
            def decide(self, ctx):
                time.sleep(0.05)
                return super().decide(ctx)

        registry = MetricsRegistry()
        with observed(registry=registry):
            with pytest.raises(DeadlineExceeded, match="supersteps"):
                sharded_sssp(
                    rmat_small, 0, SlowDijkstra(), num_shards=2,
                    deadline_at=time.monotonic() + 0.02, seed=7,
                )
        done = registry.snapshot()["counters"]["shard.supersteps"]
        assert done >= 1  # it ran until the between-superstep check fired
        full = sharded_sssp(rmat_small, 0, DijkstraPolicy(), num_shards=2, seed=7)
        assert done < full.stats.num_steps  # ...but never to completion

    def test_generous_deadline_changes_nothing(self, rmat_small):
        ref = scalar_reference(rmat_small, 0, POLICIES["bf"])
        res = sharded_sssp(
            rmat_small, 0, BellmanFordPolicy(), num_shards=2,
            deadline_at=time.monotonic() + 60.0, seed=7,
        )
        assert np.array_equal(res.dist, ref)
