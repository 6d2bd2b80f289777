"""Chaos suite: injected faults must never change served answers.

Every test drives the stack through a seeded
:class:`~repro.serving.faults.FaultPlan` — killing, hanging, faulting or
corrupting workers and engine executions — and asserts the recovered results
are **bit-identical** to a fault-free run (the same equivalence oracle the
kernel and batch-engine suites use).  Resilience that changes answers is not
resilience.
"""

import time

import numpy as np
import pytest

from repro.analysis import get_implementation, simulated_time
from repro.graphs import rmat, save_npz
from repro.graphs.io import load_npz
from repro.obs import MetricsRegistry, observed
from repro.runtime import MachineModel
from repro.serving import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QueryEngine,
    SweepPool,
    install_injector,
)
from repro.utils.errors import CircuitOpenError, DeadlineExceeded


@pytest.fixture(autouse=True)
def _restore_injector():
    yield
    install_injector(None)


@pytest.fixture(scope="module")
def machine():
    return MachineModel()


def _serial_times(graph, impl_key, param, sources, machine, seed=0):
    impl = get_implementation(impl_key)
    return [
        float(simulated_time(impl.run(graph, int(s), param, seed=seed), machine, impl.profile))
        for s in sources
    ]


SWEEP_PLANS = {
    "crash": FaultPlan.single("pool.worker", "crash", at=(1,), times=1),
    "hang": FaultPlan.single("pool.worker", "hang", at=(0,), times=1, delay=2.0),
    "exception": FaultPlan.single("pool.worker", "exception", at=(0, 2), times=1),
    "corrupt": FaultPlan.single("pool.worker", "corrupt", at=(1,), times=1),
}


class TestSweepChaos:
    @pytest.mark.parametrize("kind", sorted(SWEEP_PLANS))
    def test_sweep_bit_identical_under_faults(self, rmat_small, machine, kind):
        sources = [0, 1, 2, 3]
        fault_free = _serial_times(rmat_small, "PQ-rho", 64, sources, machine)
        timeout = 0.6 if kind == "hang" else None
        with SweepPool(
            rmat_small, 2, timeout=timeout, retries=3, backoff=0.01,
            fault_plan=SWEEP_PLANS[kind],
        ) as pool:
            chaotic = pool.simulated_times("PQ-rho", 64, sources, machine)
            st = pool.stats()
        assert chaotic == fault_free
        assert st["retried"] >= 1  # the fault actually landed and was healed
        if kind == "crash":
            assert st["crashes"] >= 1 and st["rebuilds"] >= 1
        if kind == "hang":
            assert st["timeouts"] >= 1 and st["rebuilds"] >= 1
        if kind == "corrupt":
            assert st["rejected"] >= 1

    def test_crash_mid_grid_recovers_full_grid(self, rmat_small, machine):
        """A worker crash mid-sweep no longer aborts the sweep (acceptance)."""
        params, sources = [32.0, 64.0], [0, 1, 2]
        serial = [
            _serial_times(rmat_small, "PQ-rho", p, sources, machine) for p in params
        ]
        plan = FaultPlan.single("pool.worker", "crash", at=(3,), times=1)
        with SweepPool(rmat_small, 2, retries=2, backoff=0.01, fault_plan=plan) as pool:
            grid = pool.map_cells("PQ-rho", params, sources, machine)
            st = pool.stats()
        assert grid == serial
        assert st["rebuilds"] >= 1  # the recovery event is visible in stats()

    def test_seeded_fault_storm_still_bit_identical(self, rmat_small, machine):
        """Rate-based (seeded) exceptions + one corruption across the grid."""
        sources = list(range(6))
        fault_free = _serial_times(rmat_small, "PQ-rho", 64, sources, machine)
        plan = FaultPlan(
            specs=(
                FaultSpec("pool.worker", "exception", at=None, rate=0.4, times=1),
                FaultSpec("pool.worker", "corrupt", at=(4,), times=1),
            ),
            seed=21,
        )
        with SweepPool(rmat_small, 2, retries=3, backoff=0.01, fault_plan=plan) as pool:
            chaotic = pool.simulated_times("PQ-rho", 64, sources, machine)
        assert chaotic == fault_free


class TestEngineChaos:
    def test_transient_execute_fault_retried(self, rmat_small):
        fault_free = QueryEngine(rmat_small, "bf").query_batch([0, 1, 2])
        install_injector(FaultPlan.single("engine.execute", "exception", at=(0,), times=2))
        eng = QueryEngine(rmat_small, "bf", retries=2)
        out = eng.query_batch([0, 1, 2])
        assert np.array_equal(out, fault_free)
        st = eng.stats()
        assert st["exec_failures"] == 2 and st["circuit_state"] == "closed"

    def test_corrupt_payload_rejected_and_retried(self, rmat_small):
        fault_free = QueryEngine(rmat_small, "bf").query_batch([3, 5])
        install_injector(FaultPlan.single("engine.execute", "corrupt", at=(0,), times=1))
        eng = QueryEngine(rmat_small, "bf", retries=1)
        out = eng.query_batch([3, 5])
        assert np.array_equal(out, fault_free)
        assert eng.stats()["exec_failures"] == 1

    def test_hang_trips_deadline(self, rmat_small):
        install_injector(
            FaultPlan.single("engine.execute", "hang", at=(0,), times=99, delay=0.5)
        )
        eng = QueryEngine(rmat_small, "bf", retries=0)
        with pytest.raises(DeadlineExceeded):
            eng.query_batch([0], deadline=0.1)
        # The failure is counted but one miss does not trip the breaker.
        st = eng.stats()
        assert st["exec_failures"] == 1 and st["circuit_state"] == "closed"

    def test_deadline_chunked_execution_bit_identical(self, rmat_small):
        """A generous deadline chunks execution but must not change answers."""
        sources = list(range(20))
        fault_free = QueryEngine(rmat_small, "bf").query_batch(sources)
        with_deadline = QueryEngine(rmat_small, "bf").query_batch(sources, deadline=60.0)
        assert np.array_equal(with_deadline, fault_free)


class TestCircuitBreaker:
    def _failing_engine(self, graph, **kw):
        install_injector(
            FaultPlan.single("engine.execute", "exception", at=None, rate=1.0, times=999)
        )
        return QueryEngine(graph, "bf", retries=0, failure_threshold=3, cooldown=0.2, **kw)

    def test_trips_serves_cache_half_opens_recovers(self, rmat_small):
        baseline = QueryEngine(rmat_small, "bf").query_batch([0])
        eng = QueryEngine(rmat_small, "bf", retries=0, failure_threshold=3, cooldown=0.2)
        cached = eng.query_batch([0])  # warm the cache before the storm
        assert np.array_equal(cached, baseline)
        install_injector(
            FaultPlan.single("engine.execute", "exception", at=None, rate=1.0, times=999)
        )
        with pytest.raises(InjectedFault):
            eng.query_batch([1])
        with pytest.raises(InjectedFault):
            eng.query_batch([2])
        with pytest.raises(CircuitOpenError):  # third failure trips mid-call
            eng.query_batch([3])
        assert eng.stats()["circuit_state"] == "open"
        assert eng.stats()["circuit_trips"] == 1
        # Open circuit: misses fail fast without executing...
        executed_before = eng.stats()["executed"]
        with pytest.raises(CircuitOpenError):
            eng.query_batch([4])
        assert eng.stats()["executed"] == executed_before
        # ...while cache hits are still served.
        assert np.array_equal(eng.query_batch([0]), baseline)
        # After the cooldown the circuit half-opens; a healthy trial closes it.
        time.sleep(0.25)
        assert eng.stats()["circuit_state"] == "half-open"
        install_injector(None)
        out = eng.query_batch([1])
        assert np.array_equal(out, QueryEngine(rmat_small, "bf").query_batch([1]))
        assert eng.stats()["circuit_state"] == "closed"
        assert eng.stats()["circuit_trips"] == 1

    def test_failed_half_open_trial_reopens(self, rmat_small):
        eng = self._failing_engine(rmat_small)
        for s in (1, 2):
            with pytest.raises(InjectedFault):
                eng.query_batch([s])
        with pytest.raises(CircuitOpenError):
            eng.query_batch([3])
        time.sleep(0.25)  # half-open, but the fault is still there
        # The failed trial re-opens the circuit, which aborts the retry loop
        # with the typed fast-fail error (the injected fault is chained).
        with pytest.raises(CircuitOpenError):
            eng.query_batch([4])
        assert eng.stats()["circuit_state"] == "open"
        assert eng.stats()["circuit_trips"] == 1  # a re-open is not a new trip


class TestChaosMetrics:
    """Injected faults must show up in the metrics registry, exactly.

    The seeded FaultPlan makes every recovery event deterministic, so the
    counters are asserted against the plan (and against ``stats()``, which
    the metrics must mirror 1:1) rather than with loose ``>=`` bounds.
    """

    @pytest.mark.parametrize("kind", ["crash", "hang", "corrupt"])
    def test_sweep_fault_counters_match_plan_and_stats(self, rmat_small, machine, kind):
        registry = MetricsRegistry()
        timeout = 0.6 if kind == "hang" else None
        with observed(registry=registry):
            with SweepPool(
                rmat_small, 2, timeout=timeout, retries=3, backoff=0.01,
                fault_plan=SWEEP_PLANS[kind],
            ) as pool:
                pool.simulated_times("PQ-rho", 64, [0, 1, 2, 3], machine)
                st = pool.stats()
        counters = registry.snapshot()["counters"]
        # Every supervision counter mirrors into serving.pool.* exactly.
        for key, value in st.items():
            assert counters.get(f"serving.pool.{key}", 0) == value
        # The plan injects exactly one fault, so all 4 cells still complete
        # and the recovery events are the plan's, precisely.
        assert counters["serving.pool.submitted"] == 4
        assert counters["serving.pool.completed"] == 4
        assert counters["serving.pool.retried"] >= 1
        if kind == "crash":
            # One crash poisons every in-flight future, so the counter is
            # per affected task; the rebuild is one event.
            assert counters["serving.pool.crashes"] >= 1
            assert counters["serving.pool.rebuilds"] == 1
        if kind == "hang":
            assert counters["serving.pool.timeouts"] == 1
            assert counters["serving.pool.rebuilds"] == 1
        if kind == "corrupt":
            # Parent-side validation is serial: exactly one reject, one retry.
            assert counters["serving.pool.rejected"] == 1
            assert counters["serving.pool.retried"] == 1

    def test_engine_retry_counters_match_plan(self, rmat_small):
        plan = FaultPlan.single("engine.execute", "exception", at=(0,), times=2)
        install_injector(plan)
        registry = MetricsRegistry()
        eng = QueryEngine(rmat_small, "bf", retries=2)
        with observed(registry=registry):
            eng.query_batch([0, 1])
        counters = registry.snapshot()["counters"]
        st = eng.stats()
        # times=2 at the first execution: exactly 2 failures, 2 retries.
        assert counters["serving.engine.exec_failures"] == 2 == st["exec_failures"]
        assert counters["serving.engine.retries"] == 2 == st["retries"]
        assert counters["serving.engine.executed"] == 2 == st["executed"]
        assert "serving.engine.degraded" not in counters

    def test_circuit_transitions_recorded(self, rmat_small):
        install_injector(
            FaultPlan.single("engine.execute", "exception", at=None, rate=1.0, times=999)
        )
        registry = MetricsRegistry()
        eng = QueryEngine(rmat_small, "bf", retries=0, failure_threshold=2, cooldown=30.0)
        with observed(registry=registry):
            with pytest.raises(InjectedFault):
                eng.query_batch([0])
            with pytest.raises(CircuitOpenError):  # second failure trips mid-call
                eng.query_batch([1])
        snap = registry.snapshot()
        assert snap["counters"]["serving.circuit.open_transitions"] == 1
        assert snap["gauges"]["serving.circuit.state"] == 2  # open
        assert eng.stats()["circuit_trips"] == 1

    def test_cache_counters_match_engine_stats(self, rmat_small):
        registry = MetricsRegistry()
        eng = QueryEngine(rmat_small, "bf", cache_size=2)
        with observed(registry=registry):
            eng.query_batch([0, 1])   # 2 misses, 2 inserts
            eng.query_batch([0, 1])   # 2 hits
            eng.query_batch([2])      # miss + insert -> evicts source 0
        counters = registry.snapshot()["counters"]
        st = eng.stats()
        assert counters["serving.cache.hits"] == 2 == st["cache_hits"]
        assert counters["serving.cache.misses"] == 3 == st["cache_misses"]
        assert counters["serving.cache.inserts"] == 3
        assert counters["serving.cache.evictions"] == 1 == st["cache_evictions"]
        assert counters["serving.engine.deduped"] == 2 == st["deduped"]


class TestGraphLoadChaos:
    def test_load_site_fires_and_recovers(self, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(rmat(7, 6, seed=3), path)
        install_injector(FaultPlan.single("graph.load", "exception", at=(0,), times=1))
        with pytest.raises(InjectedFault):
            load_npz(path)
        g = load_npz(path)  # second invocation passes the at=(0,) spec
        g.validate()
