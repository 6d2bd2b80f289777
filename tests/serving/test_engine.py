"""QueryEngine: admission (cache + dedupe), alignment, parameters, circuit breaker."""

import threading
import time

import numpy as np
import pytest

from repro.core import DEFAULT_RHO, bellman_ford, rho_stepping
from repro.serving import QueryEngine
from repro.utils.errors import CircuitOpenError, ParameterError


class TestAdmission:
    def test_batch_rows_align_with_request_order(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        sources = [7, 2, 7, 0]
        out = eng.query_batch(sources)
        assert out.shape == (4, rmat_small.n)
        for i, s in enumerate(sources):
            assert np.array_equal(out[i], bellman_ford(rmat_small, s, seed=0).dist)

    def test_in_batch_duplicates_execute_once(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([3, 3, 3, 5])
        st = eng.stats()
        assert st["executed"] == 2 and st["deduped"] == 2

    def test_cache_hits_skip_execution(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([1, 2])
        eng.query_batch([2, 4])  # 2 cached, 4 fresh
        st = eng.stats()
        assert st["executed"] == 3
        assert st["cache_hits"] == 1

    def test_duplicate_rows_identical(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        out = eng.query_batch([6, 6])
        assert np.array_equal(out[0], out[1])

    def test_empty_batch(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        assert eng.query_batch([]).shape == (0, rmat_small.n)

    def test_single_query_helper(self, rmat_small):
        eng = QueryEngine(rmat_small, "rho", 64)
        out = eng.query(5)
        assert np.array_equal(out, rho_stepping(rmat_small, 5, 64, seed=0).dist)

    def test_lru_capacity_respected(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf", cache_size=2)
        eng.query_batch([0, 1, 2, 3])
        assert eng.stats()["cache_size"] == 2


class TestModes:
    def test_rho_param_defaults(self, rmat_small):
        assert QueryEngine(rmat_small, "rho").param == DEFAULT_RHO

    def test_bf_ignores_param(self, rmat_small):
        assert QueryEngine(rmat_small, "bf", 7).param is None


class TestValidation:
    def test_unknown_algo(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "dijkstra")

    def test_unknown_mode(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", mode="turbo")

    def test_delta_requires_param(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "delta")

    def test_bad_resilience_params(self, rmat_small):
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", retries=-1)
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", failure_threshold=0)
        with pytest.raises(ParameterError):
            QueryEngine(rmat_small, "bf", deadline=0)


class TestAdmissionValidation:
    """Bad sources are rejected at admission, by name, never inside kernels."""

    def test_negative_source_rejected(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        with pytest.raises(ParameterError, match="-3"):
            eng.query_batch([0, -3])

    def test_out_of_range_source_rejected(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        with pytest.raises(ParameterError, match=str(rmat_small.n)):
            eng.query_batch([rmat_small.n])

    @pytest.mark.parametrize("bad", [2.5, "7", None, 1.0])
    def test_non_integer_source_rejected(self, rmat_small, bad):
        eng = QueryEngine(rmat_small, "bf")
        with pytest.raises(ParameterError, match="not an integer"):
            eng.query_batch([bad])

    def test_numpy_integer_sources_admitted(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        out = eng.query_batch(np.array([2, 4], dtype=np.int64))
        assert out.shape == (2, rmat_small.n)

    def test_rejected_batch_executes_nothing(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        with pytest.raises(ParameterError):
            eng.query_batch([1, rmat_small.n + 5])
        assert eng.stats()["executed"] == 0


class TestHalfOpenProbe:
    """Regression: half-open must admit exactly ONE trial batch.

    Before the probe gate, N threads arriving at the cooldown boundary all
    saw ``half-open`` and were all admitted as "the" trial — hammering the
    backend exactly when it was most fragile.  The gate is a check-then-set
    under ``_circuit_lock``; this test holds a probe open on one thread and
    proves a concurrent arrival sheds typed instead of racing in.
    """

    def test_half_open_admits_exactly_one_probe(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf", retries=0)
        eng._open_until = time.monotonic() - 1.0  # cooldown elapsed
        assert eng.circuit_state == "half-open"

        entered, release = threading.Event(), threading.Event()
        original = eng._execute_resilient

        def held_open(missing, deadline_at):
            entered.set()
            assert release.wait(5.0)
            return original(missing, deadline_at)

        eng._execute_resilient = held_open
        probe_rows = {}
        probe = threading.Thread(target=lambda: probe_rows.update(
            rows=eng.query_batch([0])
        ))
        probe.start()
        try:
            assert entered.wait(5.0)
            # The trial slot is taken: a concurrent arrival must shed typed,
            # not join the probe.
            with pytest.raises(CircuitOpenError, match="half-open"):
                eng.query_batch([1])
            assert eng.stats()["half_open_shed"] == 1
        finally:
            release.set()
            probe.join(5.0)
        # The successful trial closed the circuit and traffic flows again.
        assert eng.circuit_state == "closed"
        assert np.array_equal(
            probe_rows["rows"][0], bellman_ford(rmat_small, 0, seed=0).dist
        )
        eng.query_batch([1])
        assert eng.stats()["executed"] == 2

    def test_probe_slot_released_after_trial(self, rmat_small):
        """A finished probe frees the slot even if a later one is needed."""
        eng = QueryEngine(rmat_small, "bf", retries=0)
        eng._open_until = time.monotonic() - 1.0
        eng.query_batch([3])  # probe succeeds, closes the circuit
        assert eng._probe_inflight is False
        eng._open_until = time.monotonic() - 1.0  # trip it again
        eng.query_batch([4])  # a fresh probe must be claimable
        assert eng.circuit_state == "closed"


class TestResilienceStats:
    def test_stats_expose_resilience_counters(self, rmat_small):
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([0])
        st = eng.stats()
        assert st["circuit_state"] == "closed"
        assert st["circuit_trips"] == 0
        assert st["exec_failures"] == 0
        assert st["degraded"] == 0
        assert st["retries"] == 0

    def test_stats_is_a_deep_copy(self, rmat_small):
        """Mutating the stats() dict must never corrupt engine state."""
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([0, 1])
        st = eng.stats()
        st["executed"] = 10**6
        st["circuit_state"] = "open"
        st.clear()
        fresh = eng.stats()
        assert fresh["executed"] == 2
        assert fresh["circuit_state"] == "closed"
        # Two calls hand out independent dicts.
        assert eng.stats() is not eng.stats()

    def test_counter_attributes_are_read_only(self, rmat_small):
        """The legacy attribute API stays readable but cannot be assigned."""
        eng = QueryEngine(rmat_small, "bf")
        eng.query_batch([0])
        assert eng.executed == 1 and eng.deduped == 0
        with pytest.raises(AttributeError):
            eng.executed = 99
