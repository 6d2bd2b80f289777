"""Tracer, span-tree rendering, exporters, and the OBS seam itself."""

import json
import time

import pytest

from repro.core import SteppingOptions, stepping_sssp
from repro.core.policies import BellmanFordPolicy, DijkstraPolicy
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    NullTracer,
    Tracer,
    get_registry,
    get_tracer,
    install,
    observed,
    render_span_tree,
    reset,
    to_prometheus,
    write_metrics,
)
from repro.shard import sharded_sssp
from repro.utils.errors import DeadlineExceeded


class FakeClock:
    """Deterministic monotonic clock: each read advances by one tick."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTracerNesting:
    def test_stack_nesting(self):
        t = Tracer(clock=FakeClock())
        a = t.begin("a")
        b = t.begin("b")
        t.end(b)
        t.end(a)
        assert [s.name for s in t.roots] == ["a"]
        assert [s.name for s in a.children] == ["b"]
        assert b.duration > 0 and a.duration > b.duration

    def test_span_context_manager(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer") as outer:
            with t.span("inner", k=1):
                pass
        assert outer.children[0].attrs == {"k": 1}
        assert t.current() is None

    def test_end_closes_dangling_children(self):
        """A child left open closes with its parent's end time."""
        t = Tracer(clock=FakeClock())
        a = t.begin("a")
        b = t.begin("b")  # never ended explicitly
        t.end(a)
        assert b.t1 == a.t1
        assert t.current() is None

    def test_explicit_parent_spans_overlap(self):
        """Batch-lane style: K open spans under one parent, closed out of order."""
        t = Tracer(clock=FakeClock())
        round_span = t.begin("round")
        lanes = [t.open("step", parent=round_span, lane=i) for i in range(3)]
        for lane in reversed(lanes):
            t.close(lane)
        t.end(round_span)
        assert [s.attrs["lane"] for s in round_span.children] == [0, 1, 2]
        assert all(s.t1 is not None for s in lanes)
        # close() must not touch the stack: the round span stayed current.
        assert t.roots == [round_span]

    def test_open_without_parent_attaches_to_stack(self):
        t = Tracer(clock=FakeClock())
        a = t.begin("a")
        orphan = t.open("orphan")
        t.close(orphan)
        t.end(a)
        root = t.open("root-level")
        assert orphan in a.children and root in t.roots

    def test_walk_and_find(self):
        t = Tracer(clock=FakeClock())
        with t.span("run"):
            for _ in range(3):
                with t.span("step"):
                    with t.span("kernel.x"):
                        pass
        run = t.roots[0]
        assert len(run.find("step")) == 3
        assert len(list(run.walk())) == 7

    def test_null_tracer_is_inert(self):
        t = NullTracer()
        s = t.begin("x", k=1)
        s.set(z=2)
        t.end(s)
        t.close(t.open("y"))
        with t.span("w") as w:
            assert w.find("anything") == []
        assert t.roots == () and t.current() is None and s.attrs == {}


class TestRender:
    def _tree(self):
        t = Tracer(clock=FakeClock())
        with t.span("run", algo="rho"):
            with t.span("step", index=0):
                with t.span("kernel.scatter_min", size=8):
                    pass
            with t.span("step", index=1):
                pass
        return t.roots[0]

    def test_full_tree(self):
        text = render_span_tree(self._tree())
        lines = text.splitlines()
        assert lines[0].startswith("run ") and "algo=rho" in lines[0]
        assert sum("step" in ln for ln in lines) == 2
        assert any("kernel.scatter_min" in ln and "size=8" in ln for ln in lines)
        assert "├─" in text and "└─" in text

    def test_max_depth_prunes_visibly(self):
        text = render_span_tree(self._tree(), max_depth=1)
        assert "kernel.scatter_min" not in text
        assert "1 spans below" in text

    def test_depth_zero_is_root_only(self):
        text = render_span_tree(self._tree(), max_depth=0)
        assert len(text.splitlines()) == 2  # root + pruning summary
        assert "2 spans below" not in text  # counts all descendants: 3


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("core.steps", 3)
        registry.set_gauge("serving.circuit.state", 2)
        registry.observe("kernel.x.seconds", 0.3, (0.25, 0.5, 1.0))
        registry.observe("kernel.x.seconds", 99.0, (0.25, 0.5, 1.0))
        return registry

    def test_prometheus_text(self):
        text = to_prometheus(self._registry().snapshot())
        assert "# TYPE core_steps_total counter" in text
        assert "core_steps_total 3" in text
        assert "serving_circuit_state 2" in text
        # Cumulative buckets with inclusive le edges plus +Inf.
        assert 'kernel_x_seconds_bucket{le="0.5"} 1' in text
        assert 'kernel_x_seconds_bucket{le="1"} 1' in text
        assert 'kernel_x_seconds_bucket{le="+Inf"} 2' in text
        assert "kernel_x_seconds_count 2" in text

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(self._registry(), path)
        snap = json.loads(path.read_text())
        assert snap["counters"]["core.steps"] == 3
        assert snap["histograms"]["kernel.x.seconds"]["count"] == 2

    def test_write_prometheus_by_extension(self, tmp_path):
        path = tmp_path / "m.prom"
        write_metrics(self._registry(), path)
        assert "core_steps_total 3" in path.read_text()


class TestObsSeam:
    def test_default_is_disabled(self):
        reset()
        assert OBS.enabled is False
        assert get_registry() is NULL_REGISTRY and get_tracer() is NULL_TRACER

    def test_install_none_leaves_slot(self):
        registry = MetricsRegistry()
        install(registry=registry)
        assert OBS.enabled and OBS.tracer is NULL_TRACER
        tracer = Tracer()
        install(tracer=tracer)  # registry slot untouched
        assert OBS.registry is registry and OBS.tracer is tracer
        reset()
        assert not OBS.enabled

    def test_observed_restores_previous(self):
        outer = MetricsRegistry()
        install(registry=outer)
        with observed(registry=MetricsRegistry(), tracer=Tracer()):
            assert OBS.registry is not outer
        assert OBS.registry is outer and OBS.tracer is NULL_TRACER

    def test_observed_tracer_layers_inside_registry_scope(self):
        registry = MetricsRegistry()
        with observed(registry=registry):
            with observed(tracer=Tracer()):
                assert OBS.registry is registry  # None left the slot alone
                OBS.registry.inc("x")
        assert registry.counter("x").value == 1.0

    def test_observed_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with observed(registry=MetricsRegistry()):
                raise RuntimeError("boom")
        assert not OBS.enabled

    def test_kernel_helper_records_span_and_metrics(self):
        registry, tracer = MetricsRegistry(), Tracer()
        with observed(registry=registry, tracer=tracer):
            with OBS.kernel("scatter_min", 42):
                pass
        snap = registry.snapshot()
        assert snap["counters"]["kernel.scatter_min.calls"] == 1
        assert snap["counters"]["kernel.scatter_min.elements"] == 42
        assert snap["histograms"]["kernel.scatter_min.seconds"]["count"] == 1
        (span,) = tracer.roots
        assert span.name == "kernel.scatter_min" and span.attrs["size"] == 42


class TestRunSpansCloseOnRaise:
    """A run that raises closes its span, so the next run is a new root."""

    @staticmethod
    def _assert_two_closed_roots(tracer, name):
        assert [s.name for s in tracer.roots] == [name, name]
        assert all(s.t1 is not None for root in tracer.roots for s in root.walk())

    @pytest.mark.parametrize("raise_path", ["deadline", "max_steps"])
    def test_sharded_run(self, rmat_small, raise_path):
        if raise_path == "deadline":  # cancelled before its first superstep
            kw, exc = {"deadline_at": time.monotonic() - 1.0}, DeadlineExceeded
        else:  # raised inside superstep 2, with that superstep's span open
            kw, exc = {"options": SteppingOptions(max_steps=1)}, RuntimeError
        tracer = Tracer()
        with observed(tracer=tracer):
            with pytest.raises(exc):
                sharded_sssp(rmat_small, 0, DijkstraPolicy(), num_shards=2,
                             seed=7, **kw)
            sharded_sssp(rmat_small, 0, BellmanFordPolicy(), num_shards=2, seed=7)
        self._assert_two_closed_roots(tracer, "shard.run")

    def test_stepping_run(self, rmat_small):
        tracer = Tracer()
        with observed(tracer=tracer):
            with pytest.raises(RuntimeError, match="max_steps"):
                stepping_sssp(rmat_small, 0, DijkstraPolicy(),
                              options=SteppingOptions(max_steps=1), seed=7)
            stepping_sssp(rmat_small, 0, BellmanFordPolicy(), seed=7)
        self._assert_two_closed_roots(tracer, "sssp.run")
