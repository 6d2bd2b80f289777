"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import rmat, save_npz


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "g.npz"
    save_npz(rmat(8, 6, seed=2), p)
    return str(p)


def _start_server(graph_file, *args, preexec_fn=None):
    """``repro serve`` as a subprocess on a free port: ``(proc, port)``."""
    import os
    import socket
    import subprocess
    import sys
    import time

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
         "serve", graph_file, "--port", str(port), *args],
        env=env, stderr=subprocess.PIPE, text=True, preexec_fn=preexec_fn,
        start_new_session=True,  # own process group: _stop_server can reap it
    )
    for _ in range(100):  # the listener needs a moment to bind
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return proc, port
        except OSError:
            time.sleep(0.1)
    _stop_server(proc, None)
    raise AssertionError("server never bound its port")


def _stop_server(proc, sig) -> str:
    """Send ``sig`` and wait for exit (killing the whole group on a hang);
    returns the server's stderr."""
    import os
    import signal
    import subprocess

    try:
        if sig is not None:
            proc.send_signal(sig)
            return proc.communicate(timeout=30)[1]
    except subprocess.TimeoutExpired:
        pass
    os.killpg(proc.pid, signal.SIGKILL)  # pool workers too
    err = proc.communicate()[1]
    raise AssertionError(f"server did not stop on {sig!r}:\n{err}")


def _query_server(port, source):
    """One JSON-lines request over a fresh connection; the decoded reply."""
    import json
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn, \
            conn.makefile("rw") as fh:
        fh.write(json.dumps({"id": 1, "source": source}) + "\n")
        fh.flush()
        return json.loads(fh.readline())


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert set(sub.choices) == {
            "info", "run", "batch", "sweep", "trace", "generate", "partition",
            "serve", "loadgen", "stream", "build-labels", "query",
        }

    def test_run_requires_known_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "astar", "OK"])


class TestCommands:
    def test_info(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "edges" in out

    def test_info_with_krho(self, graph_file, capsys):
        assert main(["info", graph_file, "--krho", "--samples", "3"]) == 0
        assert "k_rho" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["rho", "delta-star", "delta", "bf", "dijkstra"])
    def test_run_all_algorithms(self, algo, graph_file, capsys):
        assert main(["run", algo, graph_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified against sequential Dijkstra" in out
        assert "simulated time" in out

    def test_run_with_param(self, graph_file, capsys):
        assert main(["run", "rho", graph_file, "--param", "64", "--source", "3"]) == 0
        assert "source 3" in capsys.readouterr().out

    def test_sweep(self, graph_file, capsys):
        assert main(["sweep", "PQ-delta", graph_file, "--lo", "6", "--hi", "9"]) == 0
        assert "best param" in capsys.readouterr().out

    def test_sweep_unknown_impl_fails_gracefully(self, graph_file, capsys):
        assert main(["sweep", "GraphX", graph_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_with_jobs(self, graph_file, capsys):
        assert main(["sweep", "PQ-rho", graph_file, "--lo", "6", "--hi", "8",
                     "--jobs", "2"]) == 0
        assert "best param" in capsys.readouterr().out

    def test_batch_verified(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0,3,5,0", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified 4 rows" in out
        assert "throughput" in out

    @pytest.mark.parametrize(
        "mode,flags", [("fast", []), ("pooled", ["--jobs", "2"])], ids=["fast", "pooled"]
    )
    def test_batch_modes(self, mode, flags, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "1,2", "--algo", "bf",
                     *flags, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified 2 rows" in out
        assert mode in out  # the table title names the plane

    def test_batch_delta_with_param(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0", "--algo", "delta",
                     "--param", "8", "--verify"]) == 0
        assert "verified 1 rows" in capsys.readouterr().out

    def test_batch_bad_sources(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "a,b"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_delta_missing_param(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0", "--algo", "delta"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_generate_rmat(self, tmp_path, capsys):
        out = tmp_path / "gen.npz"
        assert main(["generate", "rmat", "--out", str(out), "--scale", "7"]) == 0
        from repro.graphs import load_npz

        g = load_npz(out)
        g.validate()
        assert g.n > 30

    def test_generate_road(self, tmp_path):
        out = tmp_path / "road.npz"
        assert main(["generate", "road-grid", "--out", str(out), "--side", "10"]) == 0
        from repro.graphs import load_npz

        load_npz(out).validate()

    def test_partition_summary(self, graph_file, capsys):
        assert main(["partition", graph_file, "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "shard" in out and "cut edges" in out

    def test_partition_roundtrip_check(self, graph_file, capsys):
        assert main(["partition", graph_file, "--shards", "3",
                     "--partitioner", "ldg", "--check-roundtrip"]) == 0
        assert "round-trip" in capsys.readouterr().out

    def test_run_sharded_matches_verify(self, graph_file, capsys):
        assert main(["run", "rho", graph_file, "--shards", "4",
                     "--partitioner", "degree", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified against sequential Dijkstra" in out
        assert "shards" in out and "halo messages" in out

    def test_batch_sharded_verified(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0,2", "--shards", "2",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified 2 rows" in out
        assert "sharded[2]" in out

    def test_dataset_name_resolution(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["info", "OK"]) == 0
        assert "OK" in capsys.readouterr().out


class TestObservability:
    """--metrics on run/batch/sweep and the trace subcommand."""

    def _load_metrics(self, path):
        import json

        snap = json.loads(path.read_text())
        assert set(snap) == {"counters", "gauges", "histograms"}
        return snap

    def test_run_metrics_json_schema(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["run", "rho", graph_file, "--metrics", str(out)]) == 0
        snap = self._load_metrics(out)
        counters = snap["counters"]
        assert counters["core.steps"] >= 1
        assert counters["kernel.scatter_min.calls"] >= 1
        assert counters["pq.update.calls"] >= 1
        hist = snap["histograms"]["kernel.scatter_min.seconds"]
        assert hist["count"] == counters["kernel.scatter_min.calls"]
        assert sum(hist["counts"]) == hist["count"]
        assert "metrics written" in capsys.readouterr().err

    def test_batch_metrics_covers_serving(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["batch", graph_file, "--sources", "0,1,0",
                     "--metrics", str(out)]) == 0
        counters = self._load_metrics(out)["counters"]
        assert counters["serving.cache.misses"] == 2
        assert counters.get("serving.cache.hits", 0) == 0
        assert counters["serving.engine.executed"] == 2
        assert counters["serving.engine.deduped"] == 1
        assert "serving.batch.seconds" in self._load_metrics(out)["histograms"]

    def test_metrics_prometheus_extension(self, graph_file, tmp_path):
        out = tmp_path / "m.prom"
        assert main(["run", "bf", graph_file, "--metrics", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE core_steps_total counter" in text
        assert "kernel_scatter_min_seconds_bucket" in text

    def test_sweep_metrics_serial(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["sweep", "PQ-rho", graph_file, "--lo", "6", "--hi", "7",
                     "--metrics", str(out)]) == 0
        counters = self._load_metrics(out)["counters"]
        assert counters["core.steps"] >= 2  # one run per grid cell

    def test_sweep_metrics_pooled_merges_workers(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["sweep", "PQ-rho", graph_file, "--lo", "6", "--hi", "7",
                     "--jobs", "2", "--metrics", str(out)]) == 0
        counters = self._load_metrics(out)["counters"]
        assert counters["serving.pool.submitted"] == 2
        assert counters["serving.pool.completed"] == 2
        # Worker-side kernel counters shipped home through the result channel.
        assert counters["kernel.scatter_min.calls"] >= 1

    def test_trace_renders_span_tree(self, graph_file, capsys):
        assert main(["trace", "rho", graph_file, "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sssp.run")
        assert "sssp.step" in out and "sim_us=" in out
        assert "├─" in out or "└─" in out
        assert "simulated time" in out

    def test_trace_depth_prunes(self, graph_file, capsys):
        assert main(["trace", "rho", graph_file, "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "spans below" in out
        assert "kernel." not in out

    def test_trace_with_metrics(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["trace", "bf", graph_file, "--metrics", str(out)]) == 0
        counters = self._load_metrics(out)["counters"]
        assert counters["core.steps"] >= 1

    def test_trace_unknown_algorithm_exits(self, graph_file):
        with pytest.raises(SystemExit):
            main(["trace", "astar", graph_file])

    def test_metrics_written_even_on_failure(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["batch", graph_file, "--sources", "0", "--algo", "delta",
                     "--metrics", str(out)]) == 2  # delta requires a param
        assert out.exists()
        assert "error:" in capsys.readouterr().err

    def test_obs_seam_restored_after_command(self, graph_file, tmp_path):
        from repro.obs import OBS

        out = tmp_path / "m.json"
        assert main(["run", "bf", graph_file, "--metrics", str(out)]) == 0
        assert OBS.enabled is False


class TestErrorPaths:
    """Serving failures exit nonzero with a one-line ReproError diagnosis."""

    def test_batch_unknown_algo(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0", "--algo", "astar"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "astar" in err

    def test_batch_out_of_range_source(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "999999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "999999" in err

    def test_batch_negative_source(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "-4"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_batch_tripped_circuit(self, graph_file, capsys):
        from repro.serving import FaultPlan, install_injector

        # A persistent execution fault: with enough retries the engine's
        # breaker (threshold 5) trips mid-batch and fails fast, typed.
        install_injector(
            FaultPlan.single("engine.execute", "exception", at=None, rate=1.0, times=999)
        )
        try:
            assert main(["batch", graph_file, "--sources", "0", "--retries", "6"]) == 2
        finally:
            install_injector(None)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "circuit" in err

    def test_batch_deadline_flag_accepted(self, graph_file, capsys):
        assert main(["batch", graph_file, "--sources", "0,1",
                     "--deadline", "60", "--verify"]) == 0
        assert "verified 2 rows" in capsys.readouterr().out


class TestServingCommands:
    def test_loadgen_steady_writes_report(self, graph_file, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main([
            "loadgen", graph_file, "--profile", "steady", "--duration", "0.4",
            "--sources", "8", "--algo", "bf", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "steady profile" in text
        assert "speedup vs scalar" in text
        data = json.loads(out.read_text())
        assert data["bench"] == "serving"
        rep = data["rows"][0]
        assert rep["profile"] == "steady"
        assert rep["mismatches"] == 0
        assert rep["completed"] > 0

    def test_loadgen_rejects_unknown_profile(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", graph_file, "--profile", "spiky"])

    def test_build_labels_then_query_verified(self, graph_file, tmp_path, capsys):
        labels = str(tmp_path / "g.labels")
        assert main([
            "build-labels", graph_file, "--out", labels, "--landmarks", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "hub entries" in out and "artifact" in out
        assert main([
            "query", graph_file, "0", "5", "--labels", labels, "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_query_builds_on_the_fly_and_rejects_bad_target(self, graph_file, capsys):
        assert main(["query", graph_file, "0", "3", "--verify"]) == 0
        assert "verified" in capsys.readouterr().out
        assert main(["query", graph_file, "0", "99999"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_stream_synthetic_verified(self, graph_file, capsys):
        assert main([
            "stream", graph_file, "--events", "20", "--update-every", "4",
            "--batch-size", "3", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "stream replay" in out
        assert "update batches" in out
        assert "verified" in out

    def test_stream_replays_saved_trace(self, graph_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main([
            "stream", graph_file, "--events", "12", "--update-every", "3",
            "--save-trace", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["stream", graph_file, "--trace", trace, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "mismatches" in out and "verified" in out

    def test_stream_rejects_malformed_trace(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "compute", "source": 0}\n')
        assert main(["stream", graph_file, "--trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_metrics_covers_dynamic(self, graph_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "m.json"
        assert main([
            "stream", graph_file, "--events", "10", "--update-every", "2",
            "--metrics", str(out_path),
        ]) == 0
        snap = json.loads(out_path.read_text())
        names = " ".join(snap["counters"])
        assert "dynamic.engine.updates" in names
        assert "serving.cache.invalidations" in names or "dynamic.engine.repaired" in names

    def test_serve_roundtrip_over_tcp_and_ctrl_c(self, graph_file):
        # The serve command blocks by design: drive it as a real subprocess,
        # speak the JSON-lines protocol at it, and stop it with SIGINT (the
        # operator's Ctrl-C) — which must exit 0, not dump a traceback.
        import signal

        proc, port = _start_server(graph_file, "--algo", "bf")
        try:
            reply = _query_server(port, source=0)
            assert reply["ok"] is True and reply["reached"] >= 1
        finally:
            err = _stop_server(proc, signal.SIGINT)
        assert proc.returncode == 0
        assert "interrupted; server stopped" in err

    @pytest.mark.parametrize("stop", ["SIGTERM", "SIGINT"])
    def test_serve_drains_on_signal_with_sigint_ignored(self, graph_file, stop):
        # Started in the background from a non-interactive shell, a server
        # inherits SIGINT ignored; SIGTERM, and SIGINT too, must still drain
        # it — pooled workers included — and exit 0.
        import signal

        proc, port = _start_server(
            graph_file, "--algo", "bf", "--jobs", "2",
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            reply = _query_server(port, source=1)
            assert reply["ok"] is True and reply["reached"] >= 1
        finally:
            err = _stop_server(proc, getattr(signal, stop))
        assert proc.returncode == 0, err
        assert "interrupted; server stopped" in err
