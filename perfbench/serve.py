"""Launch ``repro serve`` for the TCP workload and report when it listens.

The launcher imports the program, starts the clock, runs the kernel
autotune the first batch would otherwise pay, and hands over to the
program's own command line (``repro.cli.main(["serve", ...])``: graph load
from file, engine construction, server start, listen).
When the listening socket is bound it prints ``READY <port> <setup_s>`` on
standard output.  On SIGINT the server stops as ``repro serve`` does, and
the launcher writes peak RSS, the kernel thresholds, the server's and
engine's counters and, with ``--trace 1``, the recorded spans to ``--out``.

    python3 perfbench/serve.py --graph DIR/graph.npz --out result.json [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

import repro.cli
import repro.serving.server
from repro.runtime import kernels

sys.path.insert(0, str(Path(__file__).resolve().parent))


class _Ready(logging.Handler):
    """Turns the server's "serving on host:port" record into a READY line."""

    def __init__(self, t0: float) -> None:
        super().__init__(logging.INFO)
        self.t0 = t0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("serving on"):
            setup_s = time.perf_counter() - self.t0
            print(f"READY {record.args[1]} {setup_s!r}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    # A parent started in the background may hand down SIGINT ignored;
    # the benchmark stops the server with SIGINT, as Ctrl-C would.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    recorder = None
    if args.trace:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    servers = []
    server_cls = repro.serving.server.ShortestPathServer
    real_start = server_cls.start

    async def start(self):  # keep a handle on the server for its counters
        servers.append(self)
        await real_start(self)

    server_cls.start = start

    t0 = time.perf_counter()
    log = logging.getLogger("repro.serving.server")
    log.setLevel(logging.INFO)
    log.addHandler(_Ready(t0))
    kernels.thresholds()
    code = repro.cli.main(["serve", args.graph, "--port", "0"])

    result = {"exit": code, "thresholds": asdict(kernels.thresholds()),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if servers:
        server = servers[0]
        result["server"] = server.stats()
        result["engine"] = server.engine.stats()
    if recorder is not None:
        result["trace"] = recorder.dump()
    args.out.write_text(json.dumps(result, default=str))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
