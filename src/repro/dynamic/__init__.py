"""Dynamic graphs: edge-update batches and incremental SSSP repair.

The static stack answers queries against an immutable CSR; this package
makes the graph *evolve* without giving up any of that machinery:

* :class:`UpdateBatch` / :func:`apply_updates` — insert/delete/reweight
  batches resolved against a graph and applied as a new canonical CSR with
  a new content fingerprint (``Graph`` stays immutable; see
  :meth:`repro.graphs.csr.Graph.apply_updates`).
* :func:`incremental_sssp` — repairs a warm distance vector on the updated
  graph by invalidating the affected cone and draining the unchanged
  stepping policies from its frontier; bit-identical to a fresh run.
  :func:`repair_frontier` is its first half (cone reset plus seeds), which
  the serving engine runs per warm row before one lockstep drain.
* :mod:`repro.dynamic.stream` — interleaved update+query traces behind the
  ``repro stream`` CLI.

Serving integration (cache invalidation by fingerprint, warm entries
repaired in one lockstep drain, the ``engine.update`` fault site) lives in
:meth:`repro.serving.engine.QueryEngine.apply_updates`.
"""

from repro.dynamic.incremental import affected_cone, incremental_sssp, repair_frontier
from repro.dynamic.stream import (
    batch_from_event,
    load_trace,
    replay,
    save_trace,
    synth_trace,
)
from repro.dynamic.updates import (
    ResolvedUpdates,
    UpdateBatch,
    apply_resolved,
    apply_updates,
    inverse_batch,
    resolve_updates,
)

__all__ = [
    "ResolvedUpdates",
    "UpdateBatch",
    "affected_cone",
    "apply_resolved",
    "apply_updates",
    "batch_from_event",
    "incremental_sssp",
    "inverse_batch",
    "load_trace",
    "repair_frontier",
    "replay",
    "resolve_updates",
    "save_trace",
    "synth_trace",
]
