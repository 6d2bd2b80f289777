"""Edge-update batches and CSR rebuilds for dynamic graphs.

A :class:`UpdateBatch` describes a set of edge mutations — inserts, deletes
and reweights — applied *simultaneously* to a :class:`~repro.graphs.csr.Graph`.
:func:`apply_updates` produces a brand-new CSR (and therefore a new content
:attr:`~repro.graphs.csr.Graph.fingerprint`); the original graph is never
mutated, which is what keeps every cached fingerprint-keyed artifact
(result rows, label tables, shard partitions) trivially consistent.

Semantics
---------

* **insert** ``(u, v, w)`` — add the edge; if ``(u, v)`` already exists this
  acts as a reweight (upsert), matching the simple-graph assumption (at most
  one edge per ordered pair).
* **delete** ``(u, v)`` — remove the edge; deleting a missing edge is a
  no-op.
* **reweight** ``(u, v, w)`` — set the edge weight; reweighting a missing
  edge inserts it.
* On an **undirected** graph (``directed=False``) every update applies to
  both orientations, so the CSR stays symmetric and
  :meth:`~repro.graphs.csr.Graph.validate` keeps passing.
* Duplicate updates to one edge within a batch resolve **last-wins** in
  application order (inserts, then deletes, then reweights, each in list
  order).
* A batch whose resolved effect is empty (all no-ops) returns the *same*
  graph object — the fingerprint changes iff the CSR changes.

Validation names offenders in the style of ``Graph.validate()``: the first
out-of-range endpoint, self loop, or non-positive/non-finite weight is
reported with its kind, list index and value.

:func:`resolve_updates` is the shared normalisation step: it turns a batch
into a :class:`ResolvedUpdates` delta — one row per distinct directed edge
actually changed, carrying the old and new weight — which both the CSR
rebuild and the incremental repair engine
(:func:`repro.dynamic.incremental.incremental_sssp`) consume.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graphs.csr import Graph, edge_mix_sum
from repro.obs import OBS
from repro.utils.errors import GraphFormatError

__all__ = [
    "ResolvedUpdates",
    "UpdateBatch",
    "apply_resolved",
    "apply_updates",
    "inverse_batch",
    "resolve_updates",
]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64

#: Kind codes (the ``kind`` array of a batch); names are used in error
#: messages and reprs only — semantics are carried by the weight (NaN =
#: delete, finite = set-weight).
KIND_INSERT, KIND_DELETE, KIND_REWEIGHT = 0, 1, 2
KIND_NAMES = ("insert", "delete", "reweight")


class UpdateBatch:
    """One batch of edge updates, validated lazily against a graph.

    Parameters
    ----------
    inserts:
        Iterable of ``(u, v, w)`` edges to add (upsert on collision).
    deletes:
        Iterable of ``(u, v)`` edges to remove (no-op when missing).
    reweights:
        Iterable of ``(u, v, w)`` weight changes (insert when missing).
    """

    __slots__ = ("src", "dst", "weight", "kind", "pos")

    def __init__(self, inserts=(), deletes=(), reweights=()) -> None:
        src: list[int] = []
        dst: list[int] = []
        weight: list[float] = []
        kind: list[int] = []
        pos: list[int] = []
        groups = (
            (KIND_INSERT, inserts, 3),
            (KIND_DELETE, deletes, 2),
            (KIND_REWEIGHT, reweights, 3),
        )
        for code, entries, arity in groups:
            name = KIND_NAMES[code]
            for i, entry in enumerate(entries):
                row = tuple(entry)
                if len(row) != arity:
                    want = "(u, v, w)" if arity == 3 else "(u, v)"
                    raise GraphFormatError(
                        f"{name}[{i}] must be a {want} tuple, got {entry!r}"
                    )
                try:
                    u = operator.index(row[0])
                    v = operator.index(row[1])
                except TypeError:
                    raise GraphFormatError(
                        f"{name}[{i}] endpoints must be integer vertex ids, "
                        f"got ({row[0]!r}, {row[1]!r})"
                    ) from None
                w = float(row[2]) if arity == 3 else float("nan")
                src.append(u)
                dst.append(v)
                weight.append(w)
                kind.append(code)
                pos.append(i)
        self.src = np.asarray(src, dtype=_INDEX_DTYPE)
        self.dst = np.asarray(dst, dtype=_INDEX_DTYPE)
        self.weight = np.asarray(weight, dtype=_WEIGHT_DTYPE)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.pos = np.asarray(pos, dtype=_INDEX_DTYPE)

    def __len__(self) -> int:
        return len(self.src)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = [
            f"{int((self.kind == c).sum())} {KIND_NAMES[c]}s" for c in range(3)
        ]
        return f"<UpdateBatch {', '.join(counts)}>"

    def _offender(self, row: int) -> str:
        """``"delete[3] = (u, v)"``-style label for error messages."""
        name = KIND_NAMES[int(self.kind[row])]
        u, v = int(self.src[row]), int(self.dst[row])
        if self.kind[row] == KIND_DELETE:
            return f"{name}[{int(self.pos[row])}] = ({u}, {v})"
        return f"{name}[{int(self.pos[row])}] = ({u}, {v}, {self.weight[row]!r})"

    def validate(self, n: int) -> None:
        """Check every update against an ``n``-vertex graph; name offenders."""
        if not len(self):
            return
        bad = np.flatnonzero(
            (self.src < 0) | (self.src >= n) | (self.dst < 0) | (self.dst >= n)
        )
        if bad.size:
            raise GraphFormatError(
                f"edge endpoint out of range [0, {n}): {self._offender(int(bad[0]))}"
            )
        bad = np.flatnonzero(self.src == self.dst)
        if bad.size:
            raise GraphFormatError(
                f"self loops are not representable (simple-graph assumption): "
                f"{self._offender(int(bad[0]))}"
            )
        weighted = self.kind != KIND_DELETE
        bad = np.flatnonzero(
            weighted & (~np.isfinite(self.weight) | (self.weight <= 0))
        )
        if bad.size:
            raise GraphFormatError(
                f"edge weights must be positive and finite: "
                f"{self._offender(int(bad[0]))}"
            )


@dataclass(frozen=True)
class ResolvedUpdates:
    """A batch normalised against one graph: the edges that actually change.

    One row per distinct *directed* edge (already mirrored for undirected
    graphs, duplicates resolved last-wins, no-ops dropped), sorted by
    ``(u, v)``.  ``old_w`` is the weight of the lightest stored copy of the
    edge (the one distances see; ``apply_resolved`` replaces every copy),
    ``NaN`` where the edge did not exist before; ``new_w`` is ``NaN`` where
    it does not exist after.
    """

    u: np.ndarray
    v: np.ndarray
    old_w: np.ndarray
    new_w: np.ndarray
    n: int

    @property
    def size(self) -> int:
        return len(self.u)

    @property
    def decreases(self) -> np.ndarray:
        """Rows that can only lower distances: inserts and reweights down."""
        return np.isfinite(self.new_w) & ~(self.new_w >= self.old_w)

    @cached_property
    def old_edges(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(u, v, old_w)`` of the rows whose edge existed before (cached)."""
        had = np.isfinite(self.old_w)
        return self.u[had], self.v[had], self.old_w[had]

    @cached_property
    def new_edges(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(u, v, new_w)`` of the rows whose edge exists after (cached)."""
        live = np.isfinite(self.new_w)
        return self.u[live], self.v[live], self.new_w[live]

    @cached_property
    def increases(self) -> np.ndarray:
        """Rows that can raise distances: deletes and reweights up (cached:
        every warm row repaired against this delta reads it)."""
        return np.isfinite(self.old_w) & ~(self.new_w <= self.old_w)


def _edge_keys(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted (u*n+v) keys, matching weights)`` for membership lookups."""
    keys = graph.edge_sources * np.int64(graph.n) + graph.indices
    if keys.size > 1 and not np.all(np.diff(keys) > 0):
        # Non-canonical CSR (rows not target-sorted): sort a copy for lookup.
        order = np.argsort(keys, kind="stable")
        return keys[order], graph.weights[order]
    return keys, graph.weights


def resolve_updates(graph: Graph, batch: UpdateBatch) -> ResolvedUpdates:
    """Normalise ``batch`` against ``graph`` into a :class:`ResolvedUpdates`.

    Validates the batch, mirrors it on undirected graphs, resolves
    duplicates last-wins, looks up old weights in the CSR, and drops no-ops
    (deleting a missing edge, re-setting an identical weight).
    """
    batch.validate(graph.n)
    n = graph.n
    u, v, w = batch.src, batch.dst, batch.weight
    # Application order: inserts, deletes, reweights (construction order).
    order = np.arange(len(u), dtype=_INDEX_DTYPE)
    if not graph.directed:
        # Mirror every update; the mirror shares its original's order rank so
        # last-wins stays consistent across orientations.
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
        w = np.concatenate([w, w])
        order = np.concatenate([order, order])
    if u.size:
        key = u * np.int64(n) + v
        perm = np.lexsort((order, key))
        ks = key[perm]
        last = np.r_[ks[1:] != ks[:-1], True]
        sel = perm[last]
        u, v, w, key = u[sel], v[sel], w[sel], key[sel]
        ek, ew = _edge_keys(graph)
        lo = np.searchsorted(ek, key, side="left")
        hi = np.searchsorted(ek, key, side="right")
        # The lightest copy of each pair is the one distances see: one
        # min-reduction over the slots [lo, hi) of every pair.
        ew = np.append(ew, np.inf)
        lightest = np.minimum.reduceat(ew, np.stack([lo, hi], axis=1).ravel())[::2]
        found = hi > lo
        old = np.where(found, lightest, np.nan)
        # No-ops: delete-of-missing (both NaN) or the weight the first
        # stored copy already has (the CSR stays as it is).
        first = np.where(found, ew[lo], np.nan)
        changed = ~((np.isnan(old) & np.isnan(w)) | (first == w))
        u, v, old, w = u[changed], v[changed], old[changed], w[changed]
    else:
        old = np.zeros(0, dtype=_WEIGHT_DTYPE)
    return ResolvedUpdates(u=u, v=v, old_w=old, new_w=w, n=n)


def apply_resolved(graph: Graph, resolved: ResolvedUpdates) -> Graph:
    """Patch the CSR with ``resolved`` applied; returns a new Graph.

    The CSR is already sorted by ``(u, v)`` and a batch touches few edges,
    so nothing is re-sorted: the touched slots are found by ``searchsorted``
    and dropped by mask, each surviving insert or reweight is spliced in at
    its ``searchsorted`` position among the kept keys, and ``indptr`` is
    rebuilt from the per-row counts — O(m) copying, bit-identical to
    re-sorting the whole edge list.  When ``graph``'s
    :attr:`~repro.graphs.csr.Graph.edge_sum` is known (its fingerprint was
    taken), the new graph's is derived from it in O(batch), so the new
    fingerprint costs no pass over the CSR.  Returns ``graph`` itself when
    the delta is empty (no CSR change, same fingerprint, same object —
    callers use identity to detect no-ops).
    """
    if resolved.size == 0:
        return graph
    n = graph.n
    keys = graph.edge_sources * np.int64(n) + graph.indices
    dst, weights = graph.indices, graph.weights
    if keys.size > 1 and not np.all(keys[1:] >= keys[:-1]):
        # Non-canonical CSR (rows not target-sorted): sort a copy first.
        order = np.argsort(keys, kind="stable")
        keys, dst, weights = keys[order], dst[order], weights[order]
    touched = resolved.u * np.int64(n) + resolved.v  # sorted by construction
    # Every existing copy of a touched edge goes (deleted, or replaced by
    # its new weight below): slots lo[i] .. lo[i] + copies[i] - 1.
    lo = np.searchsorted(keys, touched, side="left")
    copies = np.searchsorted(keys, touched, side="right") - lo
    drop = np.repeat(lo - np.cumsum(copies) + copies, copies)
    drop += np.arange(len(drop))
    live = np.isfinite(resolved.new_w)
    # A new edge lands after every kept key below it: its position among
    # all keys, minus the dropped slots before that, plus the new edges
    # spliced in ahead of it.
    pos = lo[live]
    slot = pos - np.searchsorted(drop, pos) + np.arange(len(pos))
    keep = np.ones(len(keys), dtype=bool)
    keep[drop] = False
    is_new = np.zeros(len(keys) - len(drop) + len(slot), dtype=bool)
    is_new[slot] = True
    out_dst = np.empty(len(is_new), dtype=_INDEX_DTYPE)
    out_w = np.empty(len(is_new), dtype=_WEIGHT_DTYPE)
    out_dst[slot], out_w[slot] = resolved.v[live], resolved.new_w[live]
    old = ~is_new
    out_dst[old], out_w[old] = dst[keep], weights[keep]
    counts = np.diff(graph.indptr)
    counts -= np.bincount(resolved.u, weights=copies, minlength=n).astype(_INDEX_DTYPE)
    counts += np.bincount(resolved.u[live], minlength=n)
    indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    if OBS.enabled:
        OBS.registry.inc("dynamic.apply.batches")
        OBS.registry.inc("dynamic.apply.edges_changed", resolved.size)
    out = Graph(
        indptr=indptr, indices=out_dst, weights=out_w,
        directed=graph.directed, name=graph.name,
    )
    known = graph.__dict__.get("edge_sum")
    if known is not None:
        # The fingerprint's edge-multiset sum in O(batch): the parent's,
        # minus the copies dropped, plus the edges inserted.
        out.__dict__["edge_sum"] = (
            known
            - edge_mix_sum(keys[drop] // n, dst[drop], weights[drop])
            + edge_mix_sum(resolved.u[live], resolved.v[live], resolved.new_w[live])
        )
    return out


def apply_updates(graph: Graph, batch: UpdateBatch) -> Graph:
    """Apply an :class:`UpdateBatch` to ``graph``; returns the updated graph.

    The entry point behind :meth:`repro.graphs.csr.Graph.apply_updates`.
    The input graph is untouched; the result is a fresh CSR with a fresh
    content fingerprint — or ``graph`` itself when the batch resolves to
    nothing (fingerprint changes iff the CSR changes).
    """
    return apply_resolved(graph, resolve_updates(graph, batch))


def inverse_batch(graph: Graph, batch: UpdateBatch) -> UpdateBatch:
    """The batch that undoes ``batch``, resolved against pre-update ``graph``.

    ``apply_updates(apply_updates(g, b), inverse_batch(g, b))`` restores the
    original CSR bit for bit (and therefore the original fingerprint) for
    canonically row-sorted graphs — the property the differential test
    suite pins.
    """
    r = resolve_updates(graph, batch)
    had = np.isfinite(r.old_w)
    reweights = [
        (int(u), int(v), float(w))
        for u, v, w in zip(r.u[had], r.v[had], r.old_w[had])
    ]
    deletes = [(int(u), int(v)) for u, v in zip(r.u[~had], r.v[~had])]
    return UpdateBatch(deletes=deletes, reweights=reweights)
