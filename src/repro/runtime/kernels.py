"""Vectorised kernels for the relaxation hot path.

Every algorithm in this package funnels through the same three primitives per
relaxation wave:

* **scatter-min** — ``values[targets] = min(values[targets], candidates)``
  with duplicate targets (the batched ``WriteMin``);
* **frontier dedup** — collapse the successful targets to a sorted unique id
  set (the ``Q.Update`` batch);
* **edge gather** — flatten the CSR rows of a frontier into parallel edge
  arrays.

NumPy offers several implementations of each with wildly different constants:
``np.minimum.at`` is a scalar buffered loop on old builds but has an indexed
fast path since 1.24; ``np.unique`` pays an O(k log k) sort where a mark-bit
array plus ``flatnonzero`` costs O(k + n/w); the textbook gather recomputes
``cumsum`` + two ``np.repeat`` passes per wave where one repeat plus cached
degrees suffice.  Which variant wins depends on the batch size, the universe
size, and the NumPy build — so this module centralises all of them behind
adaptive dispatch with fixed crossover points (:func:`thresholds`).

Two supporting pieces:

* :class:`Workspace` — a scratch arena of reusable n-sized buffers so the
  steady-state wave loop performs no per-wave O(n) allocations.  Buffers are
  handed out in a known-clean state (mask all ``False``, slots all ``-1``)
  and every kernel restores only the entries it touched before returning.
* :func:`fallback_mode` — a context manager forcing the pre-kernel NumPy
  idioms (``np.minimum.at`` / ``np.unique`` / double-repeat gather)
  everywhere, used by ``benchmarks/bench_hotpath.py`` to measure the speedup
  and by the regression tests to prove count-equivalence.

**Accounting invariance:** kernels change *how* a batch executes, never which
elements it contains.  All dispatch choices produce bit-identical results
(same sets, same sorted order, same success masks), so the simulated-machine
numbers — ``StepRecord`` counts — are unchanged by construction and verified
against golden snapshots in ``tests/core/test_kernel_regression.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs import OBS

__all__ = [
    "KernelThresholds",
    "Workspace",
    "fallback_mode",
    "first_occurrence",
    "gather_edges",
    "scatter_min",
    "scatter_min_2d",
    "segmented_min",
    "set_mode",
    "thresholds",
    "unique_ids",
    "unique_pairs",
    "unique_sorted",
]

_INT = np.int64
_FLOAT = np.float64


# --------------------------------------------------------------------------- #
# Dispatch thresholds
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class KernelThresholds:
    """Crossover points of the adaptive dispatch.

    Attributes
    ----------
    scatter_sort_min:
        Batch size from which scatter-min would leave ``np.minimum.at``.
        ``inf``: the ufunc's indexed fast path (NumPy >= 1.24) beats sort +
        ``np.minimum.reduceat`` at every batch size, so scatter-min is
        always ``np.minimum.at``.
    dedup_mask_ratio:
        Use the mark-bit dedup when ``k * dedup_mask_ratio >= n`` (k = batch
        size, n = universe size); below that the O(n/w) ``flatnonzero`` scan
        outweighs ``np.unique``'s sort.
    first_occ_dense_min:
        Batch size above which the O(k) scatter-based first-occurrence kernel
        replaces the stable-argsort one (needs a slots buffer).
    """

    scatter_sort_min: float = float("inf")
    dedup_mask_ratio: int = 256
    first_occ_dense_min: int = 1024


_MODE = "auto"  # "auto" | "fallback"
_THRESHOLDS = KernelThresholds()


def thresholds() -> KernelThresholds:
    """The dispatch thresholds: fixed constants, recorded by benchmarks.

    Results are identical whatever the thresholds; only wall clock differs
    (DESIGN.md §6 gives the measurements behind the values).
    """
    return _THRESHOLDS


def set_mode(mode: str) -> None:
    """Switch kernel dispatch globally: ``"auto"`` (adaptive) or ``"fallback"``.

    Fallback forces the pre-kernel NumPy idioms everywhere; results are
    identical, only wall clock differs.
    """
    global _MODE
    if mode not in ("auto", "fallback"):
        raise ValueError(f"mode must be 'auto' or 'fallback', got {mode!r}")
    _MODE = mode


@contextmanager
def fallback_mode():
    """Temporarily force the pre-kernel implementations (for benchmarking)."""
    global _MODE
    prev = _MODE
    _MODE = "fallback"
    try:
        yield
    finally:
        _MODE = prev


# --------------------------------------------------------------------------- #
# Workspace scratch arena
# --------------------------------------------------------------------------- #


class Workspace:
    """Reusable n-sized scratch buffers for one id universe.

    Buffers are lazily allocated and handed out in a known-clean state:
    :meth:`mask` is all-``False``, :meth:`slots` is all ``-1``.  Kernels that
    borrow a buffer restore exactly the entries they touched (O(touched), not
    O(n)), which is what makes mark-bit dedup allocation-free per wave.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"workspace size must be >= 0, got {n}")
        self.n = int(n)
        self._mask: "np.ndarray | None" = None
        self._slots: "np.ndarray | None" = None

    def mask(self) -> np.ndarray:
        """A bool[n] buffer, all ``False``; clear what you set before returning."""
        if self._mask is None:
            self._mask = np.zeros(self.n, dtype=bool)
        return self._mask

    def slots(self) -> np.ndarray:
        """An int64[n] buffer, all ``-1``; restore what you set before returning."""
        if self._slots is None:
            self._slots = np.full(self.n, -1, dtype=_INT)
        return self._slots

    def unique(self, ids: np.ndarray) -> np.ndarray:
        """Adaptive sorted-unique over this workspace's universe."""
        return unique_ids(ids, self.n, workspace=self)


# --------------------------------------------------------------------------- #
# Scatter-min / segmented reductions
# --------------------------------------------------------------------------- #


def _run_starts(sorted_vals: np.ndarray) -> np.ndarray:
    """Mask marking the first element of each equal-run of a sorted array.

    The allocation-light form of ``np.r_[True, a[1:] != a[:-1]]`` —
    ``np.r_`` pays ~20µs of index-trick machinery per call, which dominates
    the many tiny batches of the sparse hot path.
    """
    out = np.empty(len(sorted_vals), dtype=bool)
    out[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=out[1:])
    return out


def scatter_min(values: np.ndarray, targets: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``values[targets] = min(values[targets], candidates)`` with duplicates.

    Returns the *pre-batch* ``values[targets]`` (the gather every WriteMin
    success mask needs anyway).  Always ``np.minimum.at``: its indexed fast
    path beats sort + ``np.minimum.reduceat`` at every batch size.
    """
    if OBS.enabled:
        with OBS.kernel("scatter_min", len(targets)):
            return _scatter_min(values, targets, candidates)
    return _scatter_min(values, targets, candidates)


def _scatter_min(values: np.ndarray, targets: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    old = values[targets]
    if len(targets):
        np.minimum.at(values, targets, candidates)
    return old


def scatter_min_2d(
    values: np.ndarray, rows: np.ndarray, cols: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Batched 2-D scatter-min over a ``(K, n)`` matrix.

    ``values[rows, cols] = min(values[rows, cols], candidates)`` with
    duplicate ``(row, col)`` pairs, returning the pre-batch
    ``values[rows, cols]``.  Rows never interact, so the result restricted to
    one row is bit-identical to a 1-D :func:`scatter_min` on that row alone —
    the property that lets the multi-source batch engine share one relaxation
    wave across K queries while keeping per-source semantics exact.

    ``values`` must be C-contiguous; the kernel dispatches through the 1-D
    :func:`scatter_min` on the flattened view.
    """
    n = values.shape[1]
    flat = values.reshape(-1)  # view; raises for non-contiguous layouts
    return scatter_min(flat, rows * n + cols, candidates)


def segmented_min(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Per-segment minimum of ``values`` split at ``seg_starts``.

    A thin, empty-safe wrapper over ``np.minimum.reduceat`` (the vectorised
    form of one reduction tree per segment).  ``seg_starts`` must be sorted
    with ``seg_starts[0] == 0``; empty input returns an empty float64 array.
    """
    if len(seg_starts) == 0 or len(values) == 0:
        return np.zeros(0, dtype=values.dtype if len(values) else _FLOAT)
    return np.minimum.reduceat(values, seg_starts)


# --------------------------------------------------------------------------- #
# Dedup
# --------------------------------------------------------------------------- #


def unique_ids(
    ids: np.ndarray, n: int, *, workspace: "Workspace | None" = None
) -> np.ndarray:
    """Sorted unique ids from ``ids`` ⊆ ``[0, n)`` — adaptive ``np.unique``.

    Above the crossover (batch within ``dedup_mask_ratio`` of the universe)
    this is mark-bits + ``flatnonzero`` on the workspace mask: O(k + n/w)
    with word-level scanning and no sort, versus ``np.unique``'s O(k log k).
    Both produce the identical sorted array.
    """
    if OBS.enabled:
        with OBS.kernel("unique_ids", len(ids)):
            return _unique_ids(ids, n, workspace=workspace)
    return _unique_ids(ids, n, workspace=workspace)


def _unique_ids(
    ids: np.ndarray, n: int, *, workspace: "Workspace | None" = None
) -> np.ndarray:
    k = len(ids)
    if k == 0:
        return np.zeros(0, dtype=_INT)
    if k <= 64:
        # np.unique's generic machinery costs tens of µs regardless of size;
        # a direct sort + run-starts mask is ~5µs for tiny batches.
        s = np.sort(ids)
        return s[_run_starts(s)] if k > 1 else s
    if (
        _MODE == "fallback"
        or workspace is None
        or workspace.n < n
        or k * thresholds().dedup_mask_ratio < n
    ):
        return np.unique(ids)
    mark = workspace.mask()
    mark[ids] = True
    out = np.flatnonzero(mark)
    mark[out] = False
    return out


def unique_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    num_rows: int,
    n: int,
    *,
    workspace: "Workspace | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched dedup over ``(row, col)`` pairs from a ``(num_rows, n)`` universe.

    Encodes each pair as ``row * n + col``, dedups through the same adaptive
    dispatch as :func:`unique_ids` (pass a ``Workspace(num_rows * n)`` to
    enable the mark-bit path), and returns ``(keys, row_starts)``:

    * ``keys`` — the sorted unique encoded pairs;
    * ``row_starts`` — ``int64[num_rows + 1]``; row ``r``'s pairs are
      ``keys[row_starts[r]:row_starts[r+1]]``, and ``keys[...] - r * n``
      recovers that row's sorted unique column ids.

    Restricted to one row this is exactly ``unique_ids(cols_of_row, n)`` —
    the multi-source batch engine relies on that to keep per-source frontier
    dedup bit-identical to the scalar path.
    """
    keys = unique_ids(rows * np.int64(n) + cols, num_rows * n, workspace=workspace)
    bounds = np.arange(num_rows + 1, dtype=_INT) * n
    return keys, np.searchsorted(keys, bounds).astype(_INT)


def unique_sorted(ids: np.ndarray) -> np.ndarray:
    """Dedup an already-sorted array without re-sorting (O(k) mask pass)."""
    if len(ids) <= 1:
        return ids
    return ids[_run_starts(ids)]


def first_occurrence(
    ids: np.ndarray, *, workspace: "Workspace | None" = None
) -> np.ndarray:
    """Mask, parallel to ``ids``, true at the first occurrence of each value.

    The deterministic "winner" rule of batched ``TestAndSet`` and of the
    scatter hash table's intra-batch slot conflicts.  Dispatch: stable
    argsort below the crossover; above it an O(k) scatter trick — writing
    original indices through the *reversed* id array leaves each slot holding
    its first-occurrence index (last write wins in C order).
    """
    k = len(ids)
    if k == 0:
        return np.zeros(0, dtype=bool)
    if k == 1:
        return np.ones(1, dtype=bool)
    th = thresholds()
    if (
        _MODE != "fallback"
        and workspace is not None
        and k >= th.first_occ_dense_min
        and (ids.size == 0 or workspace.n > int(ids.max()))
    ):
        buf = workspace.slots()
        buf[ids[::-1]] = np.arange(k - 1, -1, -1, dtype=_INT)
        first = np.zeros(k, dtype=bool)
        first[buf[ids]] = True
        buf[ids] = -1
        return first
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.zeros(k, dtype=bool)
    first[order] = _run_starts(sorted_ids)
    return first


# --------------------------------------------------------------------------- #
# Edge gather
# --------------------------------------------------------------------------- #


def gather_edges(graph, frontier: np.ndarray):
    """Flatten the CSR rows of ``frontier`` into parallel edge arrays.

    Returns ``(targets, pos, weights, seg_starts, degs)`` where ``pos`` holds
    the CSR edge positions so callers can gather any parallel edge attribute,
    and ``seg_starts``/``degs`` delimit each source's segment.  Uses the
    graph's cached ``degrees`` and a single ``np.repeat`` (of the per-source
    offset ``starts - seg_starts``) instead of the textbook two; the edge
    order — frontier order, CSR order within a row — is unchanged.

    Empty-frontier / zero-degree paths return dtype-correct empties
    (``int64`` ids and positions, ``float64`` weights) so downstream
    concatenations never silently upcast.
    """
    if OBS.enabled:
        with OBS.kernel("gather_edges", len(frontier)):
            out = _gather_edges(graph, frontier)
        registry = OBS.registry
        if registry.enabled:
            registry.inc("kernel.gather_edges.edges", len(out[0]))
        return out
    return _gather_edges(graph, frontier)


def _gather_edges(graph, frontier: np.ndarray):
    nf = len(frontier)
    if _MODE == "fallback":
        indptr = graph.indptr
        starts = indptr[frontier]
        degs = indptr[frontier + 1] - starts
    else:
        degs = graph.degrees[frontier]
        starts = graph.indptr[frontier]
    total = int(degs.sum())
    seg_starts = np.zeros(nf, dtype=_INT)
    if nf:
        np.cumsum(degs[:-1], out=seg_starts[1:])
    if total == 0:
        empty_i = np.zeros(0, dtype=_INT)
        return empty_i, empty_i, np.zeros(0, dtype=_FLOAT), seg_starts, degs
    if _MODE == "fallback":
        pos = (
            np.arange(total, dtype=_INT)
            - np.repeat(seg_starts, degs)
            + np.repeat(starts, degs)
        )
    else:
        pos = np.arange(total, dtype=_INT)
        pos += np.repeat(starts - seg_starts, degs)
    return graph.indices[pos], pos, graph.weights[pos], seg_starts, degs
