"""Zero-copy shared-memory execution plane for pooled SSSP.

The process pools pay two taxes that erase their parallel win on real
batches: the CSR graph ships to every worker through pickle (or is silently
re-shipped on every supervised-pool rebuild), and every result matrix comes
home as a pickled ``(K, n)`` float64 blob.  This module removes both by
mapping the data into ``multiprocessing.shared_memory`` segments:

* :meth:`ShmManager.share_graph` copies a graph's CSR triple
  (``indptr``/``indices``/``weights``) into named segments **once** per
  :attr:`~repro.graphs.csr.Graph.fingerprint` and hands back a
  :class:`SharedGraphHandle` — a tiny named-tuple-of-names that pickles in
  O(1) regardless of graph size.  Workers call ``handle.attach()`` and get a
  read-only :class:`~repro.graphs.csr.Graph` view over the *same* physical
  pages (no copy, no hash recomputation: the fingerprint is seeded from the
  handle).
* :meth:`ShmManager.alloc` carves a preallocated float64 **result arena**
  that workers attach writable and fill in place — the parent reads the rows
  directly instead of unpickling them.

Lifecycle rules (the part that keeps ``/dev/shm`` clean):

* Segments are **parent-owned**: only the creating :class:`ShmManager`
  (same PID) ever unlinks.  Workers merely map; a crashed worker
  (``os._exit``, OOM-kill) therefore cannot leak a segment — the parent's
  unlink at release/close/atexit/SIGTERM removes the name, and the kernel
  reclaims the pages when the last mapping dies.
* Graph segments are **refcounted by fingerprint**: two pools serving the
  same graph share one registration; the segments unlink when the last
  holder releases (or at :meth:`ShmManager.close`).
* Cleanup is redundant along every exit path: explicit ``close()``, an
  ``atexit`` hook, and chaining ``SIGTERM`` **and** ``SIGINT`` handlers —
  so supervised-pool rebuilds after worker crashes, a terminated parent,
  and a Ctrl-C'd ``repro serve``/``repro loadgen`` all leave nothing
  behind (pinned by the leak-check tests, the SIGINT subprocess test, and
  the in-bench leak assertion).

Fallback: call sites (:class:`~repro.serving.pool.SweepPool` and
:class:`~repro.serving.pool.BatchPool`) probe
:func:`shm_available` and degrade to the pickle path when shared memory is
missing or registration fails, counting the event in ``shm.fallbacks``.

Fault site: the first attach of a handle in a process fires ``shm.attach``
through :func:`repro.serving.faults.get_injector`, so the chaos suite can
make attachment crash/hang/raise deterministically and assert the
supervised retry converges to bit-identical results.

Observability: every mutation is mirrored into ``shm.*`` counters/gauges
behind the usual zero-overhead ``OBS.enabled`` seam.
"""

from __future__ import annotations

import atexit
import logging
import os
import signal
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.utils.errors import ExecutionError, ParameterError

__all__ = [
    "SHM_PREFIX",
    "SharedArrayHandle",
    "SharedGraphHandle",
    "ShmManager",
    "ShmUnavailable",
    "close_manager",
    "get_manager",
    "leaked_segments",
    "shm_available",
]

_LOG = logging.getLogger("repro.runtime.shm")

#: Every segment name starts with this prefix — the leak-check contract.
SHM_PREFIX = "rshm"


class ShmUnavailable(ExecutionError):
    """Shared memory could not be created or attached.

    Derives from :class:`~repro.utils.errors.ExecutionError` so pool
    supervision treats a failed worker-side attach like any other transient
    task failure (retry, then surface).
    """


# --------------------------------------------------------------------------- #
# Low-level helpers
# --------------------------------------------------------------------------- #


# Resource-tracker note: on Python < 3.13 every POSIX ``SharedMemory``
# *attach* also registers the name with the resource tracker.  Pool workers
# share their parent's tracker process (fork inherits it, spawn passes its
# fd), and the tracker's cache is a set — so the duplicate registration is
# idempotent and the parent's unlink clears it exactly once.  We must NOT
# unregister on the attach side: that would erase the parent's entry and
# with it the tracker's unlink-on-crash safety net.

_AVAILABLE: "bool | None" = None


def shm_available() -> bool:
    """Whether this platform can create shared-memory segments (cached)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        name = f"{SHM_PREFIX}-probe-{os.getpid()}-{os.urandom(2).hex()}"
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=1)
            seg.close()
            seg.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def leaked_segments(prefix: str = SHM_PREFIX) -> "list[str]":
    """Names of live ``/dev/shm`` segments carrying ``prefix``.

    The leak-check oracle for tests and benchmarks: after every pool is
    closed and every manager released, this must be empty.  Returns ``[]``
    on platforms without a ``/dev/shm`` directory (the check is then
    unavailable rather than failed).
    """
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))
    except OSError:  # pragma: no cover - non-POSIX platforms
        return []


# --------------------------------------------------------------------------- #
# Worker-side attach cache
# --------------------------------------------------------------------------- #

# Process-local maps: segment name -> mapped SharedMemory, and graph
# fingerprint -> attached Graph.  Inherited maps survive fork (the mappings
# stay valid in the child), so forked workers attach with zero syscalls.
_ATTACHED: "dict[str, shared_memory.SharedMemory]" = {}
_GRAPH_CACHE: "dict[str, Graph]" = {}
_CLEANUP_PID: "int | None" = None


def _detach_all() -> None:
    """Close this process's attach-side mappings (never unlinks)."""
    global _CLEANUP_PID
    for seg in _ATTACHED.values():
        try:
            seg.close()
        except Exception:  # pragma: no cover - buffers may be referenced
            pass
    _ATTACHED.clear()
    _GRAPH_CACHE.clear()
    _CLEANUP_PID = None


def _ensure_detach_hook() -> None:
    global _CLEANUP_PID
    if _CLEANUP_PID != os.getpid():
        _CLEANUP_PID = os.getpid()
        atexit.register(_detach_all)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map segment ``name`` into this process (cached; owner maps reused)."""
    mgr = _MANAGER
    if mgr is not None and mgr._pid == os.getpid():
        owned = mgr._segments.get(name)
        if owned is not None:
            return owned.seg
    seg = _ATTACHED.get(name)
    if seg is None:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except Exception as exc:
            raise ShmUnavailable(
                f"cannot attach shared-memory segment {name!r}: {exc}"
            ) from exc
        _ensure_detach_hook()
        _ATTACHED[name] = seg
    return seg


def _fire_attach_site() -> None:
    """Fire the ``shm.attach`` fault site (worker chaos hook) + metrics.

    Imported lazily: :mod:`repro.serving.faults` sits above the runtime
    layer, and the site only fires on first attach, never on the hot path.
    """
    from repro.serving.faults import get_injector

    get_injector().fire("shm.attach")
    if OBS.enabled:
        OBS.registry.inc("shm.attaches")


# --------------------------------------------------------------------------- #
# Handles
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SharedArrayHandle:
    """O(1)-picklable reference to one shared ndarray.

    ``attach()`` maps the segment (cached per process) and returns a view;
    read-only handles hand out non-writable views so workers cannot corrupt
    a shared graph in place.
    """

    name: str
    shape: "tuple[int, ...]"
    dtype: str
    readonly: bool = True

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def attach(self, *, fire_fault: bool = True) -> np.ndarray:
        """Map the segment and view it as an ndarray (zero copy)."""
        if fire_fault and self.name not in _ATTACHED:
            _fire_attach_site()
        seg = _attach_segment(self.name)
        arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=seg.buf)
        if self.readonly:
            arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class SharedGraphHandle:
    """O(1)-picklable reference to a CSR graph living in shared memory.

    Carries only segment names, shapes, and the precomputed fingerprint —
    a handle for a 100M-edge graph pickles in a few hundred bytes, which is
    what makes per-task and per-rebuild shipping free.
    """

    fingerprint: str
    directed: bool
    name: str
    indptr: SharedArrayHandle
    indices: SharedArrayHandle
    weights: SharedArrayHandle

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes

    def attach(self) -> Graph:
        """Read-only :class:`Graph` over the shared pages (cached per process).

        The first attach of a fingerprint in a process fires the
        ``shm.attach`` fault site, then seeds the graph's ``fingerprint``
        cache from the handle so workers never rehash the arrays.
        """
        g = _GRAPH_CACHE.get(self.fingerprint)
        if g is not None:
            return g
        _fire_attach_site()
        graph = Graph(
            indptr=self.indptr.attach(fire_fault=False),
            indices=self.indices.attach(fire_fault=False),
            weights=self.weights.attach(fire_fault=False),
            directed=self.directed,
            name=self.name,
        )
        # Seed the content-hash cache: the handle was minted from these exact
        # bytes, so attaching must not pay the blake2b pass again.
        graph.__dict__["fingerprint"] = self.fingerprint
        _GRAPH_CACHE[self.fingerprint] = graph
        _ensure_detach_hook()
        return graph


# --------------------------------------------------------------------------- #
# The manager (parent-side owner of every segment)
# --------------------------------------------------------------------------- #


class _Owned:
    """One owned segment: the mapping plus its byte size."""

    __slots__ = ("seg", "nbytes")

    def __init__(self, seg: shared_memory.SharedMemory, nbytes: int) -> None:
        self.seg = seg
        self.nbytes = nbytes


class _SharedGraph:
    """Refcounted registration of one graph's CSR segments."""

    __slots__ = ("handle", "segment_names", "refs")

    def __init__(self, handle: SharedGraphHandle, segment_names: "list[str]") -> None:
        self.handle = handle
        self.segment_names = segment_names
        self.refs = 1


class ShmManager:
    """Owner of this process's shared-memory segments (see module docstring).

    One manager per parent process is the intended shape — use
    :func:`get_manager` — but independent instances are safe (each owns a
    disjoint set of names).  All methods must be called from the creating
    process; a forked child inheriting the object gets read access to the
    mappings but its ``close()`` is a guarded no-op, so a worker can never
    unlink its parent's segments.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._token = os.urandom(2).hex()
        self._seq = 0
        self._segments: "dict[str, _Owned]" = {}
        self._graphs: "dict[str, _SharedGraph]" = {}
        self._closed = False

    # -- segment primitives -------------------------------------------- #

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_owner(self) -> None:
        if self._closed:
            raise ShmUnavailable("ShmManager is closed")
        if self._pid != os.getpid():
            raise ShmUnavailable(
                "ShmManager can only allocate/release in its creating process"
            )

    def _create_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        name = f"{SHM_PREFIX}-{self._pid}-{self._token}-{self._seq}"
        self._seq += 1
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        except Exception as exc:
            raise ShmUnavailable(f"cannot create shared-memory segment: {exc}") from exc
        self._segments[name] = _Owned(seg, nbytes)
        if OBS.enabled:
            OBS.registry.inc("shm.segments_created")
            OBS.registry.inc("shm.bytes_shared", nbytes)
            OBS.registry.set_gauge("shm.segments_live", len(self._segments))
        return seg

    def _unlink_segment(self, name: str) -> None:
        owned = self._segments.pop(name, None)
        if owned is None:
            return
        try:
            owned.seg.close()
        except Exception:  # pragma: no cover - exported buffers may linger
            pass
        try:
            owned.seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if OBS.enabled:
            OBS.registry.inc("shm.segments_unlinked")
            OBS.registry.set_gauge("shm.segments_live", len(self._segments))

    def _share_array(self, array: np.ndarray, *, readonly: bool) -> SharedArrayHandle:
        array = np.ascontiguousarray(array)
        seg = self._create_segment(array.nbytes)
        if array.nbytes:
            np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)[...] = array
        return SharedArrayHandle(
            name=seg.name, shape=tuple(array.shape), dtype=array.dtype.str,
            readonly=readonly,
        )

    # -- graphs --------------------------------------------------------- #

    def share_graph(self, graph: Graph) -> SharedGraphHandle:
        """Register ``graph``'s CSR arrays (once per fingerprint; refcounted).

        Returns a handle that pickles in O(1).  Call
        :meth:`release_graph` with the handle when the consumer (a pool)
        shuts down; the segments unlink when the last holder releases.
        """
        self._check_owner()
        fp = graph.fingerprint
        entry = self._graphs.get(fp)
        if entry is not None:
            entry.refs += 1
            return entry.handle
        created: "list[str]" = []
        try:
            handles = {}
            for field in ("indptr", "indices", "weights"):
                h = self._share_array(getattr(graph, field), readonly=True)
                handles[field] = h
                created.append(h.name)
        except Exception:
            for name in created:
                self._unlink_segment(name)
            raise
        handle = SharedGraphHandle(
            fingerprint=fp, directed=graph.directed, name=graph.name, **handles
        )
        self._graphs[fp] = _SharedGraph(handle, created)
        if OBS.enabled:
            OBS.registry.inc("shm.graphs_shared")
        return handle

    def release_graph(self, handle: "SharedGraphHandle | None") -> None:
        """Drop one reference to a shared graph; unlink at refcount zero."""
        if handle is None or self._closed or self._pid != os.getpid():
            return
        entry = self._graphs.get(handle.fingerprint)
        if entry is None:
            return
        entry.refs -= 1
        if entry.refs <= 0:
            del self._graphs[handle.fingerprint]
            for name in entry.segment_names:
                self._unlink_segment(name)

    # -- arenas --------------------------------------------------------- #

    def alloc(
        self, shape: "tuple[int, ...]", dtype="float64"
    ) -> "tuple[SharedArrayHandle, np.ndarray]":
        """Allocate a writable shared array (e.g. a distance/result arena).

        Returns ``(handle, view)`` — the parent keeps the view, workers
        attach the handle and write rows in place.  Free with :meth:`free`.
        """
        self._check_owner()
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes < 0:
            raise ParameterError(f"invalid arena shape {shape}")
        seg = self._create_segment(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        handle = SharedArrayHandle(
            name=seg.name, shape=tuple(shape), dtype=dtype.str, readonly=False
        )
        return handle, view

    def free(self, handle: "SharedArrayHandle | None") -> None:
        """Unlink an arena allocated with :meth:`alloc`."""
        if handle is None or self._closed or self._pid != os.getpid():
            return
        self._unlink_segment(handle.name)

    # -- lifecycle ------------------------------------------------------ #

    def live_segments(self) -> "list[str]":
        """Names of segments this manager currently owns."""
        return sorted(self._segments)

    def close(self) -> None:
        """Unlink every owned segment.  Idempotent; no-op outside the owner."""
        if self._closed or self._pid != os.getpid():
            return
        self._closed = True
        self._graphs.clear()
        for name in list(self._segments):
            self._unlink_segment(name)

    def __enter__(self) -> "ShmManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Process-global manager + cleanup hooks
# --------------------------------------------------------------------------- #

_MANAGER: "ShmManager | None" = None
_HOOKS_PID: "int | None" = None


def get_manager() -> ShmManager:
    """The process-global manager, (re)created on demand.

    A forked child asking for the manager gets a fresh one (the inherited
    parent manager is owner-guarded), so pools built inside workers never
    collide with the parent's segments.
    """
    global _MANAGER
    if _MANAGER is None or _MANAGER.closed or _MANAGER._pid != os.getpid():
        _MANAGER = ShmManager()
        _install_cleanup_hooks()
    return _MANAGER


def close_manager() -> None:
    """Close the process-global manager (if this process owns one)."""
    global _MANAGER
    if _MANAGER is not None:
        _MANAGER.close()
        _MANAGER = None


def _install_cleanup_hooks() -> None:
    """Register atexit + chaining SIGTERM/SIGINT cleanup, once per process.

    SIGINT matters for the serving CLIs: ``repro serve`` / ``repro loadgen``
    are long-running foreground processes that users stop with Ctrl-C, and a
    KeyboardInterrupt that unwinds through a wedged event loop or a blocked
    pool join may never reach the atexit hooks — the signal handler unlinks
    the segments first, then chains to the previous handler (for SIGINT the
    default chain raises KeyboardInterrupt, so Ctrl-C semantics are
    preserved exactly).
    """
    global _HOOKS_PID
    if _HOOKS_PID == os.getpid():
        return
    _HOOKS_PID = os.getpid()
    atexit.register(close_manager)
    if threading.current_thread() is not threading.main_thread():
        return  # signal handlers are main-thread only; atexit still covers us
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous = signal.getsignal(signum)

            def _on_signal(got, frame, *, _prev=previous, _num=signum):  # pragma: no cover - signal path
                close_manager()
                if callable(_prev):
                    _prev(got, frame)
                else:
                    signal.signal(_num, signal.SIG_DFL)
                    os.kill(os.getpid(), _num)

            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - embedded interpreters
            pass
