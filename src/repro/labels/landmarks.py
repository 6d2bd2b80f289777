"""Landmark selection and ALT-style distance bounds.

The first tier of the precomputation subsystem: pick ``L`` landmark
vertices, compute each landmark's full distance vector once (offline), and
answer online point-to-point *bounds* from triangle inequalities — the ALT
technique (Goldberg & Harrelson), recast on this repo's machinery:

* selection is **deterministic given a seed** — ``farthest`` (the k-center
  2-approximation sweep: repeatedly take the vertex farthest from the
  chosen set) or ``degree`` (degree-weighted sampling without replacement,
  the hub-biased pick that suits scale-free graphs);
* distance vectors run through the **existing stepping policies**
  (:func:`~repro.core.framework.stepping_sssp`) — optionally over the
  shortcut-augmented graph (:func:`~repro.core.shortcuts.add_shortcuts`,
  the paper's (k, ρ) machinery): shortcut weights are true shortest
  distances, so the augmented runs return *identical* vectors in fewer,
  shallower rounds;
* for a directed graph the reverse vectors (``v -> landmark``) come from
  one pass over the transposed CSR, so both sides of the triangle
  inequality are available; undirected graphs share one table.

For ``d = dist(s, t)`` with landmark ``l`` the bounds are::

    d >= dist(l, t) - dist(l, s)      (landmark behind the source)
    d >= dist(s, l) - dist(t, l)      (landmark behind the target)
    d <= dist(s, l) + dist(l, t)      (route through the landmark)

Every quantity is a float path sum; on the paper's integer-weighted graphs
all sums are exact, so ``lower <= d <= upper`` holds *exactly* for the true
distance — which is what lets the query tier use bound violation as a
corruption detector (see :mod:`repro.labels.query`).

``labels.build`` is a fault-injection site (see
:mod:`repro.serving.faults`); metrics land behind the zero-overhead
``OBS.enabled`` seam (``labels.build.*``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, sub

import numpy as np

from repro.core.framework import stepping_sssp
from repro.core.policies import BellmanFordPolicy, DeltaStarPolicy, RhoPolicy
from repro.core.shortcuts import add_shortcuts
from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import get_injector
from repro.utils.errors import LabelFormatError, ParameterError

__all__ = [
    "LandmarkTable",
    "build_landmarks",
    "require_integer_weights",
    "select_landmarks",
]

STRATEGIES = ("farthest", "degree")


def make_policy(algo: str, param):
    """A fresh stepping policy for ``algo`` (policies are stateful)."""
    if algo == "rho":
        from repro.core.algorithms import DEFAULT_RHO

        return RhoPolicy(int(param) if param is not None else DEFAULT_RHO)
    if algo == "delta":
        if param is None:
            raise ParameterError("delta landmark builds require a delta param")
        return DeltaStarPolicy(float(param))
    if algo == "bf":
        return BellmanFordPolicy()
    raise ParameterError(f"unknown algo {algo!r}; choose rho, delta or bf")


def reverse_graph(graph: Graph) -> Graph:
    """The transposed CSR (edge ``u -> v`` becomes ``v -> u``)."""
    src, dst, w = graph.edges()
    return Graph.from_edges(
        graph.n, dst, src, w, directed=True, dedup=False,
        name=f"{graph.name}^T" if graph.name else "reverse",
    )


@dataclass(frozen=True)
class LandmarkTable:
    """``L`` landmarks with their forward/backward distance vectors.

    Attributes
    ----------
    landmarks:
        ``int64[L]`` landmark vertex ids (selection order).
    dist_from:
        ``float64[L, n]`` — ``dist_from[i, v]`` is the distance
        ``landmarks[i] -> v``.
    dist_to:
        ``float64[L, n]`` — ``dist_to[i, v]`` is the distance
        ``v -> landmarks[i]``.  The *same array object* as ``dist_from``
        on undirected graphs (distances are symmetric; storage is shared).
    strategy:
        Selection strategy that produced ``landmarks``.
    fingerprint:
        Content hash of the graph the table was built for — bounds from
        this table must never be applied to any other CSR.
    """

    landmarks: np.ndarray
    dist_from: np.ndarray
    dist_to: np.ndarray
    strategy: str
    fingerprint: str
    build_seconds: float = 0.0
    params: dict = field(default_factory=dict)

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    def validate(self, graph: "Graph | None" = None) -> None:
        """Structural invariants, offender-naming (:class:`LabelFormatError`)."""
        L = len(self.landmarks)
        n = self.dist_from.shape[1] if self.dist_from.ndim == 2 else -1
        if self.dist_from.shape != (L, n) or self.dist_to.shape != (L, n):
            raise LabelFormatError(
                f"landmark table shape mismatch: {L} landmarks but dist_from "
                f"{self.dist_from.shape} / dist_to {self.dist_to.shape}"
            )
        if graph is not None:
            if n != graph.n:
                raise LabelFormatError(
                    f"landmark table built for n={n} vertices, graph has {graph.n}"
                )
            if self.fingerprint != graph.fingerprint:
                raise LabelFormatError(
                    f"landmark table fingerprint {self.fingerprint[:12]}... does "
                    f"not match graph {graph.fingerprint[:12]}... — stale table"
                )
        if L == 0:
            raise LabelFormatError("landmark table has no landmarks")
        bad = np.flatnonzero((self.landmarks < 0) | (self.landmarks >= n))
        if bad.size:
            i = int(bad[0])
            raise LabelFormatError(
                f"landmark[{i}] = {int(self.landmarks[i])} out of range [0, {n})"
            )
        if len(np.unique(self.landmarks)) != L:
            raise LabelFormatError("landmark ids are not distinct")
        for name, arr in (("dist_from", self.dist_from), ("dist_to", self.dist_to)):
            if np.isnan(arr).any():
                i, v = map(int, np.argwhere(np.isnan(arr))[0])
                raise LabelFormatError(f"{name}[{i}, {v}] is NaN")
            finite = arr[np.isfinite(arr)]
            if finite.size and finite.min() < 0:
                raise LabelFormatError(f"{name} contains negative distances")
        # Each landmark must be at distance exactly 0 from itself.
        rows = np.arange(L)
        for name, arr in (("dist_from", self.dist_from), ("dist_to", self.dist_to)):
            bad = np.flatnonzero(arr[rows, self.landmarks] != 0.0)
            if bad.size:
                i = int(bad[0])
                raise LabelFormatError(
                    f"landmark {int(self.landmarks[i])} has nonzero "
                    f"self-distance in {name} — corrupt table"
                )

    # ------------------------------------------------------------------ #
    # bounds

    @cached_property
    def _vertex_rows(self) -> "tuple[np.ndarray, np.ndarray]":
        """Row-major ``(n, L)`` copies of ``dist_from`` / ``dist_to``.

        Derived once per table and held in memory only (artifacts keep the
        ``(L, n)`` layout): one vertex's ``L`` distances are then one
        contiguous row, read by a single ``tolist()`` per lookup.  The
        undirected table shares one copy for both sides.
        """
        from_rows = np.ascontiguousarray(self.dist_from.T)
        if self.dist_to is self.dist_from:
            return from_rows, from_rows
        return from_rows, np.ascontiguousarray(self.dist_to.T)

    def bounds(self, s: int, t: int) -> "tuple[float, float]":
        """``(lower_bound(s, t), upper_bound(s, t))`` in one pass.

        Scalar float arithmetic over the four ``L``-entry vertex rows — the
        same subtractions and sums as :meth:`lower_bounds` /
        :meth:`upper_bounds`, with NaN (``inf - inf``) and ``-inf``
        differences ignored and ``+inf`` kept, so the values are
        bit-identical to the vectorised ones.
        """
        if s == t:
            return 0.0, 0.0
        from_rows, to_rows = self._vertex_rows
        from_s = from_rows[s].tolist()               # l -> s
        from_t = from_rows[t].tolist()               # l -> t
        if to_rows is from_rows:
            to_s, to_t = from_s, from_t
        else:
            to_s = to_rows[s].tolist()               # s -> l
            to_t = to_rows[t].tolist()               # t -> l
        lo = 0.0
        # NaN and -inf never compare above lo, so they drop out here.
        for a in map(sub, from_t, from_s):           # d(l,t) - d(l,s)
            if a > lo:
                lo = a
        for b in map(sub, to_s, to_t):               # d(s,l) - d(t,l)
            if b > lo:
                lo = b
        return lo, min(map(add, to_s, from_t))

    def lower_bound(self, s: int, t: int) -> float:
        """Best ALT lower bound on ``dist(s, t)`` over all landmarks (>= 0)."""
        return self.bounds(s, t)[0]

    def lower_bounds(self, s: int, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lower_bound` for one source and many targets
        (the reference the scalar lookup is tested against)."""
        lt = self.dist_from[:, targets]          # (L, T): l -> t
        ls = self.dist_to[:, [s]]                # (L, 1): s -> l   (for d >= d(s,l)-d(t,l))
        fs = self.dist_from[:, [s]]              # (L, 1): l -> s
        tt = self.dist_to[:, targets]            # (L, T): t -> l
        with np.errstate(invalid="ignore"):
            a = lt - fs                           # d(l,t) - d(l,s)
            b = ls - tt                           # d(s,l) - d(t,l)
        # inf - inf (both legs unreachable) carries no information → 0.
        # A +inf difference is a *sound* bound: d(l,t)=inf with d(l,s)
        # finite proves t is unreachable from s (else l -> s -> t would
        # exist), so it is kept — it is what lets reachable() answer
        # exactly from landmarks alone.
        a[np.isnan(a) | np.isneginf(a)] = 0.0
        b[np.isnan(b) | np.isneginf(b)] = 0.0
        lo = np.maximum(a, b).max(axis=0)
        np.maximum(lo, 0.0, out=lo)
        lo[targets == s] = 0.0
        return lo

    def upper_bound(self, s: int, t: int) -> float:
        """Best route-through-a-landmark upper bound on ``dist(s, t)``."""
        return self.bounds(s, t)[1]

    def upper_bounds(self, s: int, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`upper_bound` for one source and many targets
        (the reference the scalar lookup is tested against)."""
        up = (self.dist_to[:, [s]] + self.dist_from[:, targets]).min(axis=0)
        up[targets == s] = 0.0
        return up


def require_integer_weights(graph: Graph) -> None:
    """Refuse a graph with a weight that is not integer-valued.

    Label answers are exact only because integer path sums are exact in
    float64 whatever the summation order (DESIGN §14); a fractional weight
    voids that, so the label builders check it where the graph enters.
    Raises :class:`ParameterError` naming the first offending edge.
    """
    w = graph.weights
    bad = np.flatnonzero(w != np.floor(w))
    if bad.size:
        e = int(bad[0])
        raise ParameterError(
            f"label tables need integer-valued edge weights: edge {e} "
            f"({int(graph.edge_sources[e])} -> {int(graph.indices[e])}) "
            f"has weight {float(w[e])!r}"
        )


def select_landmarks(
    graph: Graph, num_landmarks: int, *, strategy: str = "farthest", seed=0
) -> np.ndarray:
    """Pick ``num_landmarks`` landmark vertices, deterministically.

    ``farthest`` starts from the highest-degree vertex (stable tie-break:
    lowest id) and repeatedly adds the vertex maximising the distance to
    the chosen set (classic k-center sweep; unreachable vertices are
    skipped — a landmark that cannot see a vertex contributes no bound for
    it anyway).  ``degree`` samples without replacement with probability
    proportional to out-degree + 1 using the seeded generator — on
    scale-free graphs this lands landmarks on hubs, which is where shortest
    paths concentrate.
    """
    from repro.utils.rng import as_generator

    n = graph.n
    if not 1 <= num_landmarks <= n:
        raise ParameterError(
            f"num_landmarks must be in [1, {n}], got {num_landmarks}"
        )
    if strategy not in STRATEGIES:
        raise ParameterError(
            f"unknown landmark strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy == "degree":
        rng = as_generator(seed)
        weights = graph.degrees.astype(np.float64) + 1.0
        picks = rng.choice(n, size=num_landmarks, replace=False, p=weights / weights.sum())
        return np.asarray(sorted(int(p) for p in picks), dtype=np.int64)
    # farthest-point sweep, seeded at the max-degree vertex
    first = int(np.argmax(graph.degrees))
    chosen = [first]
    mind = multi_source_distances(graph, [first], algo="bf")[0].copy()
    for _ in range(num_landmarks - 1):
        cand = np.where(np.isfinite(mind), mind, -1.0)
        cand[np.asarray(chosen)] = -1.0
        nxt = int(np.argmax(cand))
        if cand[nxt] <= 0.0:
            # Every reachable vertex is already a landmark (tiny graphs):
            # fall back to the lowest unchosen id to keep the count exact.
            rest = np.setdiff1d(np.arange(n), np.asarray(chosen))
            nxt = int(rest[0])
        chosen.append(nxt)
        np.minimum(mind, multi_source_distances(graph, [nxt], algo="bf")[0], out=mind)
    return np.asarray(sorted(chosen), dtype=np.int64)


def build_landmarks(
    graph: Graph,
    num_landmarks: int = 16,
    *,
    strategy: str = "farthest",
    algo: str = "bf",
    param=None,
    shortcut_rho: "int | None" = None,
    seed=0,
) -> LandmarkTable:
    """Select landmarks and compute their distance vectors (the offline pass).

    Vectors run through :func:`~repro.core.framework.stepping_sssp` with the
    ``algo`` policy (``bf`` / ``rho`` / ``delta``).  With ``shortcut_rho``
    set, the runs execute over the ρ-shortcut-augmented graph
    (:func:`~repro.core.shortcuts.add_shortcuts`) — shortcut weights are
    exact shortest distances, so the vectors are identical while the
    Bellman-Ford-style policies converge in ~n/ρ-hop rounds (the Shi–Spencer
    trade: more edges, fewer rounds).  Directed graphs get a second pass
    over the transposed CSR for the ``v -> landmark`` side.

    Fires the ``labels.build`` fault site once per build (before any work),
    so chaos tests can fail or corrupt builds deterministically.  A graph
    with a non-integer weight is refused first
    (:func:`require_integer_weights`).
    """
    t0 = time.perf_counter()
    require_integer_weights(graph)
    injector = get_injector()
    directive = injector.fire("labels.build")
    landmarks = select_landmarks(graph, num_landmarks, strategy=strategy, seed=seed)

    run_graph = graph
    added = 0
    if shortcut_rho is not None:
        sc = add_shortcuts(graph, int(shortcut_rho))
        run_graph, added = sc.graph, sc.added_edges

    def vectors(g: Graph) -> np.ndarray:
        rows = [
            stepping_sssp(g, int(l), make_policy(algo, param), seed=seed).dist
            for l in landmarks
        ]
        return np.stack(rows)

    dist_from = vectors(run_graph)
    if graph.directed:
        dist_to = vectors(reverse_graph(run_graph))
    else:
        dist_to = dist_from  # symmetric distances, shared storage
    if directive == "corrupt":
        # Payload corruption: a negative entry violates the non-negativity
        # invariant, which validate() must catch before the table serves.
        dist_from = np.array(dist_from, copy=True)
        dist_from[0, int(landmarks[0])] = -1.0
        if not graph.directed:
            dist_to = dist_from
    table = LandmarkTable(
        landmarks=landmarks,
        dist_from=dist_from,
        dist_to=dist_to,
        strategy=strategy,
        fingerprint=graph.fingerprint,
        build_seconds=time.perf_counter() - t0,
        params={
            "algo": algo, "param": param, "seed": seed,
            "shortcut_rho": shortcut_rho, "shortcut_edges_added": added,
        },
    )
    table.validate(graph)
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("labels.build.landmark_tables")
        registry.set_gauge("labels.landmarks", float(len(landmarks)))
        registry.observe("labels.build.seconds", table.build_seconds)
    return table
