"""Shortest-path post-processing: predecessors, routes, tree extraction,
and independent verification of an SSSP result.

The stepping algorithms return only distances (like the paper's
implementation).  These helpers recover the path structure from the
distances — possible because with positive weights, ``dist`` is a valid
SSSP fixed point iff every vertex has a *tight* incoming edge
(``dist[v] == dist[u] + w(u,v)``), and following tight edges backwards
yields shortest paths.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.transforms import reverse
from repro.utils.errors import ParameterError

__all__ = [
    "extract_path",
    "predecessors",
    "shortest_path_tree",
    "spt_parents",
    "verify_sssp",
]


def verify_sssp(graph: Graph, source: int, dist: np.ndarray, *, atol: float = 1e-9) -> None:
    """Certify that ``dist`` is the exact SSSP solution from ``source``.

    Checks, without re-running any SSSP algorithm:

    1. ``dist[source] == 0``;
    2. *feasibility*: no edge is over-tight (``dist[v] <= dist[u] + w``);
    3. *tightness*: every finite-distance vertex other than the source has at
       least one tight incoming edge;
    4. *reachability consistency*: no finite vertex is reachable only from
       infinite ones and every edge out of a finite vertex leads to a finite
       vertex.

    Together with positive weights these conditions hold iff ``dist`` is the
    unique shortest-distance vector.  Raises ``AssertionError`` on failure.
    """
    n = graph.n
    if not 0 <= source < n:
        raise ParameterError(f"source {source} out of range [0, {n})")
    if len(dist) != n:
        raise ParameterError(f"dist has length {len(dist)}, expected n={n}")
    assert dist[source] == 0.0, f"dist[source] = {dist[source]} != 0"

    src, dst, w = graph.edges()
    finite_src = np.isfinite(dist[src])
    # 2. Feasibility on all edges from finite sources.
    slack = dist[src[finite_src]] + w[finite_src] - dist[dst[finite_src]]
    bad = np.flatnonzero(slack < -atol)
    assert bad.size == 0, (
        f"over-tight edge: {src[finite_src][bad[0]]}->{dst[finite_src][bad[0]]}"
        if bad.size else ""
    )
    # 4. An edge out of a finite vertex must reach a finite vertex.
    assert np.all(np.isfinite(dist[dst[finite_src]])), "finite vertex points at inf"

    # 3. Tightness: every finite non-source vertex has a tight in-edge.
    tight = np.abs(slack) <= atol
    has_tight = np.zeros(n, dtype=bool)
    has_tight[dst[finite_src][tight]] = True
    needs = np.isfinite(dist)
    needs[source] = False
    missing = np.flatnonzero(needs & ~has_tight)
    assert missing.size == 0, f"vertex {missing[0] if missing.size else -1} has no tight in-edge"


def predecessors(graph: Graph, source: int, dist: np.ndarray) -> np.ndarray:
    """A predecessor array: ``pred[v]`` is a parent of ``v`` on some shortest
    path from ``source`` (``-1`` for the source and unreachable vertices).

    Works for directed and undirected graphs; cost O(n + m).
    """
    n = graph.n
    if len(dist) != n:
        raise ParameterError(f"dist has length {len(dist)}, expected n={n}")
    rev = graph if not graph.directed else reverse(graph)
    pred = np.full(n, -1, dtype=np.int64)
    # For each v, scan its in-edges (rev out-edges) for a tight parent.
    src, dst, w = rev.edges()  # edge src->dst in rev == dst->src in graph
    parent = dst
    child = src
    tight = np.isfinite(dist[parent]) & np.isclose(dist[parent] + w, dist[child], atol=1e-9)
    # Keep one arbitrary tight parent per child: assign in reverse edge order
    # so the first tight edge wins the final (deterministic) assignment.
    order = np.flatnonzero(tight)
    pred[child[order[::-1]]] = parent[order[::-1]]
    pred[source] = -1
    return pred


def spt_parents(
    edge_src: np.ndarray, edge_dst: np.ndarray, weights: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """The exact tight-edge parent forest of ``dist``, vectorised.

    ``parent[v]`` is the minimum-id ``u`` over edges ``u -> v`` with
    ``dist[u] + w == dist[v]`` and ``dist[u] < dist[v]`` — the latter (not
    just tightness) keeps the forest acyclic even when a tiny weight is
    absorbed by rounding (``du + w == du``).  Vertices with no such edge
    (the source, unreachable vertices, vertices whose warm distance lost
    its certificate) are roots and point at themselves.  Pass the edge
    arrays swapped to get the in-tree of a ``v -> target`` distance vector.
    """
    n = len(dist)
    du, dv = dist[edge_src], dist[edge_dst]
    # du < dv with dv finite already makes du finite; isfinite(dv) only
    # keeps an infinite-weight edge from looking tight into an unreachable v.
    tight = du + weights == dv
    tight &= du < dv
    tight &= np.isfinite(dv)
    # Tight edges are few (about one per reachable vertex, more on ties):
    # index them by position, which costs less than two boolean-mask
    # gathers over all m edges.
    e = np.flatnonzero(tight)
    parent = np.full(n, n, dtype=np.int64)  # sentinel n = no tight in-edge
    np.minimum.at(parent, edge_dst[e], edge_src[e])
    return np.where(parent < n, parent, np.arange(n, dtype=np.int64))


def extract_path(graph: Graph, source: int, target: int, dist: np.ndarray) -> list[int]:
    """Recover one shortest path ``source -> target`` from the distances.

    Returns ``[]`` when ``target`` is unreachable; otherwise a vertex list
    starting at ``source`` and ending at ``target``.
    """
    n = graph.n
    if not 0 <= target < n:
        raise ParameterError(f"target {target} out of range [0, {n})")
    if not np.isfinite(dist[target]):
        return []
    pred = predecessors(graph, source, dist)
    route = [target]
    v = target
    seen = 0
    while v != source:
        v = int(pred[v])
        if v < 0 or seen > n:
            raise RuntimeError("broken predecessor chain — dist is not a valid SSSP solution")
        route.append(v)
        seen += 1
    return route[::-1]


def shortest_path_tree(graph: Graph, source: int, dist: np.ndarray) -> Graph:
    """The shortest-path tree as a directed graph (edges parent -> child).

    Each reachable non-source vertex contributes exactly one tree edge, with
    the original edge weight.
    """
    pred = predecessors(graph, source, dist)
    children = np.flatnonzero(pred >= 0)
    parents = pred[children]
    weights = dist[children] - dist[parents]
    return Graph.from_edges(
        graph.n, parents, children, weights, directed=True, dedup=False,
        name=f"{graph.name}-spt" if graph.name else "spt",
    )
