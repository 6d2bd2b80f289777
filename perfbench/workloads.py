"""Seeded inputs and the independent reference for the four workloads.

Everything the program is given is made here from ``--seed`` with the
package's public generators, before any timing starts.  The reference is
``scipy.sparse.csgraph.dijkstra`` on the benchmark's own copy of each graph:
a SciPy matrix built from the generated edge arrays, with parallel edges
reduced to their minimum weight.  Weights are integers, so every comparison
is exact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

WORKLOADS = ("sssp-road", "rows-social", "p2p-road", "updates-social")
TCP_WORKLOADS = ("rows-social",)
IN_PROCESS = ("sssp-road", "p2p-road", "updates-social")

#: sssp-road: GE-style grid side, sources per round, and the rotation of
#: stepping algorithms (each source runs once under each).  Delta is chosen
#: so a Delta*-stepping row (~150 steps) costs about what a rho-stepping or
#: Bellman-Ford row (~70 steps) costs: with one cost mode the median
#: latency sits inside it, not between two modes.
ROAD_SIDE = 120
ROAD_SOURCES_PER_ROUND = 4
ROAD_ALGOS = ("delta_star", "rho", "bf")
ROAD_DELTA = 2.0 ** 11
#: Generator seed of both road grids (the GE stand-in's).
ROAD_GRAPH_SEED = 106

#: rows-social: fresh distinct sources and requests per round (so the miss
#: share is exactly 16/128 = 12.5 %), and the Zipf skew of the repeats.
ROWS_DISTINCT = 16
ROWS_PER_ROUND = 128
ROWS_ZIPF = 1.1

#: p2p-road: grid side and uniform (source, target) pairs per round.
P2P_SIDE = 40
P2P_PER_ROUND = 256

#: updates-social: warm cached rows, batches per round, and the edit mix of
#: one batch (distinct undirected edges).
UPD_WARM = 16
UPD_BATCHES_PER_ROUND = 4
UPD_MIX = {"decrease": 3, "increase": 3, "insert": 1, "delete": 1}
UPD_MAX_WEIGHT = 2 ** 18


def digest(row: np.ndarray) -> str:
    """Exact fingerprint of one distance row (float64 bytes)."""
    data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def max_rounds(workload: str, seconds: float) -> int:
    """Rounds generated up front: several times what a run can use."""
    per_second = {"sssp-road": 4, "rows-social": 3, "p2p-road": 120, "updates-social": 8}
    return int(per_second[workload] * seconds) + 20


def ref_matrix(n: int, src, dst, w) -> sp.csr_matrix:
    """SciPy CSR of a directed edge list; parallel edges keep their minimum."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    key = src * n + dst
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    first = np.r_[True, key[1:] != key[:-1]] if key.size else np.zeros(0, bool)
    key, w = key[first], w[first]
    return sp.csr_matrix((w, (key // n, key % n)), shape=(n, n))


def graph_edges(graph) -> tuple:
    """Directed edge arrays of a generated graph (its CSR, read once)."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
    return graph.n, src, np.array(graph.indices), np.array(graph.weights)


def reference_rows(matrix, sources) -> np.ndarray:
    return dijkstra(matrix, directed=True, indices=np.asarray(sources, dtype=np.int64))


# --------------------------------------------------------------------------- #
# Graphs
# --------------------------------------------------------------------------- #


def make_graph(workload: str):
    """The workload's graph, from the public generators.

    Graphs do not depend on ``--seed`` (the operations do): on the shared
    host the CPU speed already drifts by about 20 % over seconds, and a
    per-seed graph would add its own spread on top (another grid means
    other step counts and other label sizes).
    """
    from repro.datasets import load_dataset
    from repro.graphs import road_grid

    if workload == "sssp-road":
        return road_grid(ROAD_SIDE, max_weight=float(2 ** 16), seed=ROAD_GRAPH_SEED)
    if workload == "p2p-road":
        return road_grid(P2P_SIDE, max_weight=float(2 ** 16), seed=ROAD_GRAPH_SEED)
    # The OK stand-in; cache=False keeps it off disk.  Row serving uses the
    # default scale; edits use the small one, where one edit batch costs
    # ~50 ms, so a run holds 100+ of them.
    scale = "default" if workload == "rows-social" else "small"
    return load_dataset("OK", scale, cache=False)


# --------------------------------------------------------------------------- #
# Operation lists
# --------------------------------------------------------------------------- #


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def road_rounds(n: int, seed: int, rounds: int) -> list:
    """Each round: fresh sources, each run once by every algorithm."""
    out = []
    for r in range(rounds):
        sources = _rng(seed, 1, r).integers(0, n, ROAD_SOURCES_PER_ROUND)
        out.append([[algo, int(s)] for s in sources for algo in ROAD_ALGOS])
    return out


def rows_rounds(n: int, seed: int, rounds: int) -> list:
    """Each round: 16 fresh distinct sources, each asked once, plus 48
    Zipf-distributed repeats among them, shuffled."""
    rounds = min(rounds, n // ROWS_DISTINCT)
    perm = _rng(seed, 2).permutation(n)
    ranks = np.arange(1, ROWS_DISTINCT + 1, dtype=float)
    p = ranks ** -ROWS_ZIPF
    p /= p.sum()
    out = []
    for r in range(rounds):
        rng = _rng(seed, 3, r)
        pool = perm[r * ROWS_DISTINCT:(r + 1) * ROWS_DISTINCT]
        repeats = rng.choice(ROWS_DISTINCT, ROWS_PER_ROUND - ROWS_DISTINCT, p=p)
        trace = np.concatenate([np.arange(ROWS_DISTINCT), repeats])
        rng.shuffle(trace)
        out.append([int(pool[i]) for i in trace])
    return out


def p2p_round(n: int, seed: int, r: int) -> list:
    """Round ``r`` of uniform (source, target) pairs.  Rounds are made on
    demand, in the program process too: a run uses ~100 000 pairs, which as
    a JSON list would weigh on the program process's peak RSS."""
    return _rng(seed, 4, r).integers(0, n, (P2P_PER_ROUND, 2)).tolist()


class EdgeCopy:
    """The benchmark's own copy of an undirected graph under edits.

    Semantics follow :class:`repro.dynamic.UpdateBatch`: an insert of an
    existing edge is an upsert, deleting a missing edge is a no-op, a
    reweight of a missing edge inserts it, every edit applies to both
    orientations, and duplicates resolve last-wins in the order inserts,
    deletes, reweights.
    """

    def __init__(self, n: int, src, dst, w) -> None:
        keep = src < dst
        self.n = n
        self.base_keys = src[keep] * n + dst[keep]  # sorted: CSR order
        self.base_w = w[keep].astype(np.float64)
        self.over: dict = {}  # canonical key -> weight, or None when deleted

    def _key(self, u: int, v: int) -> int:
        return min(u, v) * self.n + max(u, v)

    def weight(self, key: int) -> "float | None":
        if key in self.over:
            return self.over[key]
        i = int(np.searchsorted(self.base_keys, key))
        if i < len(self.base_keys) and self.base_keys[i] == key:
            return float(self.base_w[i])
        return None

    def apply(self, batch: dict) -> None:
        for u, v, w in batch["inserts"]:
            self.over[self._key(u, v)] = float(w)
        for u, v in batch["deletes"]:
            self.over[self._key(u, v)] = None
        for u, v, w in batch["reweights"]:
            self.over[self._key(u, v)] = float(w)

    def matrix(self) -> sp.csr_matrix:
        keys, w = self.base_keys, self.base_w.copy()
        over_k = np.fromiter(self.over.keys(), dtype=np.int64, count=len(self.over))
        over_w = np.array([np.nan if x is None else x for x in self.over.values()])
        pos = np.minimum(np.searchsorted(keys, over_k), len(keys) - 1)
        hit = keys[pos] == over_k
        w[pos[hit]] = over_w[hit]  # reweights of existing edges; NaN deletes
        new = ~hit & ~np.isnan(over_w)  # inserts of non-edges
        keys = np.concatenate([keys, over_k[new]])
        w = np.concatenate([w, over_w[new]])
        live = ~np.isnan(w)
        u, v, w = keys[live] // self.n, keys[live] % self.n, w[live]
        # Canonical keys are distinct, so there are no parallel edges to reduce.
        return sp.csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(self.n, self.n))


def update_batches(copy: EdgeCopy, seed: int, rounds: int) -> list:
    """Seeded edit batches; ``copy`` is advanced through all of them."""
    out = []
    n = copy.n
    for r in range(rounds):
        batches = []
        for b in range(UPD_BATCHES_PER_ROUND):
            rng = _rng(seed, 5, r, b)
            used: set = set()
            batch = {"inserts": [], "deletes": [], "reweights": []}
            for kind, count in UPD_MIX.items():
                while count:
                    if kind == "insert":
                        u, v = (int(x) for x in rng.integers(0, n, 2))
                        key = copy._key(u, v)
                        if u == v or key in used or copy.weight(key) is not None:
                            continue
                    else:
                        key = int(copy.base_keys[rng.integers(len(copy.base_keys))])
                        if key in used or copy.weight(key) is None:
                            continue
                        u, v = divmod(key, n)
                        if rng.random() < 0.5:  # either orientation
                            u, v = v, u
                    old = copy.weight(key)
                    if kind == "decrease":
                        if old <= 1:
                            continue
                        batch["reweights"].append([u, v, float(rng.integers(1, int(old)))])
                    elif kind == "increase":
                        batch["reweights"].append([u, v, old + float(rng.integers(1, 2 ** 16))])
                    elif kind == "insert":
                        batch["inserts"].append([u, v, float(rng.integers(1, UPD_MAX_WEIGHT))])
                    else:
                        batch["deletes"].append([u, v])
                    used.add(key)
                    count -= 1
            copy.apply(batch)
            batches.append(batch)
        out.append(batches)
    return out


# --------------------------------------------------------------------------- #
# Inputs on disk
# --------------------------------------------------------------------------- #


def prepare(workload: str, seed: int, seconds: float, directory: Path) -> dict:
    """Write the program's inputs under ``directory``; return what the
    benchmark keeps for itself (reference copy, operation list)."""
    from repro.graphs import save_npz

    graph = make_graph(workload)
    directory.mkdir(parents=True, exist_ok=True)
    save_npz(graph, directory / "graph.npz")
    n, src, dst, w = graph_edges(graph)
    rounds = max_rounds(workload, seconds)
    kept = {"n": n, "m": len(src), "edges": (src, dst, w)}
    if workload == "sssp-road":
        ops = {"rounds": road_rounds(n, seed, rounds)}
    elif workload == "rows-social":
        ops = {"rounds": rows_rounds(n, seed, rounds)}
    elif workload == "p2p-road":
        ops = {"n": n, "seed": seed, "max_rounds": rounds}
    else:
        warm = _rng(seed, 6).choice(n, UPD_WARM, replace=False)
        ops = {"warm": [int(s) for s in warm],
               "rounds": update_batches(EdgeCopy(n, src, dst, w), seed, rounds)}
    (directory / "ops.json").write_text(json.dumps(ops))
    kept["ops"] = ops
    return kept


# --------------------------------------------------------------------------- #
# Checking answers
# --------------------------------------------------------------------------- #


def check_rows(kept: dict, sources: list, digests: list) -> int:
    """Mismatching operations among full-row answers (one row each)."""
    n, src, dst, w = kept["n"], *kept["edges"]
    matrix = ref_matrix(n, src, dst, w)
    distinct = sorted(set(sources))
    ref = dict(zip(distinct, (digest(r) for r in reference_rows(matrix, distinct))))
    return int(sum(ref[s] != d for s, d in zip(sources, digests)))


def check_row_summaries(kept: dict, sources: list, answers: list) -> int:
    """Mismatches among TCP row answers: ``(reached, checksum)`` per row."""
    n, src, dst, w = kept["n"], *kept["edges"]
    matrix = ref_matrix(n, src, dst, w)
    distinct = sorted(set(sources))
    ref = {}
    for lo in range(0, len(distinct), 64):
        chunk = distinct[lo:lo + 64]
        for s, row in zip(chunk, reference_rows(matrix, chunk)):
            finite = np.isfinite(row)
            ref[s] = (int(finite.sum()), float(row[finite].sum()))
    return int(sum(tuple(a) != ref[s] for s, a in zip(sources, answers)))


def check_p2p(kept: dict, pairs: list, answers: list) -> int:
    """Mismatches among p2p answers; ``None`` must match exactly the
    unreachable pairs."""
    n, src, dst, w = kept["n"], *kept["edges"]
    full = reference_rows(ref_matrix(n, src, dst, w), np.arange(n))
    bad = 0
    for (s, t), d in zip(pairs, answers):
        want = full[s, t]
        bad += (d is None) != (not np.isfinite(want)) or (d is not None and d != want)
    return int(bad)


def check_updates(kept: dict, executed_rounds: int, digests: list) -> int:
    """Replay the executed edit batches on the benchmark's copy; after each,
    the warm rows read back must equal Dijkstra on the edited copy."""
    n, src, dst, w = kept["n"], *kept["edges"]
    copy = EdgeCopy(n, src, dst, w)
    warm = kept["ops"]["warm"]
    batches = [b for rnd in kept["ops"]["rounds"][:executed_rounds] for b in rnd]
    bad = 0
    for batch, got in zip(batches, digests, strict=True):
        copy.apply(batch)
        want = [digest(r) for r in reference_rows(copy.matrix(), warm)]
        bad += want != got
    return bad
