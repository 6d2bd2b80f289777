"""Online point-to-point queries over precomputed label tables.

:class:`LabelIndex` is the serving half of the precomputation trade: it
answers ``dist(s, t)`` / ``reachable(s, t)`` / ``knearest`` from the label
tables built offline, in microseconds, while *never trusting them blindly*:

* every hub answer is checked against the structural invariant ``d >= 0``
  and — when a landmark table rides along — the exact ALT sandwich
  ``lower <= d <= upper``.  On the integer-weighted graphs this repo
  serves, those bounds hold *exactly* for the true distance, so any
  violation proves the hub tables (or the lookup) are corrupt;
* a failed check, an injected ``labels.lookup`` fault, or a missing hub
  table degrades to the **SSSP fallback** — an exact stepping run whose
  answer is bit-identical to what the label path would have produced from
  healthy tables.  Queries never return a wrong distance; at worst they
  return a slower right one;
* a landmark-only index still serves exactly when the bounds *pinch*
  (``lower == upper`` — e.g. whenever one endpoint is a landmark) and
  proves unreachability when the lower bound is ``+inf``; everything else
  falls back.

Staleness is checked on every entry point via
:meth:`~repro.labels.store.LabelBundle.require_fresh` — a bundle
invalidated by a graph update raises before it can serve a single answer;
the raised :class:`LabelFormatError` is the engine's signal to rebuild.

``labels.lookup`` is a fault-injection site (one firing per ``dist`` call,
indexed by the query sequence number); ``labels.lookup.*`` metrics sit
behind the zero-overhead ``OBS.enabled`` seam.
"""

from __future__ import annotations

from collections import OrderedDict
from math import isfinite

import numpy as np

from repro.core.framework import stepping_sssp
from repro.graphs.csr import Graph
from repro.labels.hublabels import hub_distance
from repro.labels.landmarks import make_policy
from repro.labels.store import LabelBundle
from repro.obs import OBS
from repro.serving.faults import InjectedFault, get_injector
from repro.utils.errors import ParameterError

__all__ = ["LabelIndex"]

_INF = float("inf")


class LabelIndex:
    """Validated point-to-point query front end over a :class:`LabelBundle`.

    Parameters
    ----------
    graph:
        The serving graph; the bundle's fingerprint must match it.
    bundle:
        Label tables (landmarks and/or hubs) built for ``graph``.
    fallback:
        ``callable(source) -> float64[n]`` returning the exact distance row
        for ``source`` — typically the serving engine's cached SSSP.  When
        omitted, a built-in stepping run (with a small per-index row cache)
        is used, so the index is self-sufficient.
    algo / param / seed:
        Policy for the built-in fallback runs.
    """

    def __init__(
        self,
        graph: Graph,
        bundle: LabelBundle,
        *,
        fallback=None,
        algo: str = "bf",
        param=None,
        seed=0,
    ) -> None:
        bundle.require_fresh(graph)
        bundle.validate(graph)
        self.graph = graph
        self.bundle = bundle
        self._fallback = fallback
        self._algo = algo
        self._param = param
        self._seed = seed
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._row_capacity = 32
        self._seq = 0
        self.stats = {
            "lookups": 0,
            "hub_served": 0,
            "landmark_served": 0,
            "fallbacks": 0,
            "bound_violations": 0,
            "injected_faults": 0,
        }

    # ------------------------------------------------------------------ #
    # internals

    def _check_vertex(self, name: str, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.graph.n:
            raise ParameterError(
                f"{name}={v} out of range [0, {self.graph.n})"
            )
        return v

    def _count(self, event: str) -> None:
        self.stats[event] += 1
        if OBS.enabled:
            OBS.registry.inc(f"labels.lookup.{event}")

    def _fallback_row(self, s: int) -> np.ndarray:
        """Exact distance row for ``s`` (engine cache or built-in SSSP)."""
        if self._fallback is not None:
            return np.asarray(self._fallback(s))
        row = self._rows.get(s)
        if row is None:
            row = stepping_sssp(
                self.graph, s, make_policy(self._algo, self._param),
                seed=self._seed,
            ).dist
            self._rows[s] = row
            while len(self._rows) > self._row_capacity:
                self._rows.popitem(last=False)
        else:
            self._rows.move_to_end(s)
        return row

    def _fallback_dist(self, s: int, t: int) -> float:
        self._count("fallbacks")
        return float(self._fallback_row(s)[t])

    def bounds(self, s: int, t: int) -> "tuple[float, float]":
        """The exact ALT sandwich ``(lower, upper)`` — ``(0, inf)`` without
        a landmark table."""
        lm = self.bundle.landmarks
        if lm is None:
            return (0.0, _INF)
        return lm.bounds(s, t)

    # ------------------------------------------------------------------ #
    # queries

    def dist(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)`` (``inf`` when unreachable) — label-served
        when the tables check out, SSSP fallback otherwise."""
        s = self._check_vertex("s", s)
        t = self._check_vertex("t", t)
        self.bundle.require_fresh(self.graph)
        self._count("lookups")
        seq = self._seq
        self._seq += 1
        try:
            directive = get_injector().fire("labels.lookup", index=seq)
        except InjectedFault:
            # A transient lookup fault costs one SSSP run, never a wrong
            # answer.
            self._count("injected_faults")
            return self._fallback_dist(s, t)
        if s == t:
            return 0.0
        lb, ub = self.bounds(s, t)
        if self.bundle.hubs is not None:
            d = hub_distance(self.bundle.hubs, s, t)
            if directive == "corrupt":
                # Payload corruption: negate the answer (or fabricate a
                # finite one for unreachable pairs) — the validation below
                # must catch either and degrade to the fallback.
                d = -(d + 1.0) if isfinite(d) else -1.0
            if self._answer_ok(d, lb, ub):
                self._count("hub_served")
                return d
            self._count("bound_violations")
            return self._fallback_dist(s, t)
        # Landmark-only index: serve exactly when the sandwich pinches.
        if lb == ub:
            d = lb
            if directive == "corrupt":
                d = -(d + 1.0) if isfinite(d) else -1.0
            if self._answer_ok(d, lb, ub):
                self._count("landmark_served")
                return d
            self._count("bound_violations")
        return self._fallback_dist(s, t)

    @staticmethod
    def _answer_ok(d: float, lb: float, ub: float) -> bool:
        """Is ``d`` a structurally possible answer?

        Non-negative, not NaN, and inside the exact ALT sandwich.  On
        integer-weighted graphs the sandwich is exact for the true
        distance, so a healthy table can never fail this test — a failure
        is proof of corruption, not a false positive.
        """
        # NaN fails every comparison, so these also reject it.
        return 0.0 <= d and lb <= d <= ub

    def reachable(self, s: int, t: int) -> bool:
        """Whether a path ``s -> t`` exists.

        Hub tables answer directly (finite distance).  Landmark tables
        answer for free in both directions: a ``+inf`` lower bound *proves*
        unreachability, a finite upper bound *proves* a route; only the
        gap between them costs an SSSP run.
        """
        s = self._check_vertex("s", s)
        t = self._check_vertex("t", t)
        self.bundle.require_fresh(self.graph)
        if s == t:
            return True
        if self.bundle.hubs is not None:
            return isfinite(self.dist(s, t))
        lb, ub = self.bounds(s, t)
        if not isfinite(lb):
            return False
        if isfinite(ub):
            return True
        return isfinite(self._fallback_dist(s, t))

    def knearest(
        self, t: int, sources, k: int
    ) -> "list[tuple[int, float]]":
        """The ``k`` sources nearest to ``t`` as ``(source, dist)`` pairs.

        Distances run through :meth:`dist` (so every answer carries the
        same validation/fallback guarantees); unreachable sources are
        excluded; ties break toward the lower source id, so the result is
        deterministic.
        """
        t = self._check_vertex("t", t)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        pairs = []
        for s in sources:
            s = self._check_vertex("source", s)
            d = self.dist(s, t)
            if isfinite(d):
                pairs.append((d, s))
        pairs.sort()
        return [(s, d) for d, s in pairs[:k]]
