"""Deterministic fault injection for the serving stack.

The resilience layer (supervised pools, engine retries, circuit breaker) is
only trustworthy if its failure paths are exercised *deterministically*: a
chaos test must be able to say "kill the worker running sweep cell 1, hang
the first engine execution for 1.5 s" and then assert the recovered results
are bit-identical to a fault-free run.  This module provides that control
plane:

* :class:`FaultSpec` — one fault: a *site* name, a *kind* (``crash`` /
  ``hang`` / ``exception`` / ``corrupt``), which invocations it hits
  (explicit ``at`` indices or a seeded ``rate``), and how many retry
  attempts it survives (``times``).
* :class:`FaultPlan` — a picklable bundle of specs plus a seed, shippable to
  pool workers through the executor initializer.
* :class:`FaultInjector` — the runtime object call sites poke via
  :func:`get_injector`.  With no plan installed (the default) ``fire`` is a
  single attribute test — zero overhead on the serving hot path.

Named injection sites wired through the stack:

=================  ============================================================
``pool.worker``    start of every supervised pool task (worker process side)
``engine.execute`` :meth:`QueryEngine._execute_once`, before any kernel work
``engine.sharded`` additionally fired on the sharded (BSP) path only
``engine.update``  every cache-repair attempt inside
                   :meth:`QueryEngine.apply_updates` (one index per warm
                   entry) — a persistent fault degrades that entry to a
                   full recompute, never a wrong answer
``graph.load``     :func:`repro.graphs.io.load_npz`, before reading the file
``server.admit``   every :meth:`ShortestPathServer.submit`, on the event-loop
                   thread, before admission control (``exception`` faults
                   surface typed to that one caller)
``server.flush``   every batch execution attempt, on the server's worker
                   thread — a ``hang`` stalls one batch while the loop keeps
                   admitting/shedding (the overload-safe failure mode)
``labels.build``   start of every landmark/hub-label build
                   (:mod:`repro.labels`) — ``corrupt`` plants a negative
                   distance that structural validation must reject
``labels.lookup``  every :meth:`~repro.labels.LabelIndex.dist` call —
                   ``corrupt`` flips the answer's sign so ALT-bound
                   validation catches it and the query degrades to the
                   SSSP fallback, bit-identically
=================  ============================================================

Rate-based specs are *stateless-deterministic*: whether invocation ``i``
(attempt ``a``) faults is a pure hash of ``(seed, site, i, a)``, so the same
plan produces the same fault schedule in every process — there is no hidden
RNG stream to desynchronise across pool workers or retries.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from repro.utils.errors import ExecutionError, ParameterError

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "get_injector",
    "install_injector",
]

FAULT_KINDS = ("crash", "hang", "exception", "corrupt")

#: Process exit code used by the ``crash`` kind, chosen to be recognisable in
#: worker post-mortems (and distinct from signal-style negative codes).
CRASH_EXIT_CODE = 87


class InjectedFault(ExecutionError):
    """The transient error raised by ``exception``-kind faults.

    Derives from :class:`~repro.utils.errors.ExecutionError` so every layer
    that survives real transient failures survives injected ones through the
    identical code path.
    """


def _hash01(seed: int, site: str, index: int, attempt: int) -> float:
    """Deterministic uniform-ish value in [0, 1) for rate-based specs."""
    token = f"{seed}:{site}:{index}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Parameters
    ----------
    site:
        Injection-site name this spec listens on (see module docstring).
    kind:
        ``crash`` (``os._exit`` the process), ``hang`` (sleep ``delay``
        seconds), ``exception`` (raise :class:`InjectedFault`), or
        ``corrupt`` (tell the call site to corrupt its payload).
    at:
        Invocation indices to hit.  ``None`` means "every invocation passes
        through the seeded ``rate`` coin flip" instead.
    rate:
        Fault probability per invocation when ``at`` is ``None``
        (deterministic given the plan seed; see :func:`_hash01`).
    times:
        The fault fires only while the caller's retry ``attempt < times`` —
        so ``times=1`` is a transient fault that a single retry clears, and
        a large ``times`` models a persistent failure.
    delay:
        Sleep duration for ``hang`` faults.
    """

    site: str
    kind: str
    at: "tuple[int, ...] | None" = None
    rate: float = 1.0
    times: int = 1
    delay: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise ParameterError(f"fault times must be >= 1, got {self.times}")
        if self.delay <= 0:
            raise ParameterError(f"hang delay must be positive, got {self.delay}")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(i) for i in self.at))

    def hits(self, seed: int, index: int, attempt: int) -> bool:
        """Does this spec fire for invocation ``index`` at retry ``attempt``?"""
        if attempt >= self.times:
            return False
        if self.at is not None:
            return index in self.at
        return _hash01(seed, self.site, index, attempt) < self.rate


@dataclass(frozen=True)
class FaultPlan:
    """A picklable fault schedule: specs plus the seed for rate-based ones."""

    specs: "tuple[FaultSpec, ...]" = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def single(cls, site: str, kind: str, *, seed: int = 0, **kw) -> "FaultPlan":
        """Convenience one-spec plan: ``FaultPlan.single("pool.worker", "crash", at=(1,))``."""
        return cls(specs=(FaultSpec(site=site, kind=kind, **kw),), seed=seed)


class FaultInjector:
    """Runtime fault dispatcher consulted at every injection site.

    ``fire`` resolves the plan for one ``(site, index, attempt)`` and either
    returns ``None`` (no fault), kills the process, sleeps, raises
    :class:`InjectedFault`, or returns the string ``"corrupt"`` telling the
    call site to corrupt its own payload (payload shape is site-specific, so
    corruption is applied by the caller).

    ``fired`` records every fault delivered in this process as
    ``(site, kind, index, attempt)`` tuples, for assertions and post-mortems.
    """

    def __init__(self, plan: "FaultPlan | None" = None) -> None:
        self.plan = plan if plan else None
        self._counters: "dict[str, int]" = {}
        self.fired: "list[tuple[str, str, int, int]]" = []

    @property
    def enabled(self) -> bool:
        return self.plan is not None

    def fire(self, site: str, *, index: "int | None" = None, attempt: int = 0) -> "str | None":
        """Evaluate faults for one invocation of ``site``.

        ``index`` identifies the invocation (task number, batch sequence);
        when omitted, a per-site counter supplies it.  ``attempt`` is the
        caller's retry count — specs stop firing once ``attempt >= times``,
        which is what makes injected faults *transient* and recovery
        testable.
        """
        if self.plan is None:  # the disabled fast path: one attribute test
            return None
        if index is None:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
        directive = None
        for spec in self.plan.specs:
            if spec.site != site or not spec.hits(self.plan.seed, index, attempt):
                continue
            self.fired.append((site, spec.kind, index, attempt))
            if spec.kind == "crash":
                # A hard worker death: no exception, no cleanup, no atexit —
                # exactly what a segfault or OOM-kill looks like to the pool.
                os._exit(CRASH_EXIT_CODE)
            if spec.kind == "hang":
                time.sleep(spec.delay)
            elif spec.kind == "exception":
                raise InjectedFault(
                    f"injected fault at {site}[{index}] (attempt {attempt})"
                )
            elif spec.kind == "corrupt":
                directive = "corrupt"
        return directive


#: Process-global injector. Defaults to a disabled instance so call sites can
#: unconditionally ``get_injector().fire(...)`` with negligible cost.
_INJECTOR = FaultInjector(None)


def get_injector() -> FaultInjector:
    """The process-global injector (a disabled no-op unless installed)."""
    return _INJECTOR


def install_injector(injector: "FaultInjector | FaultPlan | None") -> FaultInjector:
    """Install a process-global injector; ``None`` restores the no-op.

    Accepts a ready :class:`FaultInjector` or a bare :class:`FaultPlan` (the
    form that ships through pool-worker initializers).  Returns the installed
    injector so tests can inspect ``fired``.
    """
    global _INJECTOR
    if injector is None:
        _INJECTOR = FaultInjector(None)
    elif isinstance(injector, FaultPlan):
        _INJECTOR = FaultInjector(injector)
    elif isinstance(injector, FaultInjector):
        _INJECTOR = injector
    else:
        raise ParameterError(f"expected FaultInjector, FaultPlan or None, got {type(injector)!r}")
    return _INJECTOR
