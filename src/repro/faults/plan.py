"""Deterministic fault-injection plans for the stateful serving/tuning stack.

The stack has several crash-sensitive commit points: registry shard appends,
record-log flushes, compaction rewrites, and the service's round-commit →
job-finish window.  This module
lets a test (or the release gate, see :mod:`repro.faults.obligations`) arm a
seeded, reproducible :class:`FaultPlan` that fires at exactly those points:

* Production code consults a **named fault point** via :func:`poll`, which is
  a no-op returning ``None`` unless a plan is active (``with inject(plan):``),
  so the hooks cost one global read on the happy path.
* A :class:`FaultSpec` selects *where* (``point`` + optional ``match`` against
  the hook's detail string), *when* (the ``at``-th matching arrival, for
  ``times`` consecutive arrivals) and *what* (``kind``: a torn partial write,
  a simulated process crash, ENOSPC, or a slow disk stall).
* Everything random (e.g. where a torn write is cut) comes from the plan's
  seeded RNG, and hooks are polled from deterministic control points, so one
  ``(plan specs, seed)`` pair replays the same fault sequence every run.

The injected exceptions model real failure modes: :class:`InjectedCrash`
simulates the process dying (nothing may run afterwards on that object's
behalf — recovery happens in a *reloaded* instance), and ENOSPC is raised as
a genuine ``OSError`` so production code exercises its real error handling.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import AnyStr, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import counter
from repro.obs.trace import trace_event

__all__ = [
    "FAULT_POINTS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "inject",
    "poll",
]

#: Every named fault point production code consults, with what firing there
#: simulates.  ``poll`` rejects unknown names so hooks and plans cannot drift
#: apart silently.
FAULT_POINTS = {
    "registry.append": "shard append: torn write + death, ENOSPC, crash before writing, or slow disk",
    "registry.compact": "crash mid-compaction (mid temp write or just before the atomic replace)",
    "records.flush": "record-log append: torn write + death, ENOSPC, crash before writing, or slow disk",
    "service.advance": "process crash between a round commit and the job finish",
    "server.accept": "stall or drop of an admitted request before tuning starts",
    "server.shed": "failure while shedding load (answering registry-only)",
}

#: What a firing spec does at its point.
FAULT_KINDS = ("torn_write", "crash", "enospc", "slow_disk")

_INJECTED = counter("faults.injected", "Faults fired by an armed FaultPlan")


class InjectedFault(Exception):
    """Base class of all injected failures."""


class InjectedCrash(InjectedFault):
    """Simulated process death: nothing runs after this on the dead object.

    Recovery is only legitimate through a freshly constructed instance over
    the surviving on-disk state, exactly like a real restart.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, when and what to inject.

    Parameters
    ----------
    point:
        Name of the fault point (a key of :data:`FAULT_POINTS`).
    kind:
        One of :data:`FAULT_KINDS`.
    at / times:
        Fire on the ``at``-th *matching* arrival at the point (0-based), for
        ``times`` consecutive matching arrivals.
    match:
        Only arrivals whose detail string contains this substring count (and
        can fire).  ``None`` matches every arrival at the point.
    fraction:
        For torn writes: keep this fraction of the intended bytes.  ``None``
        (the default) draws the cut from the plan's seeded RNG.
    delay:
        For ``slow_disk``: stall duration in seconds.
    """

    point: str
    kind: str
    at: int = 0
    times: int = 1
    match: Optional[str] = None
    fraction: Optional[float] = None
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known: {sorted(FAULT_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.at < 0 or self.times < 1:
            raise ValueError("FaultSpec needs at >= 0 and times >= 1")
        if self.fraction is not None and not (0.0 < self.fraction < 1.0):
            raise ValueError("fraction must lie strictly between 0 and 1")


class FiredFault:
    """A spec that just fired, plus helpers to enact its kind.

    Production hooks receive this from :func:`poll` and apply the failure
    themselves (they know their I/O handles); the helpers keep the failure
    shapes consistent across hooks.
    """

    def __init__(self, spec: FaultSpec, plan: "FaultPlan", detail: str):
        self.spec = spec
        self.plan = plan
        self.detail = detail

    def torn_prefix(self, text: AnyStr) -> AnyStr:
        """A strict prefix of an intended write (at least one byte is lost)."""
        if len(text) <= 1:
            return text[:0]
        if self.spec.fraction is not None:
            cut = int(len(text) * self.spec.fraction)
        else:
            with self.plan._lock:
                cut = 1 + self.plan.rng.randrange(len(text) - 1)
        return text[: max(1, min(cut, len(text) - 1))]

    def sleep(self) -> None:
        """Stall, simulating a slow disk."""
        time.sleep(self.spec.delay)

    def raise_enospc(self) -> None:
        """Raise a genuine out-of-space ``OSError``."""
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.detail or None)

    def crash(self, message: str) -> None:
        """Simulate process death at this point."""
        raise InjectedCrash(f"{self.spec.point}: {message}")


class FaultPlan:
    """A seeded, reproducible set of :class:`FaultSpec` injections.

    Each spec keeps its own count of matching arrivals, so ``at``/``times``
    windows are relative to the arrivals that spec could have fired on.  The
    first spec whose window covers the current arrival wins; later specs do
    not observe that arrival.  ``fired`` logs every injection as
    ``(point, kind, detail)`` so scenarios can assert the fault really
    happened (a plan that never fires usually means a hook regressed).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.fired: List[Tuple[str, str, str]] = []  # guarded-by: _lock
        self._arrivals = [0] * len(self.specs)  # guarded-by: _lock
        self._lock = threading.Lock()

    @classmethod
    def single(cls, point: str, kind: str, seed: int = 0, **kwargs) -> "FaultPlan":
        """Convenience: a plan holding exactly one spec."""
        return cls([FaultSpec(point, kind, **kwargs)], seed=seed)

    def poll(self, point: str, detail: str = "") -> Optional[FiredFault]:
        """Record one arrival at ``point``; return the firing spec, if any."""
        fired: Optional[FiredFault] = None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.point != point:
                    continue
                if spec.match is not None and spec.match not in detail:
                    continue
                arrival = self._arrivals[index]
                self._arrivals[index] += 1
                if spec.at <= arrival < spec.at + spec.times:
                    self.fired.append((point, spec.kind, detail))
                    fired = FiredFault(spec, self, detail)
                    break
        if fired is not None:
            # Observability hooks run outside the plan lock: a fired fault is
            # both a counter tick and a trace event, so trace trees show the
            # injected failure inline with the spans it disturbed.
            _INJECTED.inc()
            trace_event(
                "fault.injected", point=point, kind=fired.spec.kind, detail=detail
            )
        return fired


# --------------------------------------------------------------------- #
# module-level activation (what production hooks consult)
# --------------------------------------------------------------------- #
_ACTIVE: Optional[FaultPlan] = None
_ACTIVATION_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _ACTIVE


def poll(point: str, detail: str = "") -> Optional[FiredFault]:
    """Consult a named fault point; ``None`` (fast) when no plan is armed.

    Worker threads share the armed plan — arrivals are counted under the
    plan's lock — but deterministic callers poll from sequential control
    points (batch submission loops, commit points), so firing order is
    reproducible for a fixed plan.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    if point not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; known: {sorted(FAULT_POINTS)}"
        )
    return plan.poll(point, detail)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (plans never nest)."""
    global _ACTIVE
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a fault plan is already active; plans do not nest")
        _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
