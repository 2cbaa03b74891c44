"""Fault injection and the obligation-style release gate.

Two layers live here:

* :mod:`repro.faults.plan` — the deterministic fault-injection harness: a
  seeded :class:`FaultPlan` armed with ``inject(plan)`` fires at named fault
  points that the registry, record store, tuning service and network server
  consult (``poll`` is a near-free no-op when no plan is armed).
* :mod:`repro.faults.obligations` / :mod:`repro.faults.scenarios` — the
  release gate: a declarative table of recovery invariants (*what must hold
  after a fault, not how it is tested*), each executed as a seeded
  fault-then-recover scenario.  ``python -m repro.faults.gate`` (wired as
  ``make gate`` and a CI job) runs the table and writes a report artifact.

Only the harness layer is re-exported here; the gate layers import the wider
system and are loaded explicitly by their consumers.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
    FiredFault,
    InjectedCrash,
    InjectedFault,
    active_plan,
    inject,
    poll,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "inject",
    "poll",
]
