"""The obligation table and gate runner: *what must hold after a fault*.

An :class:`Obligation` is a named recovery invariant of the serving/tuning
stack, bound to the :mod:`~repro.faults.scenarios` scenario that enforces it
by injecting the fault and exercising the production recovery path.  The
table is declarative on purpose — reviewers audit *invariants* here and read
the mechanics in one place (the scenario) rather than piecing them together
from scattered test files.

:func:`run_gate` executes every obligation under several seeds (each run in a
fresh temporary directory, so obligations are hermetic and order-independent)
and returns a :class:`GateReport` that serialises to the
``GATE_obligations.json`` artifact published by ``make gate`` and CI.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Callable, List, Optional, Sequence

from repro.faults.plan import InjectedFault
from repro.faults.scenarios import SCENARIOS, ObligationViolation, ScenarioContext

__all__ = [
    "GateReport",
    "Obligation",
    "ObligationOutcome",
    "OBLIGATIONS",
    "run_gate",
    "run_obligation",
]


@dataclass(frozen=True)
class Obligation:
    """One release-gate invariant: a name, the promise, and its enforcer."""

    name: str
    description: str
    scenario: Callable[[ScenarioContext], None]


def _scenario(key: str) -> Callable[[ScenarioContext], None]:
    return SCENARIOS[key]


#: The release gate.  Every entry must pass, under every gate seed, before a
#: build ships.  Names are ``subsystem.invariant``.
OBLIGATIONS = (
    Obligation(
        "registry.no_lost_best",
        "A crash that tears a shard append loses no (fingerprint, target) "
        "best: after reload plus client retry the registry equals a "
        "fault-free one.",
        _scenario("registry_no_lost_best"),
    ),
    Obligation(
        "registry.torn_tail_truncated",
        "A torn final line on any shard (even all of them) is truncated "
        "with a warning at load — never an exception, even in strict mode — "
        "and the shard is cleanly appendable afterwards.",
        _scenario("registry_torn_tail_truncated"),
    ),
    Obligation(
        "records.no_double_count",
        "A record append that fails with ENOSPC leaves memory and disk "
        "agreeing, and its retry lands exactly once in the log.",
        _scenario("records_no_double_count"),
    ),
    Obligation(
        "records.slow_flush_flagged",
        "A slow-disk stall on a record flush is surfaced via the "
        "slow_flushes counter and corrupts nothing.",
        _scenario("records_slow_flush_flagged"),
    ),
    Obligation(
        "compaction.atomic_replace",
        "A crash mid-compaction loses no entries: shards are replaced "
        "atomically and the orphaned temp file is cleaned up on reload.",
        _scenario("compaction_atomic"),
    ),
    Obligation(
        "compaction.idempotent",
        "Compaction converges — a second pass removes nothing and rewrites "
        "no bytes — and a crash just before the atomic publish leaves "
        "either the old shard or the new one, never a mixture.",
        _scenario("compaction_idempotent"),
    ),
    Obligation(
        "service.finish_after_crash_recovers",
        "A service crash between a round commit and the job finish is "
        "recoverable: a restarted service folds the measurement log back "
        "into the registry and answers the workload as a zero-trial hit.",
        _scenario("service_finish_after_crash_recovers"),
    ),
    Obligation(
        "service.waiters_released_on_error",
        "A scheduler error aborts the job and releases every coalesced "
        "waiter with an error-tagged result; the workload key is free for "
        "resubmission.",
        _scenario("service_waiters_released"),
    ),
    Obligation(
        "timeout.enforced",
        "A request whose backend wedges is answered with the explicit "
        "'timeout' error code within the configured deadline — the server "
        "never hangs the client and stays responsive afterwards.",
        _scenario("server_timeout_enforced"),
    ),
    Obligation(
        "retry.bounded",
        "The wire client's transport retry is bounded: a permanently dead "
        "backend surfaces after exactly 1+max_retries attempts, while a "
        "backend that recovers within the budget is ridden out.",
        _scenario("server_retry_bounded"),
    ),
    Obligation(
        "shed.answers_from_registry",
        "A saturated server sheds load by answering registry-only with an "
        "explicit degraded flag and zero fresh trials; a registry miss gets "
        "the explicit 'overloaded' error — never a hang or a silent drop.",
        _scenario("server_shed_from_registry"),
    ),
)


@dataclass
class ObligationOutcome:
    """Result of one (obligation, seed) scenario run."""

    obligation: Obligation
    seed: int
    passed: bool
    message: str
    duration_s: float


def run_obligation(obligation: Obligation, seed: int) -> ObligationOutcome:
    """Run one obligation's scenario under one seed, hermetically."""
    started = time.perf_counter()
    passed, message = True, "ok"
    with TemporaryDirectory(prefix=f"gate-{obligation.name}-") as scratch:
        ctx = ScenarioContext(seed=seed, root=Path(scratch))
        try:
            with warnings.catch_warnings():
                # Scenarios provoke recovery warnings on purpose; the ones
                # that must warn assert on them explicitly.
                warnings.simplefilter("ignore")
                obligation.scenario(ctx)
        except ObligationViolation as violation:
            passed, message = False, str(violation)
        except InjectedFault as fault:
            passed = False
            message = f"unhandled injected fault escaped recovery: {fault}"
        except Exception as exc:  # scenario crashed outright
            passed, message = False, f"{type(exc).__name__}: {exc}"
    return ObligationOutcome(
        obligation=obligation,
        seed=seed,
        passed=passed,
        message=message,
        duration_s=time.perf_counter() - started,
    )


@dataclass
class GateReport:
    """All outcomes of one gate run, serialisable to the report artifact."""

    seeds: List[int]
    outcomes: List[ObligationOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def failures(self) -> List[ObligationOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def to_dict(self) -> dict:
        obligations = []
        for obligation in OBLIGATIONS:
            runs = [o for o in self.outcomes if o.obligation.name == obligation.name]
            if not runs:
                continue
            obligations.append(
                {
                    "name": obligation.name,
                    "description": obligation.description,
                    "passed": all(run.passed for run in runs),
                    # Wall clock summed over this obligation's seed runs, so
                    # gate-time regressions show up per row in the artifact.
                    "duration_s": round(sum(run.duration_s for run in runs), 4),
                    "runs": [
                        {
                            "seed": run.seed,
                            "passed": run.passed,
                            "message": run.message,
                            "duration_s": round(run.duration_s, 4),
                        }
                        for run in runs
                    ],
                }
            )
        return {
            "schema": "obligation-gate/1",
            "seeds": list(self.seeds),
            "passed": self.passed,
            "duration_s": round(sum(o.duration_s for o in self.outcomes), 4),
            "obligations": obligations,
        }

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def run_gate(
    seeds: Sequence[int] = (0, 1, 2),
    names: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[ObligationOutcome], None]] = None,
) -> GateReport:
    """Run the obligation table (optionally a named subset) over ``seeds``."""
    selected = list(OBLIGATIONS)
    if names:
        wanted = set(names)
        unknown = wanted - {obligation.name for obligation in OBLIGATIONS}
        if unknown:
            known = sorted(obligation.name for obligation in OBLIGATIONS)
            raise KeyError(f"unknown obligation(s) {sorted(unknown)}; known: {known}")
        selected = [o for o in selected if o.name in wanted]
    report = GateReport(seeds=list(seeds))
    for obligation in selected:
        for seed in seeds:
            outcome = run_obligation(obligation, seed)
            report.outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    return report
