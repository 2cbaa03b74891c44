"""Fault-then-recover scenarios backing the release-gate obligations.

Each scenario is a plain callable taking a :class:`ScenarioContext` (a seed
and a scratch directory) that builds real subsystem state, arms a seeded
:class:`~repro.faults.plan.FaultPlan` around the operation under test, then
*recovers the way production would* — reloading stores from disk, retrying a
client call, restarting the service — and asserts the obligation's invariant
with :meth:`ScenarioContext.require`.  A failed ``require`` raises
:class:`ObligationViolation`, which the runner in
:mod:`repro.faults.obligations` reports with the message intact.

Scenarios must stay deterministic for a fixed seed: all randomness comes from
the armed plan's RNG or from values derived from ``ctx.seed``, never from the
wall clock or process state.
"""

from __future__ import annotations

import errno
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from repro.faults.plan import FaultPlan, InjectedCrash, inject

__all__ = ["ObligationViolation", "ScenarioContext", "SCENARIOS"]


class ObligationViolation(AssertionError):
    """A recovery invariant did not hold after an injected fault."""


@dataclass
class ScenarioContext:
    """What every scenario gets: a seed and a private scratch directory."""

    seed: int
    root: Path

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ObligationViolation(message)


# --------------------------------------------------------------------- #
# shared builders
# --------------------------------------------------------------------- #
def _tiny_config():
    from repro.core.config import HARLConfig

    return HARLConfig(
        window_size=4,
        elimination_ratio=0.5,
        min_tracks=2,
        num_tracks=8,
        episode_length=8,
        measures_per_round=4,
        minibatch_size=32,
        replay_capacity=512,
        ucb_window=16,
    )


def _entry(idx: int, latency: float, target: str = "sim-cpu"):
    from repro.serving.registry import RegistryEntry

    return RegistryEntry(
        fingerprint=f"wl-{idx:02d}",
        target=target,
        workload=f"workload_{idx}",
        latency=float(latency),
        throughput=1.0 / float(latency),
        trials=8,
        scheduler="harl",
        schedule={"stub": idx},
        embedding=(float(idx), 1.0),
        source="scenario",
    )


def _measure(idx: int):
    from repro.records import MeasureRecord

    return MeasureRecord(
        workload="scenario_workload",
        latency=1.0 + idx * 0.01,
        throughput=1.0 / (1.0 + idx * 0.01),
        trial_index=idx,
        schedule={"stub": idx},
        scheduler="harl",
        fingerprint="fp-scenario",
    )


def _best_map(registry) -> Dict[Tuple[str, str], float]:
    return {entry.key: entry.latency for entry in registry.entries()}


def _quiet_registry(root: Path, num_shards: int = 4, strict: bool = False):
    """Reload a registry with recovery warnings suppressed (expected here)."""
    from repro.serving.registry import ScheduleRegistry

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScheduleRegistry(root, num_shards=num_shards, strict=strict)


# --------------------------------------------------------------------- #
# registry obligations
# --------------------------------------------------------------------- #
def registry_no_lost_best(ctx: ScenarioContext) -> None:
    """A torn shard append + crash loses no (fingerprint, target) best."""
    from repro.serving.registry import ScheduleRegistry

    entries = [_entry(i, 1.0 + ((i * 7 + ctx.seed) % 5) / 10) for i in range(10)]

    clean = ScheduleRegistry(ctx.root / "clean", num_shards=4)
    for entry in entries:
        clean.record(entry)
    clean.close()
    expected = _best_map(_quiet_registry(ctx.root / "clean"))

    faulted_root = ctx.root / "faulted"
    victim = ScheduleRegistry(faulted_root, num_shards=4)
    plan = FaultPlan.single("registry.append", "torn_write", at=5, seed=ctx.seed)
    crashed_at = None
    with inject(plan):
        for index, entry in enumerate(entries):
            try:
                victim.record(entry)
            except InjectedCrash:
                crashed_at = index
                break
    ctx.require(crashed_at is not None, "the planned torn append never fired")

    # Restart: reload from the surviving files, then the client retries every
    # append it never saw acknowledged.
    recovered = _quiet_registry(faulted_root)
    ctx.require(
        recovered.truncated_tails >= 1,
        "reload did not repair the torn shard tail",
    )
    for entry in entries[crashed_at:]:
        recovered.record(entry)
    recovered.close()

    final = _best_map(_quiet_registry(faulted_root))
    ctx.require(
        final == expected,
        f"recovered registry diverged from fault-free registry: {final} != {expected}",
    )


def registry_torn_tail_truncated(ctx: ScenarioContext) -> None:
    """A torn final line on every shard is truncated (with a warning), not fatal."""
    from repro.serving.registry import ScheduleRegistry

    root = ctx.root / "registry"
    registry = ScheduleRegistry(root, num_shards=2)
    for i in range(6):
        registry.record(_entry(i, 2.0 - i / 10))
    registry.close()

    torn_shards = 0
    for shard in sorted(root.glob("shard-*.jsonl")):
        lines = shard.read_text().splitlines()
        if not lines:
            continue
        cut = 1 + (ctx.seed + torn_shards) % max(1, len(lines[-1]) - 1)
        head = "".join(line + "\n" for line in lines[:-1])
        shard.write_text(head + lines[-1][:cut])
        torn_shards += 1
    ctx.require(torn_shards >= 1, "scenario built no shards to tear")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recovered = ScheduleRegistry(root, num_shards=2, strict=True)
    ctx.require(
        recovered.truncated_tails == torn_shards,
        f"expected {torn_shards} repaired tails, saw {recovered.truncated_tails}",
    )
    ctx.require(
        any("torn" in str(w.message) for w in caught),
        "truncation happened silently — operators must be told data was dropped",
    )
    for shard in sorted(root.glob("shard-*.jsonl")):
        raw = shard.read_bytes()
        ctx.require(
            not raw or raw.endswith(b"\n"),
            f"{shard.name} still does not end on a line boundary",
        )

    # The store must be appendable again: the next append may not concatenate
    # onto any leftover partial line.
    recovered.record(_entry(99, 0.5))
    recovered.close()
    reloaded = _quiet_registry(root, num_shards=2, strict=True)
    ctx.require(
        ("wl-99", "sim-cpu") in _best_map(reloaded),
        "append after tail repair was not readable on reload",
    )
    ctx.require(reloaded.truncated_tails == 0, "repair did not converge in one pass")


# --------------------------------------------------------------------- #
# record-store obligations
# --------------------------------------------------------------------- #
def records_no_double_count(ctx: ScenarioContext) -> None:
    """An ENOSPC'd append is rolled back everywhere; its retry lands once."""
    from repro.records import RecordStore

    path = ctx.root / "records.jsonl"
    store = RecordStore(path)
    for i in range(1, 4):
        store.append_measure(_measure(i))

    plan = FaultPlan.single(
        "records.flush", "enospc", at=0, match="measure", seed=ctx.seed
    )
    with inject(plan):
        try:
            store.append_measure(_measure(4))
            ctx.require(False, "the planned ENOSPC never surfaced")
        except OSError as exc:
            ctx.require(exc.errno == errno.ENOSPC, f"wrong errno: {exc.errno}")
    ctx.require(
        len(store.query(kind='measure')) == 3,
        "a failed append still landed in memory (double count on retry)",
    )
    ctx.require(store.flush_failures == 1, "flush failure was not counted")

    store.append_measure(_measure(4))  # the client's retry, disk now healthy
    store.close()

    reloaded = RecordStore.load(path, strict=True)
    trials = [m.trial_index for m in reloaded.query(kind='measure')]
    ctx.require(
        trials == [1, 2, 3, 4],
        f"log does not hold each measurement exactly once: {trials}",
    )


def records_slow_flush_flagged(ctx: ScenarioContext) -> None:
    """A slow-disk stall is surfaced via the counter and corrupts nothing."""
    from repro.records import RecordStore

    path = ctx.root / "records.jsonl"
    store = RecordStore(path)
    plan = FaultPlan.single("records.flush", "slow_disk", at=1, seed=ctx.seed)
    with inject(plan):
        for i in range(1, 4):
            store.append_measure(_measure(i))
    ctx.require(store.slow_flushes >= 1, "slow flush went unflagged")
    ctx.require(store.flush_failures == 0, "a stall is not a failure")
    store.close()

    reloaded = RecordStore.load(path, strict=True)
    ctx.require(
        [m.trial_index for m in reloaded.query(kind='measure')] == [1, 2, 3],
        "slow flush corrupted the log",
    )


# --------------------------------------------------------------------- #
# compaction obligations
# --------------------------------------------------------------------- #
def _registry_with_stale_lines(root: Path, num_shards: int = 2):
    from repro.serving.registry import ScheduleRegistry

    registry = ScheduleRegistry(root, num_shards=num_shards)
    for i in range(6):
        registry.record(_entry(i, 2.0))
        registry.record(_entry(i, 1.0 + i / 100))  # improvement → stale line
    registry.close()


def compaction_atomic(ctx: ScenarioContext) -> None:
    """A crash mid-compaction loses nothing; only a temp file is left behind."""
    root = ctx.root / "registry"
    _registry_with_stale_lines(root)
    expected = _best_map(_quiet_registry(root, num_shards=2))

    victim = _quiet_registry(root, num_shards=2)
    plan = FaultPlan.single(
        "registry.compact", "torn_write", match="mid_write", at=2, seed=ctx.seed
    )
    with inject(plan):
        try:
            victim.compact()
            ctx.require(False, "the planned compaction crash never fired")
        except InjectedCrash:
            pass

    tmps = list(root.glob("shard-*.jsonl.tmp"))
    ctx.require(
        len(tmps) >= 1,
        "crashed compaction left no temp file — is it writing shards in place?",
    )

    recovered = _quiet_registry(root, num_shards=2)
    ctx.require(
        _best_map(recovered) == expected,
        "entries were lost to a compaction crash",
    )
    ctx.require(recovered.removed_orphans >= 1, "orphaned temp file not cleaned up")
    ctx.require(not list(root.glob("*.tmp")), "temp file survived recovery")

    recovered.compact()
    recovered.close()
    ctx.require(
        _best_map(_quiet_registry(root, num_shards=2)) == expected,
        "re-running compaction after the crash changed the best map",
    )

    # Compaction also writes the manifest: a fresh reload must answer an
    # exact hit after scanning at most its one shard.
    lazy = _quiet_registry(root, num_shards=2)
    ctx.require(
        lazy.lookup("wl-00", "sim-cpu", k=0).entry is not None,
        "indexed reload lost an entry after the compaction crash",
    )
    ctx.require(
        lazy.indexed_shards <= 1,
        "an exact lookup after compaction indexed more than its one shard",
    )
    lazy.close()


def compaction_idempotent(ctx: ScenarioContext) -> None:
    """Compaction converges: a second pass removes nothing and rewrites nothing."""
    root = ctx.root / "registry"
    _registry_with_stale_lines(root)
    expected = _best_map(_quiet_registry(root, num_shards=2))

    first = _quiet_registry(root, num_shards=2)
    removed = first.compact()
    first.close()
    ctx.require(removed >= 1, "scenario built no stale lines to compact")
    snapshot = {f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))}

    second = _quiet_registry(root, num_shards=2)
    removed_again = second.compact()
    second.close()
    ctx.require(removed_again == 0, f"second compaction removed {removed_again} lines")
    ctx.require(
        {f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))} == snapshot,
        "second compaction rewrote shard bytes",
    )

    # Crash in the instant before the atomic publish: disk must hold either
    # the old shard or the new one, never a mixture.
    third = _quiet_registry(root, num_shards=2)
    third.record(_entry(0, 0.25))  # fresh stale line so compaction has work
    third.close()
    expected[("wl-00", "sim-cpu")] = 0.25

    victim = _quiet_registry(root, num_shards=2)
    plan = FaultPlan.single(
        "registry.compact", "crash", match="before_replace", seed=ctx.seed
    )
    with inject(plan):
        try:
            victim.compact()
            ctx.require(False, "the planned before-replace crash never fired")
        except InjectedCrash:
            pass

    recovered = _quiet_registry(root, num_shards=2)
    ctx.require(
        _best_map(recovered) == expected,
        "crash before the atomic replace corrupted a shard",
    )
    recovered.compact()
    recovered.close()
    ctx.require(
        _best_map(_quiet_registry(root, num_shards=2)) == expected,
        "compaction retried after the crash changed the best map",
    )

    # The retried compaction must leave a native layout: a lazy reload
    # answers exactly without a full scan.
    lazy = _quiet_registry(root, num_shards=2)
    ctx.require(
        lazy.lookup("wl-00", "sim-cpu", k=0).entry is not None
        and lazy.indexed_shards <= 1,
        "retried compaction left the shard index unusable for lazy lookups",
    )
    lazy.close()


# --------------------------------------------------------------------- #
# service obligations
# --------------------------------------------------------------------- #
def service_finish_after_crash_recovers(ctx: ScenarioContext) -> None:
    """Crash between advance and finish: a restarted service recovers the job."""
    from repro.records import RecordStore
    from repro.serving.registry import ScheduleRegistry
    from repro.serving.service import SOURCE_REGISTRY, TuningRequest, TuningService
    from repro.tensor.workloads import gemm

    registry_root = ctx.root / "registry"
    records_path = ctx.root / "records.jsonl"
    store = RecordStore(records_path)
    service = TuningService(
        registry=ScheduleRegistry(registry_root, num_shards=4),
        config=_tiny_config(),
        seed=ctx.seed,
        record_store=store,
    )
    handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=12))
    service.advance(handle, max_measures=4)  # one clean round, durably logged

    plan = FaultPlan.single("service.advance", "crash", seed=ctx.seed)
    with inject(plan):
        try:
            service.advance(handle, max_measures=4)
            ctx.require(False, "the planned service crash never fired")
        except InjectedCrash:
            pass
    service.registry.close()
    store.close()

    # --- restart: everything rebuilt from disk ---
    registry = _quiet_registry(registry_root)
    fingerprint = handle.fingerprint
    ctx.require(
        registry.lookup(fingerprint, service.target.name, k=0).entry is None,
        "scenario defect: the crashed job finished before the crash",
    )
    reloaded_store = RecordStore.load(records_path)
    measures = reloaded_store.query(kind="measure")
    ctx.require(len(measures) >= 1, "no measurements survived the crash on disk")

    revived = TuningService(
        registry=registry,
        config=_tiny_config(),
        seed=ctx.seed,
        record_store=reloaded_store,
    )
    recovered = revived.recover_from_records()
    ctx.require(recovered >= 1, "recovery accepted no registry entries")

    entry = registry.lookup(fingerprint, revived.target.name, k=0).entry
    ctx.require(entry is not None, "recovered registry still misses the workload")
    best_logged = min(m.latency for m in measures if m.fingerprint == fingerprint)
    ctx.require(
        entry.latency == best_logged,
        f"recovered latency {entry.latency} != best logged {best_logged}",
    )

    # The recovered entry must actually serve clients: a resubmission of the
    # same workload is a registry hit costing zero trials.
    twin = revived.submit(
        TuningRequest(dag=gemm(64, 64, 64, name="after_restart"), n_trials=12)
    )
    ctx.require(twin.source == SOURCE_REGISTRY, "restarted service re-tuned from scratch")
    ctx.require(twin.result.trials_used == 0, "registry hit consumed trials")


def service_waiters_released(ctx: ScenarioContext) -> None:
    """A scheduler error releases every coalesced waiter instead of deadlocking."""
    from repro.serving.registry import ScheduleRegistry
    from repro.serving.service import SOURCE_SCHEDULED, TuningRequest, TuningService
    from repro.tensor.workloads import gemm

    class _ExplodingScheduler:
        def tune_round(self, dag, max_measures):
            raise RuntimeError("injected scheduler failure")

        def finalize(self, dag):
            raise RuntimeError("injected scheduler failure")

    service = TuningService(
        registry=ScheduleRegistry(),
        config=_tiny_config(),
        seed=ctx.seed,
        scheduler_factory=lambda name, seed, provider: _ExplodingScheduler(),
    )
    handles = [
        service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name=f"client_{i}"), n_trials=8)
        )
        for i in range(3)
    ]
    try:
        service.run()
        ctx.require(False, "the scheduler error was swallowed")
    except RuntimeError:
        pass

    ctx.require(
        all(handle.done for handle in handles),
        "coalesced waiters were left hanging after the scheduler error",
    )
    ctx.require(
        all(
            "injected scheduler failure" in handle.result.extras.get("error", "")
            for handle in handles
        ),
        "aborted results do not carry the error",
    )
    ctx.require(service.active_jobs() == 0, "the failed job is still in flight")
    ctx.require(service.aborted_jobs == 1, "abort accounting is off")

    # The key must be free again: a resubmission builds a fresh job rather
    # than coalescing onto the corpse.
    retry = service.submit(
        TuningRequest(dag=gemm(64, 64, 64, name="retry"), n_trials=8)
    )
    ctx.require(retry.source == SOURCE_SCHEDULED, "resubmission did not get a new job")
    ctx.require(service.jobs_created == 2, "resubmission reused the aborted job")


# --------------------------------------------------------------------- #
# network-server obligations
# --------------------------------------------------------------------- #
def _tiny_service(ctx: ScenarioContext):
    from repro.serving.registry import ScheduleRegistry
    from repro.serving.service import TuningService

    return TuningService(
        registry=ScheduleRegistry(), config=_tiny_config(), seed=ctx.seed
    )


def server_timeout_enforced(ctx: ScenarioContext) -> None:
    """A wedged backend gets an explicit ``timeout`` answer, not a hang."""
    import time

    from repro.serving.netclient import TuningClient
    from repro.serving.server import ServerConfig, ServingServer

    config = ServerConfig(workers=1, max_inflight=2, request_timeout=0.25)
    plan = FaultPlan.single("server.accept", "slow_disk", seed=ctx.seed, delay=1.5)
    with ServingServer(_tiny_service(ctx), config) as server:
        with inject(plan):
            with TuningClient(server.host, server.port, timeout=10.0,
                              max_retries=0) as client:
                began = time.perf_counter()
                reply = client.tune("GEMM-S", trials=4)
                elapsed = time.perf_counter() - began
                ctx.require(
                    not reply.ok and reply.error_code == "timeout",
                    f"wedged backend did not answer 'timeout': {reply}",
                )
                ctx.require(
                    elapsed < 1.2,
                    f"timeout answered only after the {1.5}s stall cleared "
                    f"({elapsed:.2f}s) — the deadline is not enforced",
                )
                ctx.require(
                    client.ping(),
                    "server unresponsive after answering a timeout",
                )
            ctx.require(plan.fired, "the planned backend stall never fired")
            ctx.require(server.timeouts >= 1, "timeout was not counted")
        # Context exit joins the stalled worker, so the armed plan of the
        # next scenario can never leak into this server's backend.


def server_retry_bounded(ctx: ScenarioContext) -> None:
    """Client retry is bounded, and a recovering backend is ridden out."""
    from repro.serving.netclient import NetClientError, TuningClient
    from repro.serving.server import ServerConfig, ServingServer

    with ServingServer(_tiny_service(ctx), ServerConfig(workers=2)) as server:
        # A backend that keeps dying must exhaust the client after exactly
        # 1 + max_retries attempts instead of retrying forever.
        stubborn = FaultPlan.single("server.accept", "crash", seed=ctx.seed, times=50)
        with inject(stubborn):
            with TuningClient(server.host, server.port, timeout=10.0,
                              max_retries=2, backoff=0.01) as client:
                try:
                    client.tune("GEMM-S", trials=4)
                    ctx.require(False, "a permanently dead backend did not raise")
                except NetClientError as exc:
                    ctx.require(
                        exc.attempts == 3,
                        f"retry not bounded at 1+max_retries: {exc.attempts}",
                    )
            ctx.require(
                len(stubborn.fired) == 3,
                f"client hit the backend {len(stubborn.fired)} times, not 3",
            )

        # A backend that recovers within the budget: the retry rides out the
        # two drops and the third attempt is answered normally.
        flaky = FaultPlan.single("server.accept", "crash", seed=ctx.seed, times=2)
        with inject(flaky):
            with TuningClient(server.host, server.port, timeout=10.0,
                              max_retries=3, backoff=0.01) as client:
                reply = client.tune("GEMM-S", trials=4)
                ctx.require(reply.ok, f"recovering backend not ridden out: {reply}")
                ctx.require(
                    reply.attempts == 3,
                    f"expected success on attempt 3, got {reply.attempts}",
                )
        ctx.require(len(flaky.fired) == 2, "the flaky-backend drops never fired")
        ctx.require(server.dropped >= 5, "dropped connections were not counted")


def server_shed_from_registry(ctx: ScenarioContext) -> None:
    """A saturated server answers registry-only with an explicit degraded flag."""
    import threading
    import time

    from repro.faults.plan import FaultSpec
    from repro.serving.netclient import TuningClient
    from repro.serving.server import ServerConfig, ServingServer

    config = ServerConfig(workers=1, max_inflight=1, request_timeout=30.0)
    with ServingServer(_tiny_service(ctx), config) as server:
        with TuningClient(server.host, server.port, timeout=30.0) as client:
            primed = client.tune("GEMM-S", trials=4)
            ctx.require(
                primed.ok and not primed.degraded,
                f"priming tune failed: {primed}",
            )

        plan = FaultPlan(
            [
                # Wedge the only admission slot: the blocker tenant's job
                # stalls in the backend long enough to saturate the server.
                FaultSpec("server.accept", "slow_disk", match="blocker:",
                          delay=1.5),
                # And the first shed answer dies mid-shed: the client's
                # bounded retry must recover it.
                FaultSpec("server.shed", "crash", at=0),
            ],
            seed=ctx.seed,
        )
        with inject(plan):
            def _block() -> None:
                with TuningClient(server.host, server.port, timeout=30.0,
                                  max_retries=0) as blocker:
                    blocker.tune("C1D", trials=4, tenant="blocker")

            blocker = threading.Thread(target=_block, daemon=True)
            blocker.start()
            deadline = time.monotonic() + 5.0
            while server.accepted < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            ctx.require(server.accepted >= 2, "blocker request was never admitted")

            with TuningClient(server.host, server.port, timeout=30.0,
                              max_retries=2, backoff=0.01) as client:
                # force_tune asks for fresh trials; the saturated server must
                # answer from the registry instead and say so.
                reply = client.tune("GEMM-S", trials=4, force_tune=True)
                ctx.require(
                    reply.ok and reply.degraded,
                    f"saturated server did not degrade explicitly: {reply}",
                )
                ctx.require(
                    reply.trials_used == 0,
                    f"shed answer consumed {reply.trials_used} fresh trials",
                )
                ctx.require(
                    reply.source == "registry-hit",
                    f"shed answer not from the registry: {reply.source!r}",
                )
                ctx.require(
                    reply.latency == primed.latency,
                    "shed answer diverged from the stored best",
                )
                ctx.require(
                    reply.attempts == 2,
                    f"the crashed shed was not retried once: {reply.attempts}",
                )

                # Unknown workload while saturated: an explicit overloaded
                # error (still flagged degraded), never a hang or silent drop.
                miss = client.tune("GEMM-M", trials=4)
                ctx.require(
                    not miss.ok and miss.error_code == "overloaded",
                    f"registry miss under saturation not rejected: {miss}",
                )
                ctx.require(miss.degraded, "overloaded answer not flagged degraded")
            ctx.require(server.shed >= 3, f"shed counter off: {server.shed}")
            blocker.join(timeout=10.0)
            ctx.require(not blocker.is_alive(), "wedged job never completed")


#: name → scenario callable (consumed by :mod:`repro.faults.obligations`).
SCENARIOS = {
    "registry_no_lost_best": registry_no_lost_best,
    "registry_torn_tail_truncated": registry_torn_tail_truncated,
    "records_no_double_count": records_no_double_count,
    "records_slow_flush_flagged": records_slow_flush_flagged,
    "compaction_atomic": compaction_atomic,
    "compaction_idempotent": compaction_idempotent,
    "service_finish_after_crash_recovers": service_finish_after_crash_recovers,
    "service_waiters_released": service_waiters_released,
    "server_timeout_enforced": server_timeout_enforced,
    "server_retry_bounded": server_retry_bounded,
    "server_shed_from_registry": server_shed_from_registry,
}
