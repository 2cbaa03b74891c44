"""TuningService fault tests: crash-between-advance-and-finish, abort paths.

Satellite regressions: coalesced waiters must be released (not deadlocked)
when the underlying tune raises, and a service crashed between ``advance``
and ``finish`` must recover its job from the record store on restart.
"""

import errno
import os

import pytest

from repro.faults import FaultPlan, InjectedCrash, inject
from repro.records import RecordStore
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import (
    SOURCE_COALESCED,
    SOURCE_REGISTRY,
    SOURCE_SCHEDULED,
    TuningRequest,
    TuningService,
)
from repro.tensor.workloads import gemm


class _ExplodingScheduler:
    """Scheduler double whose every entry point raises."""

    def tune_round(self, dag, max_measures):
        raise RuntimeError("injected scheduler failure")

    def finalize(self, dag):
        raise RuntimeError("injected scheduler failure")


@pytest.fixture
def exploding_service(tiny_config):
    return TuningService(
        registry=ScheduleRegistry(),
        config=tiny_config,
        seed=0,
        scheduler_factory=lambda name, seed, provider: _ExplodingScheduler(),
    )


class TestWaitersReleasedOnError:
    def test_coalesced_waiters_all_resolve(self, exploding_service):
        service = exploding_service
        handles = [
            service.submit(
                TuningRequest(dag=gemm(64, 64, 64, name=f"client_{i}"), n_trials=8)
            )
            for i in range(4)
        ]
        with pytest.raises(RuntimeError, match="injected scheduler failure"):
            service.run()

        assert all(h.done for h in handles)
        assert all(
            "injected scheduler failure" in h.result.extras["error"] for h in handles
        )
        assert service.active_jobs() == 0
        assert service.aborted_jobs == 1

    def test_advance_releases_waiters_too(self, exploding_service):
        service = exploding_service
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        with pytest.raises(RuntimeError):
            service.advance(handle, max_measures=4)
        assert handle.done
        assert service.active_jobs() == 0

    def test_failed_key_is_resubmittable(self, exploding_service):
        service = exploding_service
        service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        with pytest.raises(RuntimeError):
            service.run()
        retry = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="retry"), n_trials=8)
        )
        assert retry.source == SOURCE_SCHEDULED
        assert service.jobs_created == 2

    def test_aborted_result_reports_partial_trials(self, tiny_config):
        # The scheduler dies on its *second* round: the abort result must
        # still carry the first round's accounting.
        class _DiesOnSecondRound:
            def __init__(self, inner):
                self.inner = inner
                self.rounds = 0
                self.measurer = inner.measurer

            def tune_round(self, dag, max_measures):
                self.rounds += 1
                if self.rounds >= 2:
                    raise RuntimeError("died mid-tuning")
                return self.inner.tune_round(dag, max_measures=max_measures)

            def finalize(self, dag):
                return self.inner.finalize(dag)

        from repro.core.scheduler import HARLScheduler
        from repro.hardware.target import cpu_target

        def factory(name, seed, provider):
            return _DiesOnSecondRound(
                HARLScheduler(target=cpu_target(), config=tiny_config, seed=seed)
            )

        service = TuningService(
            registry=ScheduleRegistry(),
            config=tiny_config,
            seed=0,
            scheduler_factory=factory,
        )
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=64))
        with pytest.raises(RuntimeError, match="died mid-tuning"):
            service.run()
        assert handle.done
        assert handle.result.trials_used > 0
        assert handle.result.best_latency < float("inf")
        assert "died mid-tuning" in handle.result.extras["error"]


class _FullDiskOnce(ScheduleRegistry):
    """In-memory registry whose first ``record_result`` fails with ENOSPC."""

    failures = 1

    def record_result(self, *args, **kwargs):
        if self.failures:
            self.failures -= 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().record_result(*args, **kwargs)


class TestFinishFailureReleasesWaiters:
    def test_failed_registry_write_aborts_the_job(self, tiny_config):
        service = TuningService(registry=_FullDiskOnce(), config=tiny_config, seed=0)
        first = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        twin = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="twin"), n_trials=8)
        )
        assert twin.source == SOURCE_COALESCED
        with pytest.raises(OSError, match="No space left"):
            service.run()

        assert first.done and twin.done
        for handle in (first, twin):
            assert "No space left" in handle.result.extras["error"]
        assert service.active_jobs() == 0
        assert service.aborted_jobs == 1
        assert service.run() == 0
        # The abort salvaged the best-so-far, so a resubmission is answered
        # from the registry instead of joining the dead job.
        retry = service.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="retry"), n_trials=8)
        )
        assert retry.source == SOURCE_REGISTRY


class TestCrashBetweenAdvanceAndFinish:
    def _crashed_state(self, tmp_path, tiny_config, seed=0):
        registry_root = tmp_path / "registry"
        records_path = tmp_path / "records.jsonl"
        store = RecordStore(records_path)
        service = TuningService(
            registry=ScheduleRegistry(registry_root, num_shards=4),
            config=tiny_config,
            seed=seed,
            record_store=store,
        )
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=12))
        service.advance(handle, max_measures=4)
        with inject(FaultPlan.single("service.advance", "crash", seed=seed)):
            with pytest.raises(InjectedCrash):
                service.advance(handle, max_measures=4)
        service.registry.close()
        store.close()
        return registry_root, records_path, handle.fingerprint

    def test_recover_from_records_restores_the_job(self, tmp_path, tiny_config):
        registry_root, records_path, fingerprint = self._crashed_state(
            tmp_path, tiny_config
        )
        registry = ScheduleRegistry(registry_root, num_shards=4)
        store = RecordStore.load(records_path)
        assert store.query(kind="measure"), "measurements must survive the crash on disk"

        revived = TuningService(
            registry=registry, config=tiny_config, seed=0, record_store=store
        )
        assert registry.lookup(fingerprint, revived.target.name, k=0).entry is None
        assert revived.recover_from_records() >= 1

        entry = registry.lookup(fingerprint, revived.target.name, k=0).entry
        assert entry is not None
        assert entry.latency == min(
            m.latency for m in store.query(kind="measure") if m.fingerprint == fingerprint
        )

        hit = revived.submit(
            TuningRequest(dag=gemm(64, 64, 64, name="after_restart"), n_trials=12)
        )
        assert hit.source == SOURCE_REGISTRY
        assert hit.result.trials_used == 0
        registry.close()
        store.close()

    def test_recovery_is_idempotent(self, tmp_path, tiny_config):
        registry_root, records_path, _ = self._crashed_state(tmp_path, tiny_config)
        registry = ScheduleRegistry(registry_root, num_shards=4)
        store = RecordStore.load(records_path)
        revived = TuningService(
            registry=registry, config=tiny_config, seed=0, record_store=store
        )
        assert revived.recover_from_records() >= 1
        before = {e.key: e.latency for e in registry.entries()}
        assert revived.recover_from_records() == 0  # nothing improves twice
        assert {e.key: e.latency for e in registry.entries()} == before
        registry.close()
        store.close()

    def test_recover_without_store_is_a_noop(self, tiny_config):
        service = TuningService(registry=ScheduleRegistry(), config=tiny_config)
        assert service.recover_from_records() == 0
