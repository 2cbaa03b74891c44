"""The observability layer as wired into the production stack.

Pins the acceptance-critical behaviours: the TuningService publishes its
hit/coalesce counters and submit→finish latency histogram, legacy
per-instance counters stay in lockstep with their global mirrors, and the
obligation gate report carries wall-clock durations per row.
"""

import pytest

from repro import obs
from repro.faults import FaultPlan, FaultSpec
from repro.faults.obligations import OBLIGATIONS, GateReport, ObligationOutcome
from repro.hardware.measurer import Measurer
from repro.records import RecordStore
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.workloads import gemm


def _spans(tracer, name):
    return [r for r in tracer.records if r["kind"] == "span" and r["name"] == name]


def _counter(name):
    metric = obs.default_registry().get(name)
    return metric.value if metric is not None else 0


class TestServiceInstrumentation:
    def _renamed(self, n):
        return [gemm(64, 64, 64, name=f"client_{i}") for i in range(n)]

    def test_counters_and_latency_histogram(self, tiny_config):
        service = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0
        )
        # Wave 1: two structurally identical requests — one job, one coalesce.
        wave1 = [TuningRequest(dag=dag, n_trials=8) for dag in self._renamed(2)]
        service.process(wave1)
        # Wave 2: same structure again — answered O(1) from the registry.
        service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])

        assert _counter("service.requests") == 3
        assert _counter("service.jobs_created") == 1
        assert _counter("service.coalesced") == 1
        assert _counter("service.registry_hits") == 1
        assert _counter("service.jobs_finished") == 1
        # Global mirrors stay in lockstep with the instance counters.
        assert _counter("service.coalesced") == service.coalesced_requests
        assert _counter("service.registry_hits") == service.registry_hits

        hist = obs.default_registry().get("service.submit_to_finish_seconds")
        assert hist.count == 3  # every handle finished through the histogram
        assert hist.percentile(50) <= hist.percentile(95) <= hist.percentile(99)

    def test_round_and_finish_spans_emitted(self, tiny_config):
        service = TuningService(
            registry=ScheduleRegistry(), config=tiny_config, seed=0
        )
        with obs.tracing() as tracer:
            service.process([TuningRequest(dag=gemm(64, 64, 64), n_trials=8)])
        rounds = _spans(tracer, "service.round")
        assert rounds
        assert all(r["attrs"]["workload"].startswith("gemm") for r in rounds)
        assert all("trials" in r["attrs"] for r in rounds)
        (finish,) = _spans(tracer, "service.finish")
        assert finish["attrs"]["workload"].startswith("gemm")

    def test_registry_lookup_counters(self, cpu):
        registry = ScheduleRegistry()
        assert registry.lookup("no-such-fingerprint", cpu, k=0).entry is None
        assert _counter("registry.lookups") == 1
        assert _counter("registry.misses") == 1
        assert _counter("registry.hits") == 0


class TestRecordStoreInstrumentation:
    def test_flush_histogram_and_slow_flush_mirror(self, cpu, gemm_sketch, rng, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        store.slow_flush_threshold = 0.0  # every append counts as slow
        measurer = Measurer(cpu, seed=0, record_store=store)
        measurer.measure(sample_initial_schedules(gemm_sketch, 4, rng))
        store.close()

        appends = _counter("records.appends")
        assert appends == 4
        hist = obs.default_registry().get("records.flush_seconds")
        assert hist.count == appends
        # The per-instance counter (used by fault tests) and the global
        # mirror must agree.
        assert store.slow_flushes == appends
        assert _counter("records.slow_flushes") == store.slow_flushes
        assert _counter("records.flush_failures") == 0


class TestFaultInstrumentation:
    def test_fired_fault_counts_and_traces(self):
        plan = FaultPlan([FaultSpec("registry.append", "crash", at=0, times=1)])
        with obs.tracing() as tracer:
            assert plan.poll("registry.append") is not None
            assert plan.poll("registry.append") is None  # window exhausted
        assert _counter("faults.injected") == 1
        (event,) = [r for r in tracer.records if r["kind"] == "event"]
        assert event["name"] == "fault.injected"
        assert event["attrs"]["point"] == "registry.append"
        assert event["attrs"]["kind"] == "crash"


class TestGateReportDurations:
    def test_rows_and_report_carry_wall_clock(self):
        obligation = OBLIGATIONS[0]
        report = GateReport(seeds=[0, 1])
        report.outcomes = [
            ObligationOutcome(obligation, seed=0, passed=True, message="ok",
                              duration_s=0.5),
            ObligationOutcome(obligation, seed=1, passed=True, message="ok",
                              duration_s=0.25),
        ]
        payload = report.to_dict()
        (row,) = payload["obligations"]
        assert row["duration_s"] == pytest.approx(0.75)
        assert [run["duration_s"] for run in row["runs"]] == [0.5, 0.25]
        assert payload["duration_s"] == pytest.approx(0.75)
