"""Tests for the asyncio network front end and its wire client.

Covers the acceptance-critical serving behaviours over a real TCP socket:

* wire requests for structurally identical workloads never duplicate tuning
  work (registry fast path or in-flight coalescing, one job total),
* admission control answers with explicit, machine-readable rejection codes
  (``rate_limited``, ``quota_exceeded``),
* a saturated server degrades instead of hanging: registry-only answers
  flagged ``degraded``, ``overloaded`` errors for registry misses,
* a wedged backend is answered with the explicit ``timeout`` code within the
  configured deadline, and the client's transport retry is bounded —
  both under seeded fault plans.
"""

import threading
import time
import typing

import pytest

from repro.faults.plan import FaultPlan, FaultSpec, inject
from repro.serving.loadgen import LoadGenConfig, percentile, run_load
from repro.serving.netclient import NetClientError, TuningClient
from repro.serving.registry import ScheduleRegistry
from repro.serving.server import ServerConfig, ServingServer
from repro.serving.service import TuningService


def _service(tiny_config, seed=0):
    return TuningService(registry=ScheduleRegistry(), config=tiny_config, seed=seed)


@pytest.fixture
def server(tiny_config):
    with ServingServer(_service(tiny_config)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with TuningClient(server.host, server.port, timeout=30.0) as cli:
        yield cli


class TestWireBasics:
    def test_ping(self, client):
        assert client.ping() is True

    def test_cold_tune_then_fast_hit(self, server, client):
        cold = client.tune("GEMM-S", trials=4)
        assert cold.ok and not cold.degraded
        assert cold.source == "scheduled"
        assert cold.trials_used >= 4

        hit = client.tune("GEMM-S", trials=4)
        assert hit.ok and hit.source == "registry-hit"
        assert hit.trials_used == 0
        assert hit.latency == cold.latency
        assert server.fast_hits == 1

    def test_query_miss_then_hit(self, client):
        assert client.query("GEMM-S")["found"] is False
        client.tune("GEMM-S", trials=4)
        found = client.query("GEMM-S")
        assert found["found"] is True
        assert found["latency"] > 0

    def test_stats_reports_counters(self, client):
        client.tune("GEMM-S", trials=4)
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["accepted"] == 1
        assert stats["service"]["jobs_created"] == 1
        assert stats["service"]["registry_entries"] == 1

    def test_unknown_method_is_bad_request(self, client):
        response = client.call("frobnicate")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_unknown_operator_is_bad_request(self, client):
        reply = client.tune("NOT-AN-OP", trials=4)
        assert not reply.ok
        assert reply.error_code == "bad_request"

    def test_malformed_params_are_bad_request(self, client):
        response = client.call("tune", {"op": "GEMM-S", "batch": {"nope": 1}})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_unparseable_line_is_answered_not_dropped(self, server):
        import json
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            raw = sock.makefile("rb").readline()
        response = json.loads(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestWireCoalescing:
    def test_concurrent_identical_requests_tune_once(self, tiny_config):
        """N concurrent wire clients asking for one workload → one tuning job."""
        service = _service(tiny_config)
        config = ServerConfig(workers=4, max_inflight=4)
        n = 4
        replies = [None] * n
        with ServingServer(service, config) as server:
            barrier = threading.Barrier(n)

            def hammer(i):
                with TuningClient(server.host, server.port, timeout=30.0) as cli:
                    barrier.wait()
                    replies[i] = cli.tune("GEMM-M", trials=8, tenant=f"t{i}")

            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert all(r is not None and r.ok for r in replies)
        # However the race lands (coalesced onto the in-flight job or a
        # registry fast hit after it finished), exactly one job tuned.
        assert service.jobs_created == 1
        assert sum(r.source == "scheduled" for r in replies) == 1
        dedup = service.coalesced_requests + service.registry_hits + \
            sum(r.source == "registry-hit" for r in replies)
        assert dedup == n - 1
        latencies = {r.latency for r in replies}
        assert len(latencies) == 1  # everyone got the same best


class TestAdmissionControl:
    def test_rate_limit_answers_explicit_code(self, tiny_config):
        config = ServerConfig(rate=0.001, burst=2)
        with ServingServer(_service(tiny_config), config) as server:
            with TuningClient(server.host, server.port, timeout=30.0) as cli:
                cli.tune("GEMM-S", trials=4)  # burst token 1 (cold tune)
                ok = cli.tune("GEMM-S", trials=4)  # burst token 2 (fast hit)
                assert ok.ok
                limited = cli.tune("GEMM-S", trials=4)
                assert not limited.ok
                assert limited.error_code == "rate_limited"
                # Another tenant has its own bucket.
                other = cli.tune("GEMM-S", trials=4, tenant="other")
                assert other.ok
            assert server.rate_limited == 1

    def test_quota_answers_explicit_code_and_settles_hits(self, tiny_config):
        config = ServerConfig(quota=10)
        with ServingServer(_service(tiny_config), config) as server:
            with TuningClient(server.host, server.port, timeout=30.0) as cli:
                first = cli.tune("GEMM-S", trials=8)
                assert first.ok and first.trials_used == 8
                over = cli.tune("GEMM-M", trials=8)
                assert not over.ok
                assert over.error_code == "quota_exceeded"
                # Registry hits settle their reservation back: they must not
                # burn quota even when the remaining budget is tiny.
                hit = cli.tune("GEMM-S", trials=2)
                assert hit.ok and hit.source == "registry-hit"
                again = cli.tune("GEMM-S", trials=2)
                assert again.ok
                # A fresh tenant is unaffected.
                other = cli.tune("GEMM-M", trials=8, tenant="other")
                assert other.ok
            assert server.quota_rejected == 1

    def test_trials_below_one_are_bad_requests_before_the_quota(self, tiny_config):
        # A negative reservation is never settled, so it used to hand the
        # tenant extra quota.
        with ServingServer(_service(tiny_config), ServerConfig(quota=20)) as server:
            with TuningClient(server.host, server.port, timeout=30.0) as cli:
                for trials in (-1000, 0):
                    reply = cli.tune("GEMM-S", trials=trials)
                    assert not reply.ok and reply.error_code == "bad_request"
                assert cli.tune("GEMM-S", trials=16).ok
                over = cli.tune("GEMM-M", trials=16)
                assert not over.ok and over.error_code == "quota_exceeded"


class TestDegradedMode:
    def test_saturated_server_answers_registry_only(self, tiny_config):
        """Wedge the single slot; known workloads degrade, misses overload."""
        config = ServerConfig(workers=1, max_inflight=1, request_timeout=30.0)
        with ServingServer(_service(tiny_config), config) as server:
            with TuningClient(server.host, server.port, timeout=30.0) as cli:
                primed = cli.tune("GEMM-S", trials=4)
                assert primed.ok

            plan = FaultPlan(
                [FaultSpec("server.accept", "slow_disk",
                           match="blocker:", delay=1.0)],
                seed=0,
            )
            with inject(plan):
                def block():
                    with TuningClient(server.host, server.port,
                                      timeout=30.0, max_retries=0) as blocker:
                        blocker.tune("C1D", trials=4, tenant="blocker")

                thread = threading.Thread(target=block, daemon=True)
                thread.start()
                deadline = time.monotonic() + 5.0
                while server.accepted < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert server.accepted == 2

                with TuningClient(server.host, server.port, timeout=30.0) as cli:
                    # force_tune wants fresh trials; the saturated server
                    # answers from the registry and says so.
                    shed = cli.tune("GEMM-S", trials=4, force_tune=True)
                    assert shed.ok and shed.degraded
                    assert shed.trials_used == 0
                    assert shed.source == "registry-hit"
                    assert shed.latency == primed.latency

                    miss = cli.tune("GEMM-M", trials=4)
                    assert not miss.ok
                    assert miss.error_code == "overloaded"
                    assert miss.degraded
                assert server.shed == 2
                thread.join(timeout=10.0)
                assert not thread.is_alive()

            # The wedged request's completion gave its slot back: the next
            # miss is admitted and tuned, not shed.
            with TuningClient(server.host, server.port, timeout=30.0) as cli:
                fresh = cli.tune("GEMM-M", trials=4)
                assert fresh.ok and not fresh.degraded
                assert fresh.source == "scheduled"
            assert server.shed == 2
            assert server.stats()["inflight"] == 0


class TestFaultedBackend:
    def test_timeout_is_enforced_and_explicit(self, tiny_config):
        config = ServerConfig(workers=1, request_timeout=0.2)
        plan = FaultPlan.single("server.accept", "slow_disk", delay=1.0, seed=0)
        with ServingServer(_service(tiny_config), config) as server:
            with inject(plan):
                with TuningClient(server.host, server.port, timeout=10.0,
                                  max_retries=0) as cli:
                    began = time.perf_counter()
                    reply = cli.tune("GEMM-S", trials=4)
                    elapsed = time.perf_counter() - began
                    assert not reply.ok
                    assert reply.error_code == "timeout"
                    assert elapsed < 0.9  # answered before the stall cleared
                    assert cli.ping()  # server still responsive
            assert server.timeouts == 1

    def test_retry_is_bounded_on_a_dead_backend(self, tiny_config):
        plan = FaultPlan.single("server.accept", "crash", times=50, seed=0)
        with ServingServer(_service(tiny_config), ServerConfig()) as server:
            with inject(plan):
                with TuningClient(server.host, server.port, timeout=10.0,
                                  max_retries=2, backoff=0.01) as cli:
                    with pytest.raises(NetClientError) as excinfo:
                        cli.tune("GEMM-S", trials=4)
                    assert excinfo.value.attempts == 3
            assert len(plan.fired) == 3
            assert server.dropped == 3

    def test_retry_rides_out_a_recovering_backend(self, tiny_config):
        plan = FaultPlan.single("server.accept", "crash", times=2, seed=0)
        with ServingServer(_service(tiny_config), ServerConfig()) as server:
            with inject(plan):
                with TuningClient(server.host, server.port, timeout=30.0,
                                  max_retries=3, backoff=0.01) as cli:
                    reply = cli.tune("GEMM-S", trials=4)
                    assert reply.ok
                    assert reply.attempts == 3
            assert len(plan.fired) == 2
            assert server.dropped == 2


class TestLoadGenerator:
    def test_small_closed_loop_run_reports_invariants(self, tiny_config):
        config = LoadGenConfig(clients=2, requests_per_client=6, trials=4,
                               burst=3, pause=0.0, seed=0)
        with ServingServer(_service(tiny_config), ServerConfig()) as server:
            report = run_load(server.host, server.port, config)
        assert report["schema"] == "repro-loadgen/1"
        assert report["requests"] == 12
        assert report["answered"] == 12
        assert report["unanswered"] == 0
        assert report["degraded_with_trials"] == 0
        p = report["latency_ms"]
        assert 0 <= p["p50"] <= p["p95"] <= p["p99"] <= p["max"]
        assert report["server"]["requests"] >= 12

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([], 50) == 0.0

    def test_run_load_annotations_resolve(self):
        hints = typing.get_type_hints(run_load)
        assert hints["config"] == typing.Optional[LoadGenConfig]
