"""Closed-loop load generator for the network tuning front end.

:func:`run_load` replays multi-tenant traffic against a running
:class:`~repro.serving.server.ServingServer`: ``clients`` threads each issue
``requests_per_client`` tune calls in closed loop (next request only after
the previous response), drawing workloads from a **Zipf-distributed
popularity** ranking over the operator-class × batch universe — a few
workloads dominate, a long tail stays rare, which is exactly the traffic
shape that makes the registry + coalescing architecture pay off — and
arriving in **bursts** (``burst`` back-to-back requests, then a
``pause``-second gap) to stress admission rather than trickling.

The report (``repro-loadgen/1``) carries client-observed p50/p95/p99/max
response latency, the outcome census (ok / degraded / rate_limited /
timeout / ...), the registry **hit rate** over answered requests, the
**shed rate**, and the server's own counters.  ``make serve-load`` runs it
against an embedded server.  Invariants the benchmark gate checks (see
``benchmarks/perf/loadgen.py --check``): every request is answered —
transport failures after bounded retry are counted, never ignored — and
every shed answer is degraded with zero fresh trials.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.serving.netclient import NetClientError, TuningClient

__all__ = [
    "HIT_RATE_FLOOR",
    "LoadGenConfig",
    "check_report",
    "percentile",
    "run_load",
]

#: Conservative floor for the registry hit rate under the default Zipf
#: workload (skew 1.1 over 8 workloads, >= 40 requests): once the head
#: workloads are tuned, the bulk of the remaining traffic hits the registry.
HIT_RATE_FLOOR = 0.3

#: Default workload universe: (operator class, batch), most popular first
#: once Zipf weights are applied to the ranking.
DEFAULT_UNIVERSE: Tuple[Tuple[str, int], ...] = (
    ("GEMM-S", 1),
    ("GEMM-S", 2),
    ("C1D", 1),
    ("GEMM-M", 1),
    ("GEMM-S", 4),
    ("C1D", 2),
    ("GEMM-M", 2),
    ("T2D", 1),
)


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of the replayed traffic (see the module docstring)."""

    clients: int = 4
    requests_per_client: int = 25
    trials: int = 4
    zipf_s: float = 1.1      # popularity skew; larger = more head-heavy
    burst: int = 4           # back-to-back requests per burst
    pause: float = 0.02      # gap between bursts, seconds
    seed: int = 0
    timeout: float = 60.0
    max_retries: int = 2
    universe: Tuple[Tuple[str, int], ...] = DEFAULT_UNIVERSE


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(math.ceil(q * len(sorted_values) / 100.0), 1)
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


@dataclass
class _ClientTally:
    latencies: List[float] = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    hits: int = 0
    degraded_with_trials: int = 0
    unanswered: int = 0

    def count(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1


def _client_loop(host: str, port: int, cfg: LoadGenConfig, index: int,
                 tally: _ClientTally) -> None:
    rng = random.Random(cfg.seed * 7919 + index)
    weights = _zipf_weights(len(cfg.universe), cfg.zipf_s)
    tenant = f"tenant-{index % max(cfg.clients // 2, 1)}"
    with TuningClient(host, port, timeout=cfg.timeout,
                      max_retries=cfg.max_retries) as client:
        for issued in range(cfg.requests_per_client):
            if cfg.burst > 0 and issued and issued % cfg.burst == 0:
                time.sleep(cfg.pause)
            op, batch = rng.choices(cfg.universe, weights=weights, k=1)[0]
            began = time.perf_counter()
            try:
                reply = client.tune(op, batch=batch, trials=cfg.trials,
                                    tenant=tenant)
            except NetClientError:
                # Bounded retry exhausted: counted, never silently ignored.
                tally.unanswered += 1
                tally.count("transport_failed")
                continue
            tally.latencies.append(time.perf_counter() - began)
            if reply.ok:
                tally.count("degraded" if reply.degraded else "ok")
                if reply.source == "registry-hit":
                    tally.hits += 1
                if reply.degraded and reply.trials_used > 0:
                    tally.degraded_with_trials += 1
            else:
                tally.count(reply.error_code or "error")


def check_report(report: dict, hit_rate_floor: float = HIT_RATE_FLOOR) -> List[str]:
    """Machine-independent serving-invariant failures (empty = pass).

    Checked by ``benchmarks/perf/loadgen.py --check`` (``make serve-load``);
    deliberately latency-free so it cannot flake across runners:

    * every request is answered — no silent drops, no unbounded hangs,
    * every degraded (shed) answer consumed zero fresh trials,
    * the Zipf head makes the registry pay off (hit rate over a floor),
    * the percentile fields dashboards consume are present and ordered.
    """
    failures: List[str] = []
    if report["unanswered"] != 0:
        failures.append(
            f"{report['unanswered']} request(s) were never answered "
            "(transport retries exhausted) — the server dropped load silently"
        )
    if report["answered"] != report["requests"]:
        failures.append(
            f"answered {report['answered']} != issued {report['requests']}"
        )
    if report["degraded_with_trials"] != 0:
        failures.append(
            f"{report['degraded_with_trials']} degraded answer(s) consumed "
            "fresh trials — shed responses must be registry-only"
        )
    if report["hit_rate"] < hit_rate_floor:
        failures.append(
            f"registry hit rate {report['hit_rate']:.2f} below the "
            f"{hit_rate_floor} floor — the Zipf head is not being reused"
        )
    p = report["latency_ms"]
    if not (0 <= p["p50"] <= p["p95"] <= p["p99"]):
        failures.append(f"percentiles out of order: {p}")
    return failures


def run_load(host: str, port: int, config: Optional[LoadGenConfig] = None) -> dict:
    """Replay the configured traffic; returns the ``repro-loadgen/1`` report."""
    config = config if config is not None else LoadGenConfig()
    tallies = [_ClientTally() for _ in range(config.clients)]
    began = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop, args=(host, port, config, index, tallies[index]),
            name=f"loadgen-{index}", daemon=True,
        )
        for index in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began

    latencies = sorted(lat for tally in tallies for lat in tally.latencies)
    outcomes: dict = {}
    for tally in tallies:
        for outcome, count in tally.outcomes.items():
            outcomes[outcome] = outcomes.get(outcome, 0) + count
    requests = config.clients * config.requests_per_client
    answered = len(latencies)
    hits = sum(tally.hits for tally in tallies)
    shed = outcomes.get("degraded", 0) + outcomes.get("overloaded", 0)

    stats: dict = {}
    try:
        with TuningClient(host, port, timeout=config.timeout) as client:
            stats = client.stats()
    except (NetClientError, OSError):
        pass  # a report without server counters is still a report

    return {
        "schema": "repro-loadgen/1",
        "config": {
            "clients": config.clients,
            "requests_per_client": config.requests_per_client,
            "trials": config.trials,
            "zipf_s": config.zipf_s,
            "burst": config.burst,
            "pause": config.pause,
            "seed": config.seed,
            "universe": [list(item) for item in config.universe],
        },
        "requests": requests,
        "answered": answered,
        "unanswered": sum(tally.unanswered for tally in tallies),
        "wall_seconds": wall,
        "throughput_rps": answered / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": percentile(latencies, 50) * 1e3,
            "p95": percentile(latencies, 95) * 1e3,
            "p99": percentile(latencies, 99) * 1e3,
            "mean": (sum(latencies) / answered * 1e3) if answered else 0.0,
            "max": (latencies[-1] * 1e3) if latencies else 0.0,
        },
        "outcomes": outcomes,
        "hit_rate": hits / answered if answered else 0.0,
        "shed_rate": shed / requests if requests else 0.0,
        "degraded_with_trials": sum(t.degraded_with_trials for t in tallies),
        "server": stats,
    }
