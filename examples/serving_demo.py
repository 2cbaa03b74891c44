"""Serving demo: two clients hit the multi-tenant tuning service.

The script walks the three reuse mechanisms of the serving subsystem:

1. **Coalescing** — both clients submit the *same* GEMM (under different
   display names); the service runs exactly one tuning job and both handles
   receive its result.
2. **Registry hits** — a second batch re-requests the tuned workloads; every
   answer comes straight from the schedule registry with zero measurement
   trials.
3. **Transfer warm starts** — a *similar* (not identical) GEMM borrows the
   registered best schedule of its nearest structural relative as a
   measurement-seeded warm start.

Run it (optionally with a persistent registry directory):

    PYTHONPATH=src python examples/serving_demo.py
    PYTHONPATH=src python examples/serving_demo.py --registry /tmp/registry
"""

from __future__ import annotations

import argparse

from repro.core.config import HARLConfig
from repro.experiments.reporting import format_table
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.workloads import conv1d, gemm


def show(title, handles):
    rows = [
        [h.request.dag.name, h.request.tenant, h.source,
         h.result.best_latency * 1e6, h.result.trials_used]
        for h in handles
    ]
    print(format_table(
        ["workload", "tenant", "source", "best latency (us)", "trials"],
        rows, title=title,
    ))
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", default=None,
                        help="persistent registry directory (default: in-memory)")
    parser.add_argument("--trials", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    registry = ScheduleRegistry(args.registry)
    service = TuningService(
        registry=registry,
        config=HARLConfig.scaled(0.125),
        seed=args.seed,
    )

    # --- batch 1: duplicate + novel workloads from two tenants ----------- #
    batch1 = [
        TuningRequest(dag=gemm(128, 128, 128, name="alice_gemm"),
                      n_trials=args.trials, tenant="alice"),
        TuningRequest(dag=gemm(128, 128, 128, name="bob_gemm"),
                      n_trials=args.trials, tenant="bob"),    # coalesces
        TuningRequest(dag=conv1d(128, 32, 64, 3, 1, 1),
                      n_trials=args.trials, tenant="alice"),  # novel
    ]
    show("batch 1 — duplicates coalesce onto one job", service.process(batch1))
    print(f"jobs created: {service.jobs_created} "
          f"(coalesced requests: {service.coalesced_requests})\n")

    # --- batch 2: identical re-requests are O(1) registry hits ----------- #
    batch2 = [
        TuningRequest(dag=gemm(128, 128, 128, name="carol_gemm"),
                      n_trials=args.trials, tenant="carol"),
        TuningRequest(dag=conv1d(128, 32, 64, 3, 1, 1),
                      n_trials=args.trials, tenant="bob"),
    ]
    show("batch 2 — answered from the registry, zero trials", service.process(batch2))

    # --- batch 3: a similar workload transfers a warm start -------------- #
    relative = gemm(192, 128, 128, name="alice_gemm_big")
    neighbors = registry.lookup(relative, service.target, k=1).neighbors
    if neighbors:
        distance, entry = neighbors[0]
        print(f"nearest relative of {relative.name}: {entry.workload} "
              f"(embedding distance {distance:.2f}) — transferring its schedule\n")
    show("batch 3 — warm-started from the nearest relative",
         service.process([TuningRequest(dag=relative, n_trials=args.trials,
                                        tenant="alice")]))

    stats = registry.stats()
    print(f"registry: {stats['entries']} entries, "
          f"{stats['shard_files']} shard files, targets={stats['targets']}")
    registry.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
