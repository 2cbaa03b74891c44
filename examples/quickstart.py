#!/usr/bin/env python
"""Quickstart: tune a single GEMM operator with HARL.

Run with::

    python examples/quickstart.py [--trials 120]

The script builds a 512x512x512 matrix-multiplication compute DAG, tunes it
with the HARL auto-scheduler on the simulated 32-core CPU target, and prints
the best schedule it found together with the tuning progress.

``--records-out logs/quickstart.jsonl`` streams every measurement to an
append-only log that later runs can resume from.
"""

from __future__ import annotations

import argparse

from repro import HARLConfig, HARLScheduler, RecordStore, cpu_target, gemm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=120, help="measurement trial budget")
    parser.add_argument("--m", type=int, default=512)
    parser.add_argument("--k", type=int, default=512)
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--records-out", default=None,
                        help="append every measurement to this JSONL log")
    args = parser.parse_args()

    dag = gemm(args.m, args.k, args.n)
    target = cpu_target()
    # A quarter of the paper-scale episode width keeps the example snappy.
    config = HARLConfig.scaled(0.25)

    record_store = RecordStore(args.records_out) if args.records_out else None
    scheduler = HARLScheduler(
        target=target, config=config, seed=args.seed, record_store=record_store
    )

    print(f"Tuning {dag.name} ({dag.flops / 1e9:.2f} GFLOPs) on {target.name} "
          f"with {args.trials} measurement trials...")
    result = scheduler.tune(dag, n_trials=args.trials)

    print()
    print(f"Best latency     : {result.best_latency * 1e3:.3f} ms")
    print(f"Best throughput  : {result.best_throughput / 1e12:.2f} TFLOP/s")
    print(f"Trials used      : {result.trials_used}")
    print(f"Schedules visited: {result.search_steps}")
    print(f"Best schedule    : {result.best_schedule}")

    print()
    print("Tuning progress (trial -> best latency in ms):")
    checkpoints = {1, args.trials // 4, args.trials // 2, 3 * args.trials // 4, result.trials_used}
    for trial, latency in result.history:
        if trial in checkpoints:
            print(f"  trial {trial:5d}: {latency * 1e3:8.3f} ms")

    if record_store is not None:
        record_store.close()
        print(f"\nrecords written to {args.records_out} "
              f"({result.trials_used} measurements this run)")


if __name__ == "__main__":
    main()
