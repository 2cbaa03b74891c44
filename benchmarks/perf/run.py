#!/usr/bin/env python
"""Hot-path micro-benchmark harness (``make perf``).

Times the stages of the tuning inner loop — feature extraction, batched
cost-model prediction, sampler throughput, the vectorised simulator, the PPO
learner's update, a full ``NetworkTuner`` round and a registry warm-start
lookup — and emits a
schema-versioned ``BENCH_perf.json`` with median / p95 wall-clock and
throughput per stage.

The three vectorised array stages (feature extraction, batched prediction,
the simulator) are also timed against a harness-local scalar loop: stacked
:func:`~repro.tensor.features.schedule_features`, one ``predict`` call per
row, and :meth:`~repro.hardware.simulator.LatencySimulator.reference_breakdown`.
That timing is reported as ``reference_median_s`` and the ratio as
``speedup``, which is machine-independent because both sides run in the same
process on the same data; the harness also verifies that both sides produce
equal results.  CI compares the emitted throughputs against
``benchmarks/perf/baseline.json`` via ``compare.py`` and fails on
regressions.

Usage::

    python benchmarks/perf/run.py --output BENCH_perf.json
    python benchmarks/perf/run.py --check     # also enforce the speedup floor

The process pins OpenBLAS/OpenMP/MKL to one thread before NumPy loads, as
``benchmarks/e2e/bench.py`` does: an unpinned OpenBLAS spins a second thread
through the learner's small products, which doubles process CPU time and
inflates the CPU-time baseline of ``obs_overhead``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before anything imports NumPy

import numpy as np

from repro import obs
from repro.caching import cache_stats, clear_caches, reset_cache_stats
from repro.core.actor_critic import PPOAgent
from repro.core.config import HARLConfig
from repro.costmodel.model import ScheduleCostModel
from repro.experiments.network_runner import NetworkTuner
from repro.hardware.simulator import LatencySimulator
from repro.hardware.target import cpu_target
from repro.networks.graph import NetworkGraph, Subgraph
from repro.records import schedule_to_dict
from repro.serving.fingerprint import structural_fingerprint, workload_embedding
from repro.serving.registry import RegistryEntry, ScheduleRegistry
from repro.serving.service import TuningService
from repro.tensor.features import FEATURE_SIZE, batch_features, schedule_features
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv1d, gemm

SCHEMA_VERSION = 1

#: Speedup floors over the scalar reference loop (enforced by ``--check``).
SPEEDUP_FLOORS = {"feature_extraction": 3.0}


# --------------------------------------------------------------------- #
# timing helpers
# --------------------------------------------------------------------- #
def _time(fn: Callable[[], object], repeats: int, warmup: int = 1) -> List[float]:
    """Wall-clock samples of ``fn`` (seconds), after ``warmup`` unmeasured runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _stage(
    name: str,
    samples: List[float],
    items: int,
    unit: str,
    reference_samples: Optional[List[float]] = None,
) -> Dict[str, object]:
    median = statistics.median(samples)
    entry: Dict[str, object] = {
        "median_s": median,
        "p95_s": _percentile(samples, 95.0),
        "items": items,
        "throughput": items / median if median > 0 else float("inf"),
        "unit": unit,
    }
    if reference_samples is not None:
        reference_median = statistics.median(reference_samples)
        entry["reference_median_s"] = reference_median
        entry["speedup"] = reference_median / median if median > 0 else float("inf")
    else:
        entry["reference_median_s"] = None
        entry["speedup"] = None
    print(
        f"  {name:<22} median {median * 1e3:9.3f} ms   "
        f"{entry['throughput']:12.1f} {unit}"
        + (
            f"   speedup {entry['speedup']:.2f}x"
            if entry["speedup"] is not None
            else ""
        )
    )
    return entry


# --------------------------------------------------------------------- #
# workload fixtures
# --------------------------------------------------------------------- #
def _schedule_batch(batch: int) -> list:
    """A mixed batch of schedules over every sketch of a mid-size GEMM."""
    target = cpu_target()
    dag = gemm(512, 512, 512)
    rng = np.random.default_rng(0)
    sketches = generate_sketches(
        dag, target.sketch_spatial_levels, target.sketch_reduction_levels
    )
    per_sketch = max(1, batch // len(sketches))
    schedules = []
    for sketch in sketches:
        schedules.extend(
            sample_initial_schedules(sketch, per_sketch, rng, target.unroll_depths)
        )
    return schedules


def _toy_network(name: str = "perf_net") -> NetworkGraph:
    return NetworkGraph(
        name=name,
        subgraphs=[
            Subgraph(
                "mm",
                gemm(128, 128, 128, name=f"{name}_mm"),
                weight=4,
                similarity_group="gemm",
            ),
            Subgraph(
                "c1d",
                conv1d(64, 16, 32, 3, 1, 1, name=f"{name}_c1d"),
                weight=2,
                similarity_group="conv1d",
            ),
        ],
    )


# --------------------------------------------------------------------- #
# stages
# --------------------------------------------------------------------- #
def bench_feature_extraction(repeats: int, batch: int) -> Dict[str, object]:
    schedules = _schedule_batch(batch)

    def stacked():
        return np.stack([schedule_features(schedule) for schedule in schedules])

    fast = _time(lambda: batch_features(schedules), repeats)
    reference = _time(stacked, repeats)
    if not np.array_equal(batch_features(schedules), stacked()):
        raise AssertionError("vectorised features differ from the serial reference")
    return _stage(
        "feature_extraction", fast, len(schedules), "schedules/s", reference
    )


def bench_batched_prediction(repeats: int, batch: int) -> Dict[str, object]:
    schedules = _schedule_batch(batch)
    target = cpu_target()
    simulator = LatencySimulator(target)
    model = ScheduleCostModel(seed=0)
    train = schedules[:64]
    latencies = simulator.batch_latency(train)
    model.update(train, [s.dag.flops / lat for s, lat in zip(train, latencies)])

    def per_row():
        return np.concatenate([model.predict([schedule]) for schedule in schedules])

    fast = _time(lambda: model.predict(schedules), repeats)
    reference = _time(per_row, repeats)
    if not np.array_equal(model.predict(schedules), per_row()):
        raise AssertionError("batched predictions differ from the per-row reference")
    return _stage("batched_prediction", fast, len(schedules), "schedules/s", reference)


def bench_sampler(repeats: int, batch: int) -> Dict[str, object]:
    target = cpu_target()
    dag = gemm(512, 512, 512)
    sketch = generate_sketches(
        dag, target.sketch_spatial_levels, target.sketch_reduction_levels
    )[0]

    def run():
        rng = np.random.default_rng(7)
        return sample_initial_schedules(sketch, batch, rng, target.unroll_depths)

    samples = _time(run, repeats)
    return _stage("sampler", samples, batch, "schedules/s")


def bench_simulator(repeats: int, batch: int) -> Dict[str, object]:
    schedules = _schedule_batch(batch)
    simulator = LatencySimulator(cpu_target())

    def scalar():
        return np.array([simulator.reference_breakdown(s).latency for s in schedules])

    fast = _time(lambda: simulator.batch_latency(schedules), repeats)
    reference = _time(scalar, repeats)
    # The documented contract is agreement to floating-point rounding
    # (tests pin rtol=1e-9); on this repo's reference platform the paths are
    # bit-identical, but a NumPy build with SIMD transcendental dispatch may
    # legitimately differ in the last ulp.
    if not np.allclose(simulator.batch_latency(schedules), scalar(), rtol=1e-9, atol=0.0):
        raise AssertionError("vectorised simulator differs from the serial reference")
    return _stage("simulator_batch", fast, len(schedules), "schedules/s", reference)


def bench_ppo_update(repeats: int, updates: int) -> Dict[str, object]:
    """``PPOAgent.update()`` throughput on a MobileNet-sized action space.

    ``HARLConfig.scaled()`` agent with ``FEATURE_SIZE`` inputs and the
    485-wide tiling head of a 22-slot sketch, the shape of nearly every agent
    in a MobileNet-V2 tune, over a replay buffer of 256 random transitions.
    """
    head_sizes = (485, 3, 3, 3)
    agent = PPOAgent(FEATURE_SIZE, head_sizes, config=HARLConfig.scaled(), seed=0)
    rng = np.random.default_rng(0)
    states = rng.normal(size=(256, FEATURE_SIZE))
    batch = agent.act(states)
    rewards = rng.normal(size=len(states))
    td_targets, advantages = agent.compute_advantage(
        rewards, batch.values, agent.value(rng.normal(size=states.shape))
    )
    agent.store(states, batch.actions, batch.log_probs, rewards, td_targets, advantages)

    def run():
        for _ in range(updates):
            agent.update()

    return _stage("ppo_update", _time(run, repeats), updates, "updates/s")


def _run_network_tuning(n_trials: int) -> float:
    """One full NetworkTuner run on a fresh service; returns f(S)."""
    service = TuningService(
        registry=ScheduleRegistry(),
        config=HARLConfig.scaled(),
        seed=0,
    )
    report = NetworkTuner(_toy_network(), service).tune(n_trials=n_trials)
    return report.final_latency


def bench_tuning_round(repeats: int, n_trials: int) -> Dict[str, object]:
    samples = _time(lambda: _run_network_tuning(n_trials), repeats, warmup=1)
    return _stage("tuning_round", samples, n_trials, "trials/s")


def bench_obs_overhead(pairs: int, n_trials: int) -> Dict[str, object]:
    """Instrumentation overhead on the harness's tuning stage.

    Times the full ``NetworkTuner`` run (the harness stage that crosses every
    instrumented layer: service rounds, measurement batches, registry appends,
    cache lookups) with tracing unarmed and armed, in ``pairs`` back-to-back
    pairs whose order flips every pair, so drifting host load hits both sides
    alike.  Each run is timed in process CPU time (the stage is
    single-threaded), and ``overhead_frac`` is the median per-pair
    traced/untraced ratio minus one.  ``compare.py --max-obs-overhead`` gates
    it at 2%.
    """

    def untraced():
        return _run_network_tuning(n_trials)

    def traced():
        with obs.tracing():
            return _run_network_tuning(n_trials)

    untraced()
    traced()
    baseline, armed, ratios = [], [], []
    for pair in range(pairs):
        seconds = {}
        for run in (untraced, traced) if pair % 2 == 0 else (traced, untraced):
            start = time.process_time()
            run()
            seconds[run] = time.process_time() - start
        baseline.append(seconds[untraced])
        armed.append(seconds[traced])
        ratios.append(seconds[traced] / seconds[untraced])
    overhead = statistics.median(ratios) - 1.0
    baseline_median = statistics.median(baseline)
    traced_median = statistics.median(armed)
    print(
        f"  {'obs_overhead':<22} baseline {baseline_median * 1e3:9.3f} ms   "
        f"traced {traced_median * 1e3:9.3f} ms   overhead {overhead * 100:+.2f}% "
        f"(median of {pairs} interleaved CPU-time pairs)"
    )
    return {
        "baseline_median_s": baseline_median,
        "traced_median_s": traced_median,
        "pairs": pairs,
        "overhead_frac": overhead,
    }


def _seed_registry(registry: ScheduleRegistry) -> None:
    """Register donor schedules for a family of GEMM shapes."""
    target = cpu_target()
    rng = np.random.default_rng(3)
    for size in (96, 128, 160, 192, 224, 256, 320, 384):
        dag = gemm(size, size, size)
        sketch = generate_sketches(
            dag, target.sketch_spatial_levels, target.sketch_reduction_levels
        )[0]
        schedule = sample_initial_schedules(sketch, 1, rng, target.unroll_depths)[0]
        registry.record(
            RegistryEntry(
                fingerprint=structural_fingerprint(dag),
                target=target.name,
                workload=dag.name,
                latency=1e-3,
                throughput=dag.flops / 1e-3,
                trials=16,
                scheduler="harl",
                schedule=schedule_to_dict(schedule),
                embedding=tuple(workload_embedding(dag).tolist()),
                source="perf-harness",
            )
        )


def bench_registry_warm_start(repeats: int, lookups: int) -> Dict[str, object]:
    target = cpu_target()
    registry = ScheduleRegistry()
    _seed_registry(registry)
    queries = [gemm(112 + 16 * i, 112 + 16 * i, 112 + 16 * i) for i in range(4)]

    def run():
        out = 0
        for _ in range(lookups // len(queries)):
            for dag in queries:
                out += len(
                    registry.warm_start_transfers(dag, target, max_candidates=4)
                )
        return out

    return _stage("registry_warm_start", _time(run, repeats, warmup=2), lookups, "lookups/s")


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def run_harness(repeats: int, batch: int, n_trials: int) -> Dict[str, object]:
    clear_caches()
    reset_cache_stats()
    print(f"hot-path micro-benchmarks (repeats={repeats}, batch={batch})")
    stages = {
        "feature_extraction": bench_feature_extraction(repeats, batch),
        "batched_prediction": bench_batched_prediction(repeats, batch),
        "sampler": bench_sampler(repeats, batch),
        "simulator_batch": bench_simulator(repeats, batch),
        "ppo_update": bench_ppo_update(repeats, 20),
        "tuning_round": bench_tuning_round(max(2, repeats // 2), n_trials),
        "registry_warm_start": bench_registry_warm_start(repeats, 128),
    }
    # Outside "stages": the stage loop in compare.py (and old baselines)
    # only knows throughput entries; the overhead check reads this key.
    obs_overhead = bench_obs_overhead(max(5, repeats), n_trials)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "hot-path-microbench",
        "stages": stages,
        "obs_overhead": obs_overhead,
        "obs": obs.snapshot(),
        "cache_stats": cache_stats(),
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "repeats": repeats,
            "batch": batch,
            "tuning_trials": n_trials,
            "env": {key: os.environ.get(key, "") for key in BLAS_ENV},
        },
    }


def check_speedups(payload: Dict[str, object]) -> List[str]:
    """Violations of the speedup floors (empty list when green)."""
    failures = []
    for stage, floor in SPEEDUP_FLOORS.items():
        speedup = payload["stages"][stage]["speedup"]
        if speedup is None or speedup < floor:
            got = "missing" if speedup is None else f"{speedup:.2f}x"
            failures.append(f"{stage}: speedup {got} below required {floor:.1f}x")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="where to write the benchmark JSON (default: repo-root BENCH_perf.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repetitions per stage"
    )
    parser.add_argument(
        "--batch", type=int, default=384, help="schedule batch size for array stages"
    )
    parser.add_argument(
        "--trials", type=int, default=32, help="measurement trials per tuning run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the speedup floor holds "
        "(feature extraction >= 3x over stacked schedule_features)",
    )
    parser.add_argument(
        "--metrics-output",
        default=str(REPO_ROOT / "BENCH_metrics.json"),
        help="where to write the repro.obs metrics snapshot "
        "(default: repo-root BENCH_metrics.json)",
    )
    args = parser.parse_args(argv)

    payload = run_harness(args.repeats, args.batch, args.trials)
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    metrics_out = obs.write_snapshot(args.metrics_output)
    print(f"wrote {metrics_out}")

    if args.check:
        failures = check_speedups(payload)
        if failures:
            for failure in failures:
                print(f"SPEEDUP FLOOR VIOLATED: {failure}", file=sys.stderr)
            return 1
        print("speedup floors hold: " + ", ".join(
            f"{stage} >= {floor:.1f}x" for stage, floor in SPEEDUP_FLOORS.items()
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
