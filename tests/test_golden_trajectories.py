"""Golden search trajectories: pinned-seed f(S)-vs-trials histories.

A search trajectory is sensitive to the numbers it consumes: a one-ulp
change in a measured latency or a cost-model prediction can reorder the
candidates the scheduler measures, and the divergence compounds from
there.  Performance work on the hot path (cost model, simulator, features,
PPO) and refactors of the scheduler plumbing are meant to change *nothing*,
so the histories of a few pinned-seed runs (seed 7) are committed in
``tests/data/golden_trajectories.json`` and compared exactly here:

* ``HARLScheduler(config=HARLConfig.scaled()).tune(...)`` histories for one
  GEMM and one conv2d operator (64 trials each, enough for several
  gradient-boosted cost-model refits),
* a ``FlextensorScheduler`` GEMM history: its ``FixedLengthStopper`` never
  eliminates a track, so every step of every episode walks all tracks,
* an ``AnsorScheduler`` GEMM history (evolutionary search) and a
  ``SimulatedAnnealingScheduler`` one (16 measures per round, so four
  rounds exercise the cooling schedule),
* the ``latency_history`` of ``tune_network`` on a small two-subgraph
  network for HARL's subgraph bandit, HARL's greedy ablation and Ansor
  (96 trials each),
* resumed runs of all four schedulers: 32 trials into an in-memory
  ``RecordStore``, then a fresh scheduler ``resume_from`` that store tunes
  32 more (HARL and Ansor also get a warm-start provider returning the
  first run's best schedule), and
* the ``f(S)`` trajectory of the same network through ``NetworkTuner``.

``--write`` records only the cases missing from the file and leaves every
existing entry byte-identical, so adding a case cannot silently re-record
one that has drifted.  If a change is *meant* to alter the search
numerically, delete the affected entries from the JSON file first, then
regenerate them and say so (with the ``make bench`` rerun) in the change
description::

    PYTHONPATH=src python tests/test_golden_trajectories.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro import HARLConfig, HARLScheduler, RecordStore, ScheduleRegistry, TuningService
from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.experiments.network_runner import NetworkTuner
from repro.experiments.operator_suite import representative_dag
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import conv1d, gemm

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_trajectories.json"

SEED = 7
OPERATOR_TRIALS = 64
NETWORK_TRIALS = 96
RESUME_TRIALS = 32


def _harl(**kwargs):
    return HARLScheduler(config=HARLConfig.scaled(), **kwargs)


def _ansor(**kwargs):
    return AnsorScheduler(config=AnsorConfig.from_harl(HARLConfig.scaled()), **kwargs)


def _flextensor(**kwargs):
    return FlextensorScheduler(config=HARLConfig.scaled(), **kwargs)


def _sa(**kwargs):
    return SimulatedAnnealingScheduler(measures_per_round=16, **kwargs)


def _operator_history(make, op_class: str = "GEMM-M"):
    return make(seed=SEED).tune(representative_dag(op_class), OPERATOR_TRIALS).history


def _golden_network():
    return NetworkGraph(
        name="golden",
        subgraphs=[
            Subgraph("mm", gemm(64, 64, 64, name="golden_mm"), weight=4, similarity_group="gemm"),
            Subgraph("c1d", conv1d(64, 16, 32, 3, 1, 1, name="golden_c1d"), weight=2,
                     similarity_group="conv1d"),
        ],
    )


def _network_history(make, **kwargs):
    scheduler = make(seed=SEED, **kwargs)
    return scheduler.tune_network(_golden_network(), NETWORK_TRIALS).latency_history


def _resumed_history(make, warm_start: bool):
    """Tune into an in-memory store, then resume a fresh scheduler from it."""
    dag = representative_dag("GEMM-M")
    store = RecordStore()
    first = make(seed=SEED, record_store=store).tune(dag, RESUME_TRIALS)
    kwargs = {}
    if warm_start:
        kwargs["warm_start_provider"] = lambda _dag: [first.best_schedule]
    resumed = make(seed=SEED + 1, **kwargs).resume_from(store)
    return resumed.tune(dag, RESUME_TRIALS).history


def _network_trajectory():
    service = TuningService(ScheduleRegistry(), config=HARLConfig.scaled(), seed=SEED)
    return NetworkTuner(_golden_network(), service).tune(NETWORK_TRIALS).trajectory


CASES = {
    "harl-GEMM-M": lambda: _operator_history(_harl),
    "harl-C2D": lambda: _operator_history(_harl, "C2D"),
    "flextensor-GEMM-M": lambda: _operator_history(_flextensor),
    "ansor-GEMM-M": lambda: _operator_history(_ansor),
    "sa-GEMM-M": lambda: _operator_history(_sa),
    "harl-network-bandit": lambda: _network_history(_harl),
    "harl-network-greedy": lambda: _network_history(_harl, use_subgraph_mab=False),
    "ansor-network": lambda: _network_history(_ansor),
    "harl-resumed": lambda: _resumed_history(_harl, warm_start=True),
    "ansor-resumed": lambda: _resumed_history(_ansor, warm_start=True),
    "flextensor-resumed": lambda: _resumed_history(_flextensor, warm_start=False),
    "sa-resumed": lambda: _resumed_history(_sa, warm_start=False),
    "network-gemm-conv1d": _network_trajectory,
}


def encode(history):
    """JSON-safe ``[[trials, latency], ...]`` (a non-finite latency is ``null``).

    ``json`` writes floats with ``repr``, which round-trips exactly.
    """
    return [
        [int(trials), float(latency) if math.isfinite(latency) else None]
        for trials, latency in history
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(golden, name):
    current = encode(CASES[name]())
    assert current == golden[name], (
        f"search trajectory {name!r} drifted from the committed golden history; "
        f"if the numeric change is intended, regenerate "
        f"tests/data/golden_trajectories.json (see this module's docstring)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_trajectories.py --write")
    payload = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    missing = sorted(set(CASES) - set(payload))
    for name in missing:
        payload[name] = encode(CASES[name]())
    # json round-trips floats exactly, so existing entries are rewritten
    # byte for byte; only the missing cases are new.
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"recorded {len(missing)} missing case(s) in {GOLDEN_PATH}: {', '.join(missing)}")
