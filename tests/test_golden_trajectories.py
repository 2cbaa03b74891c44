"""Golden search trajectories: pinned-seed f(S)-vs-trials histories.

A search trajectory is sensitive to the numbers it consumes: a one-ulp
change in a measured latency or a cost-model prediction can reorder the
candidates the scheduler measures, and the divergence compounds from
there.  Performance work on the hot path (cost model, simulator, features,
PPO) is meant to change *nothing*, so the histories of a few pinned-seed
runs are committed in ``tests/data/golden_trajectories.json`` and compared
exactly here:

* ``HARLScheduler(config=HARLConfig.scaled()).tune(...)`` histories for one
  GEMM and one conv2d operator (64 trials each, enough for several
  gradient-boosted cost-model refits),
* a ``FlextensorScheduler`` GEMM history: its ``FixedLengthStopper`` never
  eliminates a track, so every step of every episode walks all tracks, and
* the ``f(S)`` trajectory of a small two-subgraph ``NetworkTuner`` run.

If a change is *meant* to alter the search numerically, regenerate the file
and say so (with the ``make bench`` rerun) in the change description::

    PYTHONPATH=src python tests/test_golden_trajectories.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro import HARLConfig, HARLScheduler, ScheduleRegistry, TuningService
from repro.baselines.flextensor import FlextensorScheduler
from repro.experiments.network_runner import NetworkTuner
from repro.experiments.operator_suite import representative_dag
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import conv1d, gemm

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_trajectories.json"

SEED = 7
OPERATOR_TRIALS = 64
NETWORK_TRIALS = 96


def _operator_history(op_class: str):
    scheduler = HARLScheduler(config=HARLConfig.scaled(), seed=SEED)
    return scheduler.tune(representative_dag(op_class), OPERATOR_TRIALS).history


def _flextensor_history():
    scheduler = FlextensorScheduler(config=HARLConfig.scaled(), seed=SEED)
    return scheduler.tune(representative_dag("GEMM-M"), OPERATOR_TRIALS).history


def _network_trajectory():
    network = NetworkGraph(
        name="golden",
        subgraphs=[
            Subgraph("mm", gemm(64, 64, 64, name="golden_mm"), weight=4, similarity_group="gemm"),
            Subgraph("c1d", conv1d(64, 16, 32, 3, 1, 1, name="golden_c1d"), weight=2,
                     similarity_group="conv1d"),
        ],
    )
    service = TuningService(ScheduleRegistry(), config=HARLConfig.scaled(), seed=SEED)
    return NetworkTuner(network, service).tune(NETWORK_TRIALS).trajectory


CASES = {
    "harl-GEMM-M": lambda: _operator_history("GEMM-M"),
    "harl-C2D": lambda: _operator_history("C2D"),
    "flextensor-GEMM-M": _flextensor_history,
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
    payload = {name: encode(run()) for name, run in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
