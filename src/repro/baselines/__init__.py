"""Baseline auto-schedulers.

Each is a :class:`~repro.core.tuner.TuningDriver` subclass that supplies
only its search round and result extras:

* :class:`~repro.baselines.ansor.AnsorScheduler` — the paper's main baseline:
  uniform sketch selection, evolutionary low-level search, greedy
  gradient-based task allocation
  (:class:`~repro.core.subgraph_reward.GradientTaskScheduler`),
  fixed-length rounds.
* :class:`~repro.baselines.flextensor.FlextensorScheduler` — fixed-length RL
  search on a single operator (no subgraph / sketch levels), used for the
  motivation observation of Fig. 1(c).
* :class:`~repro.baselines.autotvm.SimulatedAnnealingScheduler` — an
  AutoTVM-style simulated-annealing parameter search.
"""

from repro.baselines.evolutionary import EvolutionarySearch
from repro.baselines.ansor import AnsorScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler

__all__ = [
    "AnsorScheduler",
    "EvolutionarySearch",
    "FlextensorScheduler",
    "SimulatedAnnealingScheduler",
]
