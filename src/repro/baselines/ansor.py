"""Ansor-like auto-scheduler (the paper's main baseline).

Ansor's search differs from HARL's exactly where Table 1 says it does:

* subgraph selection — **greedy** gradient allocation (no bandit),
* sketch selection — **uniform** random,
* schedule selection — **evolutionary search** guided by the cost model
  (no RL agent),
* time allocation — fixed-length rounds with a fixed number of measured
  candidates per round.

Everything else (budget loop, resume, warm starts, network allocation loop)
is the shared :class:`~repro.core.tuner.TuningDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.evolutionary import EvolutionarySearch
from repro.core.config import HARLConfig
from repro.core.subgraph_reward import GradientTaskScheduler
from repro.core.tuner import TuningDriver, WorkloadState
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.networks.graph import NetworkGraph

__all__ = ["AnsorConfig", "AnsorScheduler"]


@dataclass(frozen=True)
class AnsorConfig:
    """Search-scale parameters of the Ansor baseline.

    ``population_size x (generations + 1)`` schedules are visited per round
    and ``measures_per_round`` of them are measured — the paper configures
    Ansor and HARL with the same number of measured candidates per round for
    a fair comparison.
    """

    population_size: int = 256
    generations: int = 4
    measures_per_round: int = 64
    mutation_prob: float = 0.85
    crossover_prob: float = 0.4

    @staticmethod
    def from_harl(config: HARLConfig) -> "AnsorConfig":
        """Match the episode width of a HARL configuration."""
        return AnsorConfig(
            population_size=config.num_tracks,
            generations=max(2, config.episode_length // 8),
            measures_per_round=config.measures_per_round,
        )


class AnsorScheduler(TuningDriver):
    """Evolutionary-search auto-scheduler with greedy task allocation.

    A resumed workload's 8 best recorded schedules seed the evolutionary
    warm starts; ``record_store`` and ``warm_start_provider`` are described
    on :class:`~repro.core.tuner.TuningDriver`.
    :func:`repro.baselines.make_scheduler` builds it as ``ansor``, with
    :meth:`AnsorConfig.from_harl` of the run's configuration.
    """

    name = "ansor"
    replay_seeds = 8

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[AnsorConfig] = None,
        seed: int = 0,
        measurer: Optional[Measurer] = None,
        record_store=None,
        warm_start_provider=None,
    ):
        super().__init__(
            target,
            seed=seed,
            measurer=measurer,
            record_store=record_store,
            warm_start_provider=warm_start_provider,
        )
        self.config = config or AnsorConfig()

    def _search_round(self, state: WorkloadState, max_measures: Optional[int]) -> int:
        """Uniform sketch choice, evolutionary search, measure the top-K."""
        cfg = self.config
        sketch = state.sketches[int(self._rng.integers(0, len(state.sketches)))]
        search = EvolutionarySearch(
            cost_model=self.cost_model,
            population_size=cfg.population_size,
            generations=cfg.generations,
            mutation_prob=cfg.mutation_prob,
            crossover_prob=cfg.crossover_prob,
            rng=self._rng,
        )
        candidates = search.search(
            sketch, self.target.unroll_depths, warm_start=state.best_schedules
        )
        budget = cfg.measures_per_round
        if max_measures is not None:
            budget = min(budget, max_measures)
        results = self._measure([schedule for schedule, _score in candidates[:budget]])
        self._keep_best(state, results)
        return search.visited

    def _extras(self, state: WorkloadState) -> Dict[str, object]:
        return {"rounds": state.rounds}

    def _task_policy(self, network: NetworkGraph) -> GradientTaskScheduler:
        return GradientTaskScheduler(network)
