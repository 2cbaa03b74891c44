"""AutoTVM-like baseline: simulated-annealing parameter search.

AutoTVM explores a user-template search space with simulated annealing guided
by a learned cost model.  Here the "template" is the first generated sketch,
and the annealer proposes random modification actions, accepting worse states
with a temperature-controlled probability.  Included for completeness of the
related-work comparison (the paper's evaluation uses Ansor as its only
baseline because Ansor dominates AutoTVM).  The budget loop and resume path
are the shared :class:`~repro.core.tuner.TuningDriver`; ``tune_network``
raises :class:`NotImplementedError`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.tuner import TuningDriver, TuningResult, WorkloadState
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.tensor.actions import ActionSpace, apply_action
from repro.tensor.dag import ComputeDAG
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.schedule import Schedule

__all__ = ["SimulatedAnnealingScheduler"]


class _AnnealTask(WorkloadState):
    def __init__(self, dag: ComputeDAG, scheduler: "SimulatedAnnealingScheduler"):
        super().__init__(dag, scheduler.target)
        self.action_space = ActionSpace(self.sketches[0])
        self.temperature = scheduler.initial_temperature


class SimulatedAnnealingScheduler(TuningDriver):
    """Simulated annealing over schedule states, guided by the cost model.

    Each :meth:`tune` call anneals from ``initial_temperature`` again and
    cools by ``cooling`` after every round.
    :func:`repro.baselines.make_scheduler` builds it as ``autotvm``, at
    these defaults and without a warm-start provider.
    """

    name = "autotvm-sa"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        seed: int = 0,
        num_chains: int = 64,
        steps_per_round: int = 64,
        measures_per_round: int = 64,
        initial_temperature: float = 1.0,
        cooling: float = 0.9,
        measurer: Optional[Measurer] = None,
        record_store=None,
    ):
        if num_chains < 1 or steps_per_round < 1:
            raise ValueError("num_chains and steps_per_round must be >= 1")
        super().__init__(target, seed=seed, measurer=measurer, record_store=record_store)
        self.num_chains = int(num_chains)
        self.steps_per_round = int(steps_per_round)
        self.measures_per_round = int(measures_per_round)
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)

    def _new_state(self, dag: ComputeDAG) -> _AnnealTask:
        return _AnnealTask(dag, self)

    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        self._workload(dag).temperature = self.initial_temperature
        return super().tune(dag, n_trials)

    def _search_round(self, state: _AnnealTask, max_measures: Optional[int]) -> int:
        """Anneal all chains, measure the best-scored visited schedules, cool."""
        history = self._anneal(state)
        budget = self.measures_per_round
        if max_measures is not None:
            budget = min(budget, max_measures)
        candidates = sorted(history.values(), key=lambda pair: pair[1], reverse=True)
        self._measure([schedule for schedule, _score in candidates[:budget]])
        state.temperature *= self.cooling
        return self.num_chains * self.steps_per_round

    def _extras(self, state: _AnnealTask) -> Dict[str, object]:
        return {"final_temperature": state.temperature}

    def _anneal(self, state: _AnnealTask) -> Dict[Tuple, Tuple[Schedule, float]]:
        """Every (schedule, best predicted score) the chains visited this round."""
        chains = sample_initial_schedules(
            state.sketches[0], self.num_chains, self._rng, self.target.unroll_depths
        )
        scores = np.asarray(self.cost_model.predict(chains), dtype=np.float64)
        history: Dict[Tuple, Tuple[Schedule, float]] = {
            s.signature(): (s, float(sc)) for s, sc in zip(chains, scores)
        }

        for _step in range(self.steps_per_round):
            proposals = [
                apply_action(chain, state.action_space.sample(self._rng)) for chain in chains
            ]
            new_scores = np.asarray(self.cost_model.predict(proposals), dtype=np.float64)
            delta = new_scores - scores
            accept = (delta >= 0) | (
                self._rng.random(len(chains)) < np.exp(delta / max(state.temperature, 1e-6))
            )
            for i, accepted in enumerate(accept):
                if accepted:
                    chains[i] = proposals[i]
                    scores[i] = new_scores[i]
                key = proposals[i].signature()
                prev = history.get(key)
                if prev is None or new_scores[i] > prev[1]:
                    history[key] = (proposals[i], float(new_scores[i]))

        return history
