"""Flextensor-like baseline: fixed-length RL search on single operators.

Flextensor applies an RL agent to the low-level parameter search but (per
Table 1) supports neither subgraph nor sketch selection and uses uniform
fixed-length allocations for every schedule track.  This baseline therefore
reuses HARL's PPO parameter search with a :class:`FixedLengthStopper`, pinned
to the first (plain multi-level tiling) sketch, and exposes the per-track
critical-step positions needed for the Fig. 1(c) observation.  The budget
loop and resume path are the shared :class:`~repro.core.tuner.TuningDriver`;
``tune_network`` raises :class:`NotImplementedError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import FixedLengthStopper
from repro.core.config import HARLConfig
from repro.core.parameter_search import ParameterSearcher
from repro.core.tuner import TuningDriver, WorkloadState
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE

__all__ = ["FlextensorScheduler"]


class _FlextensorTask(WorkloadState):
    """One searcher on the workload's first sketch, plus Fig. 1(c) data."""

    def __init__(self, dag: ComputeDAG, scheduler: "FlextensorScheduler"):
        super().__init__(dag, scheduler.target)
        # Flextensor works from a single general template: the plain
        # multi-level tiling sketch.
        sketch = self.sketches[0]
        agent = PPOAgent(
            feature_size=FEATURE_SIZE,
            head_sizes=ActionSpace(sketch).head_sizes,
            config=scheduler.config,
            seed=scheduler.seed + len(dag.name),
        )
        self.searcher = ParameterSearcher(
            sketch=sketch,
            agent=agent,
            cost_model=scheduler.cost_model,
            measurer=scheduler.measurer,
            config=scheduler.config,
            stopper=FixedLengthStopper(episode_length=scheduler.config.episode_length),
            rng=np.random.default_rng(scheduler.seed + 13),
        )
        #: Relative critical-step positions of every track (Fig. 1c data).
        self.critical_positions: List[float] = []


class FlextensorScheduler(TuningDriver):
    """Fixed-length RL parameter search without the hierarchical levels.

    :func:`repro.baselines.make_scheduler` builds it as ``flextensor``; it
    takes no warm-start provider.
    """

    name = "flextensor"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        measurer: Optional[Measurer] = None,
        record_store=None,
    ):
        super().__init__(target, seed=seed, measurer=measurer, record_store=record_store)
        self.config = config or HARLConfig()

    def _new_state(self, dag: ComputeDAG) -> _FlextensorTask:
        return _FlextensorTask(dag, self)

    def _search_round(self, state: _FlextensorTask, max_measures: Optional[int]) -> int:
        """One fixed-length RL episode."""
        episode = state.searcher.run_episode(max_measures=max_measures)
        state.critical_positions.extend(episode.critical_positions)
        return episode.num_visited

    def _extras(self, state: _FlextensorTask) -> Dict[str, object]:
        return {"critical_positions": list(state.critical_positions)}
