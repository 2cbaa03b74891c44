"""HARL core: the paper's primary contribution.

The hierarchical adaptive auto-scheduler consists of

* non-stationary multi-armed bandits (Sliding-Window UCB) for the subgraph and
  sketch selection levels of the search hierarchy,
* an actor-critic (PPO) agent for the low-level parameter modification level,
* an adaptive-stopping module that prunes schedule tracks with poor advantage
  values, and
* the parameter-search episode loop (Algorithm 1) with cost-model-based
  top-K selection, tied together by :class:`~repro.core.scheduler.HARLScheduler`
  on the :class:`~repro.core.tuner.TuningDriver` every scheduler shares.
"""

from repro.core.config import HARLConfig
from repro.core.bandit import SlidingWindowUCB
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.actor_critic import PPOAgent
from repro.core.parameter_search import EpisodeResult, ParameterSearcher
from repro.core.scheduler import HARLScheduler
from repro.core.tuner import TuningResult

__all__ = [
    "AdaptiveStopper",
    "EpisodeResult",
    "FixedLengthStopper",
    "HARLConfig",
    "HARLScheduler",
    "PPOAgent",
    "ParameterSearcher",
    "SlidingWindowUCB",
    "TuningResult",
]
