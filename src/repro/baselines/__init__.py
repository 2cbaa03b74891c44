"""Baseline auto-schedulers, and the one factory that builds every scheduler.

Each baseline is a :class:`~repro.core.tuner.TuningDriver` subclass that
supplies only its search round and result extras:

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

:func:`make_scheduler` is the only code that turns a scheduler name into a
scheduler and its :class:`~repro.hardware.measurer.Measurer`; the CLI, the
comparison runners and the tuning service all call it.
"""

from typing import Callable, Optional, Sequence

from repro.baselines.evolutionary import EvolutionarySearch
from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.core.tuner import TuningDriver
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule

__all__ = [
    "AnsorScheduler",
    "EvolutionarySearch",
    "FlextensorScheduler",
    "SimulatedAnnealingScheduler",
    "make_scheduler",
]

#: HARL and its two ablations of the evaluation section.
_HARL_VARIANTS = {
    "harl": {},
    "hierarchical-rl": {"adaptive_stopping": False},
    "harl-no-subgraph-mab": {"use_subgraph_mab": False},
}


def make_scheduler(
    name: str,
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    record_store=None,
    warm_start_provider: Optional[Callable[[ComputeDAG], Sequence[Schedule]]] = None,
) -> TuningDriver:
    """Build the scheduler called ``name`` with its own measurer.

    ``name`` is one of ``harl``, ``hierarchical-rl`` (fixed-length
    episodes), ``harl-no-subgraph-mab`` (greedy subgraph allocation),
    ``ansor``, ``flextensor`` or ``autotvm``; any other raises
    :class:`KeyError`.  Every scheduler measures with the run's ``r_min``
    (``config.min_repeat_seconds``) and ``seed``, and streams its
    measurements and results to ``record_store``.  Only HARL, its ablations
    and Ansor take a ``warm_start_provider``.
    """
    measurer = Measurer(
        target, min_repeat_seconds=config.min_repeat_seconds, seed=seed, record_store=record_store
    )
    common = dict(target=target, seed=seed, measurer=measurer, record_store=record_store)
    if name in _HARL_VARIANTS:
        return HARLScheduler(
            config=config, warm_start_provider=warm_start_provider, **_HARL_VARIANTS[name], **common
        )
    if name == "ansor":
        return AnsorScheduler(
            config=AnsorConfig.from_harl(config), warm_start_provider=warm_start_provider, **common
        )
    if name == "flextensor":
        return FlextensorScheduler(config=config, **common)
    if name == "autotvm":
        return SimulatedAnnealingScheduler(**common)
    known = ", ".join([*_HARL_VARIANTS, "ansor", "flextensor", "autotvm"])
    raise KeyError(f"unknown scheduler {name!r}; known: {known}")
