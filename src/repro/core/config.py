"""HARL hyper-parameter configuration.

Defaults follow Table 5 of the paper (model parameters) and Section 6.1
(search settings).  The paper-scale defaults assume thousands of measurement
trials per workload; :func:`HARLConfig.scaled` produces a proportionally
shrunk configuration so the unit tests and the default benchmark harness run
in seconds instead of hours.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HARLConfig"]


@dataclass(frozen=True)
class HARLConfig:
    """All tunable knobs of the HARL scheduler.

    Attributes mirror Table 5 of the paper; search-scale attributes (number of
    schedule tracks per round, measured candidates per round) follow the Ansor
    conventions the paper reuses.
    """

    # --- adaptive stopping (Section 5) -------------------------------- #
    window_size: int = 20              #: lambda — adaptive-stopping window size
    elimination_ratio: float = 0.5     #: rho — fraction of tracks eliminated per window
    min_tracks: int = 64               #: p-hat — minimum number of remaining tracks

    # --- schedule-track episode scale ---------------------------------- #
    num_tracks: int = 256              #: p — schedule tracks sampled per round
    episode_length: int = 40           #: L — fixed-length episode length (ablation / baselines)
    measures_per_round: int = 64       #: top-K schedules measured per round

    # --- actor-critic (PPO) -------------------------------------------- #
    actor_lr: float = 3e-4             #: learning rate of the actor network
    critic_lr: float = 1e-3            #: learning rate of the critic network
    train_interval: int = 2            #: T_rl — steps between PPO updates
    discount: float = 0.9              #: gamma — discount factor in Eq. 6
    mse_weight: float = 0.5            #: critic MSE loss weight
    entropy_weight: float = 0.01       #: entropy bonus weight
    clip_epsilon: float = 0.2          #: PPO clipped-surrogate epsilon
    hidden_size: int = 64              #: width of the actor/critic MLP hidden layers
    ppo_epochs: int = 4                #: gradient passes per PPO update
    minibatch_size: int = 256          #: samples per PPO gradient step
    replay_capacity: int = 4096        #: replay buffer capacity

    # --- sliding-window UCB (Eq. 1) ------------------------------------ #
    ucb_constant: float = 0.25         #: c — exploration constant
    ucb_window: int = 256              #: tau — sliding window size

    # --- subgraph reward (Eq. 3, adopted from Ansor) ------------------- #
    alpha: float = 0.2                 #: historical-gradient importance
    beta: float = 2.0                  #: similar-subgraph importance
    backward_window: int = 3           #: delta-t — rounds used for the improvement rate

    # --- measurement ---------------------------------------------------- #
    min_repeat_seconds: float = 1.0    #: r_min — minimum repeated-measurement time

    # -------------------------------------------------------------------- #
    def __post_init__(self) -> None:
        if not (0.0 < self.elimination_ratio < 1.0):
            raise ValueError("elimination_ratio must be in (0, 1)")
        if self.window_size < 1 or self.episode_length < 1:
            raise ValueError("window_size and episode_length must be >= 1")
        if self.min_tracks < 1 or self.num_tracks < self.min_tracks:
            raise ValueError("num_tracks must be >= min_tracks >= 1")
        if self.measures_per_round < 1:
            raise ValueError("measures_per_round must be >= 1")
        if not (0.0 <= self.discount <= 1.0):
            raise ValueError("discount must be in [0, 1]")
        if not (0.0 < self.clip_epsilon < 1.0):
            raise ValueError("clip_epsilon must be in (0, 1)")
        for name in ("train_interval", "ppo_epochs", "minibatch_size", "replay_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def replace(self, **kwargs) -> "HARLConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    @staticmethod
    def paper() -> "HARLConfig":
        """The paper's default configuration (Table 5)."""
        return HARLConfig()

    @staticmethod
    def scaled(factor: float = 0.125) -> "HARLConfig":
        """A proportionally smaller configuration for fast tests / CI benches.

        ``factor`` scales the episode width (tracks, measured candidates), the
        adaptive-stopping window and episode length, and the PPO minibatch;
        the other RL hyper-parameters and the MAB ones (the UCB constant and
        the SW-UCB window tau) keep their paper values because they are scale
        free.  A window below a network's number of subgraphs would let an
        arm drop out of it, score +inf and be played again, so the bandit
        would cycle through the arms and never exploit.
        """
        if not (0.0 < factor <= 1.0):
            raise ValueError("factor must be in (0, 1]")
        base = HARLConfig()
        num_tracks = max(8, int(round(base.num_tracks * factor)))
        return base.replace(
            num_tracks=num_tracks,
            min_tracks=max(2, int(round(base.min_tracks * factor))),
            measures_per_round=max(4, int(round(base.measures_per_round * factor))),
            window_size=max(4, int(round(base.window_size * factor * 2))),
            episode_length=max(8, int(round(base.episode_length * factor * 2))),
            minibatch_size=max(32, int(round(base.minibatch_size * factor))),
        )
