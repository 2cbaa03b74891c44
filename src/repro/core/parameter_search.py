"""Parameter search episodes (Algorithm 1 of the paper).

One episode = sample a batch of initial schedules ("schedule tracks"), walk
each track with actions from the PPO agent, score every visited schedule with
the cost model, prune tracks via the adaptive-stopping module, train the
actor/critic every ``T_rl`` steps, and finally measure only the top-K
predicted schedules on the (simulated) hardware and feed the measurements
back into the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper
from repro.core.config import HARLConfig
from repro.hardware.measurer import MeasureResult, Measurer
from repro.tensor.actions import ActionSpace, apply_action
from repro.tensor.features import batch_features
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["EpisodeResult", "ParameterSearcher"]

#: Hard safety cap on episode steps, far above any configured episode length.
MAX_EPISODE_STEPS = 2000


@dataclass
class EpisodeResult:
    """Everything produced by one parameter-search episode."""

    measured: List[MeasureResult]
    best_latency: float
    best_throughput: float
    num_steps: int
    num_visited: int
    track_lengths: List[int]
    #: Per track: relative position (0..1) of the best predicted score on the track.
    critical_positions: List[float]
    rl_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_measured(self) -> int:
        return len(self.measured)


class _Track:
    """Bookkeeping for one schedule track."""

    __slots__ = ("schedule", "scores", "alive")

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.scores: List[float] = []
        self.alive = True

    @property
    def length(self) -> int:
        return len(self.scores)

    def critical_position(self) -> float:
        if len(self.scores) <= 1:
            return 1.0
        best_step = int(np.argmax(self.scores))
        return best_step / (len(self.scores) - 1)


class ParameterSearcher:
    """Runs Algorithm 1 for one (workload, sketch) pair.

    Parameters
    ----------
    sketch:
        The sketch whose parameters are searched.
    agent:
        The PPO agent owning the policy for this sketch's action space.
    cost_model:
        Online cost model used for rewards, pruning scores and top-K selection.
    measurer:
        Simulated hardware measurer; consumes measurement trials.  The top-K
        candidates of every episode are submitted as one batch.
    config:
        HARL configuration (track counts, top-K, RL training interval, ...).
    stopper:
        :class:`AdaptiveStopper` (HARL) or :class:`FixedLengthStopper`
        (Hierarchical-RL ablation / Flextensor).
    """

    def __init__(
        self,
        sketch: Sketch,
        agent: PPOAgent,
        cost_model,
        measurer: Measurer,
        config: Optional[HARLConfig] = None,
        stopper=None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sketch = sketch
        self.agent = agent
        self.cost_model = cost_model
        self.measurer = measurer
        self.config = config or HARLConfig()
        self.stopper = stopper or AdaptiveStopper(
            window_size=self.config.window_size,
            elimination_ratio=self.config.elimination_ratio,
            min_tracks=self.config.min_tracks,
        )
        self.rng = rng or np.random.default_rng(0)
        self.action_space = ActionSpace(sketch)
        self.unroll_depths = measurer.target.unroll_depths

    # ------------------------------------------------------------------ #
    def run_episode(
        self,
        warm_start: Optional[Sequence[Schedule]] = None,
        max_measures: Optional[int] = None,
    ) -> EpisodeResult:
        """Run one full episode and return its measurements and statistics.

        Every visited schedule gets one feature extraction and one score.  Its
        feature row serves as the agent's state and as the cost model's
        input, because feature rows do not depend on the rest of the batch.
        When every track's workload has a fitted model at the start, a live
        track's score before a step is the score recorded for it after the
        previous one: the model does not change within an episode and scores
        each row on its own, so predicting it again would give the same
        value.  On a cold workload the live schedules are predicted again
        before the new ones, because each prediction draws the random prior
        from the model's RNG.
        """
        cfg = self.config
        tracks = self._initial_tracks(warm_start)
        # history of visited schedules: signature -> (schedule, best predicted score)
        history: Dict[Tuple, Tuple[Schedule, float]] = {}
        fitted = all(
            self.cost_model.is_trained(name) for name in {t.schedule.dag.name for t in tracks}
        )

        # Feature rows of the live tracks' schedules, in ``live`` order.  Each
        # step's next states become the following step's states: carrying
        # them over (minus the eliminated tracks' rows) equals extracting them
        # again.
        states = batch_features([t.schedule for t in tracks])
        initial_scores = self.cost_model.predict([t.schedule for t in tracks], features=states)
        for track, score in zip(tracks, initial_scores):
            track.scores.append(float(score))
            self._record(history, track.schedule, float(score))

        step = 0
        num_visited = len(tracks)
        rl_stats: Dict[str, float] = {}

        while (
            self.stopper.should_continue(step, sum(t.alive for t in tracks))
            and step < MAX_EPISODE_STEPS
        ):
            live = [t for t in tracks if t.alive]
            if not live:
                break
            batch = self.agent.act(states)

            new_schedules = []
            for track, action_indices in zip(live, batch.actions):
                action = self.action_space.decode(tuple(action_indices))
                new_schedules.append(apply_action(track.schedule, action))

            if fitted:
                old_scores = np.array([t.scores[-1] for t in live])
            else:
                old_scores = self.cost_model.predict([t.schedule for t in live])
            next_states = batch_features(new_schedules)
            new_scores = self.cost_model.predict(new_schedules, features=next_states)
            rewards = (new_scores - old_scores) / (np.abs(old_scores) + 1e-6)
            rewards = np.clip(rewards, -2.0, 2.0)

            next_values = self.agent.value(next_states)
            td_targets, advantages = self.agent.compute_advantage(
                rewards, batch.values, next_values
            )
            self.agent.store(states, batch.actions, batch.log_probs, rewards, td_targets, advantages)

            for track, schedule, score in zip(live, new_schedules, new_scores):
                track.schedule = schedule
                track.scores.append(float(score))
                self._record(history, schedule, float(score))
            num_visited += len(new_schedules)
            step += 1

            if step % cfg.train_interval == 0:
                rl_stats = self.agent.update()

            states = next_states
            if self.stopper.is_elimination_step(step):
                survivors = set(self.stopper.select_survivors(advantages))
                if len(survivors) == len(live):
                    # Every later round would keep them all too (rho * live
                    # < 1), so the episode ends here, as
                    # ``AdaptiveStopper.expected_total_steps`` counts it.
                    break
                kept = [idx in survivors for idx in range(len(live))]
                for track, keep in zip(live, kept):
                    track.alive = keep
                states = next_states[kept]

        measured = self._measure_top_k(history, max_measures)
        throughputs = [r.throughput for r in measured]
        latencies = [r.latency for r in measured]
        self.cost_model.update([r.schedule for r in measured], throughputs)

        return EpisodeResult(
            measured=measured,
            best_latency=float(min(latencies)) if latencies else float("inf"),
            best_throughput=float(max(throughputs)) if throughputs else 0.0,
            num_steps=step,
            num_visited=num_visited,
            track_lengths=[t.length for t in tracks],
            critical_positions=[t.critical_position() for t in tracks],
            rl_stats=rl_stats,
        )

    # ------------------------------------------------------------------ #
    def _initial_tracks(self, warm_start: Optional[Sequence[Schedule]]) -> List[_Track]:
        cfg = self.config
        schedules = sample_initial_schedules(
            self.sketch, cfg.num_tracks, self.rng, self.unroll_depths
        )
        if warm_start:
            # Seed a fraction of the tracks with previously good schedules so
            # later episodes refine rather than restart.
            keep = min(len(warm_start), max(1, cfg.num_tracks // 4))
            for i, schedule in enumerate(list(warm_start)[:keep]):
                if schedule.sketch is self.sketch or schedule.sketch.key == self.sketch.key:
                    schedules[i] = schedule.copy()
        return [_Track(s) for s in schedules]

    @staticmethod
    def _record(history: Dict, schedule: Schedule, score: float) -> None:
        key = schedule.signature()
        existing = history.get(key)
        if existing is None or score > existing[1]:
            history[key] = (schedule, score)

    def _measure_top_k(
        self, history: Dict, max_measures: Optional[int]
    ) -> List[MeasureResult]:
        """Measure the top-K predicted schedules of the episode in one batch."""
        budget = self.config.measures_per_round
        if max_measures is not None:
            budget = min(budget, max_measures)
        if budget <= 0 or not history:
            return []
        entries = sorted(history.values(), key=lambda pair: pair[1], reverse=True)
        top = [schedule for schedule, _score in entries[:budget]]
        return self.measurer.measure(top)
