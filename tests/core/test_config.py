"""Unit tests for the HARL configuration object."""

import numpy as np
import pytest

from repro.core.config import HARLConfig
from repro.core.subgraph_reward import SubgraphBandit
from repro.networks.mobilenet import build_mobilenet_v2


class TestDefaults:
    def test_paper_defaults_match_table5(self):
        cfg = HARLConfig.paper()
        assert cfg.window_size == 20          # lambda
        assert cfg.elimination_ratio == 0.5    # rho
        assert cfg.min_tracks == 64            # p-hat
        assert cfg.actor_lr == pytest.approx(3e-4)
        assert cfg.critic_lr == pytest.approx(1e-3)
        assert cfg.train_interval == 2         # T_rl
        assert cfg.discount == pytest.approx(0.9)
        assert cfg.mse_weight == pytest.approx(0.5)
        assert cfg.entropy_weight == pytest.approx(0.01)
        assert cfg.ucb_constant == pytest.approx(0.25)
        assert cfg.ucb_window == 256
        assert cfg.alpha == pytest.approx(0.2)
        assert cfg.beta == pytest.approx(2.0)
        assert cfg.min_repeat_seconds == pytest.approx(1.0)

    def test_replace_creates_modified_copy(self):
        cfg = HARLConfig()
        other = cfg.replace(window_size=10)
        assert other.window_size == 10
        assert cfg.window_size == 20
        assert other.discount == cfg.discount


class TestScaled:
    def test_scaled_shrinks_episode_width(self):
        cfg = HARLConfig.scaled(0.125)
        base = HARLConfig()
        assert cfg.num_tracks < base.num_tracks
        assert cfg.measures_per_round < base.measures_per_round
        assert cfg.min_tracks <= cfg.num_tracks

    def test_scaled_keeps_rl_hyperparameters(self):
        cfg = HARLConfig.scaled(0.1)
        base = HARLConfig()
        assert cfg.actor_lr == base.actor_lr
        assert cfg.discount == base.discount
        assert cfg.entropy_weight == base.entropy_weight
        assert cfg.ucb_constant == base.ucb_constant
        assert cfg.ucb_window == base.ucb_window

    def test_scaled_subgraph_bandit_keeps_every_mobilenet_arm_in_its_window(self):
        """After warm-up the scaled config's subgraph bandit only plays arms
        inside its SW-UCB window.

        An arm outside the window scores +inf and is played next whatever
        its reward, so with a window shorter than MobileNet-V2's 38
        subgraphs the bandit would cycle through the arms for good.
        """
        network = build_mobilenet_v2()
        assert len(network) == 38
        cfg = HARLConfig.scaled()
        bandit = SubgraphBandit(
            network, alpha=cfg.alpha, beta=cfg.beta, backward_window=cfg.backward_window,
            exploration=cfg.ucb_constant, window=cfg.ucb_window, rng=np.random.default_rng(0),
        )
        data = np.random.default_rng(1)
        best = {sg.name: 1.0 + data.random() for sg in network}
        for play in range(4 * len(network)):
            name = bandit.next_task()
            if play >= len(network):
                assert bandit.mab.counts()[bandit._index[name]] > 0, (play, name)
            best[name] *= 1.0 - 0.2 * data.random()
            bandit.record(name, best[name], trials=4)

    def test_scaled_factor_one_keeps_paper_scale(self):
        cfg = HARLConfig.scaled(1.0)
        assert cfg.num_tracks == HARLConfig().num_tracks

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            HARLConfig.scaled(0.0)
        with pytest.raises(ValueError):
            HARLConfig.scaled(2.0)


class TestValidation:
    def test_rejects_bad_elimination_ratio(self):
        with pytest.raises(ValueError):
            HARLConfig(elimination_ratio=0.0)
        with pytest.raises(ValueError):
            HARLConfig(elimination_ratio=1.0)

    def test_rejects_tracks_below_min(self):
        with pytest.raises(ValueError):
            HARLConfig(num_tracks=8, min_tracks=16)

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            HARLConfig(discount=1.5)

    def test_rejects_bad_clip(self):
        with pytest.raises(ValueError):
            HARLConfig(clip_epsilon=0.0)

    def test_rejects_bad_measures(self):
        with pytest.raises(ValueError):
            HARLConfig(measures_per_round=0)

    @pytest.mark.parametrize(
        "field", ["train_interval", "ppo_epochs", "minibatch_size", "replay_capacity"]
    )
    def test_rejects_ppo_sizes_below_one(self, field):
        """A zero here used to fail mid-tune (``train_interval``: division by
        zero) or train on NaN losses (``minibatch_size``: empty batches)."""
        with pytest.raises(ValueError, match=field):
            HARLConfig(**{field: 0})
        assert getattr(HARLConfig(**{field: 1}), field) == 1
