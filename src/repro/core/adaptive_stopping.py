"""Adaptive-stopping search (Section 5 of the paper).

Instead of exploring every schedule track for a fixed number of steps, HARL
periodically (every ``window_size`` steps) sorts the live tracks by their
advantage value :math:`A_{\\pi_\\theta}` and eliminates the lowest
``elimination_ratio`` fraction, so the remaining budget concentrates on tracks
with better potential.  A :class:`FixedLengthStopper` is provided for the
"Hierarchical-RL" ablation of Fig. 7(a) and the Flextensor baseline.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["AdaptiveStopper", "FixedLengthStopper"]


class AdaptiveStopper:
    """Track-wise adaptive length control.

    Parameters
    ----------
    window_size:
        Number of steps (``lambda``) between elimination rounds.
    elimination_ratio:
        Fraction (``rho``) of live tracks eliminated at each round.
    min_tracks:
        Elimination stops once the number of live tracks would drop below this
        value (``p-hat``); the episode then ends.  It also ends after a round
        that eliminates no track (``rho * live < 1``), since every later round
        would keep them all too.
    """

    def __init__(self, window_size: int = 20, elimination_ratio: float = 0.5, min_tracks: int = 64):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not (0.0 < elimination_ratio < 1.0):
            raise ValueError("elimination_ratio must be in (0, 1)")
        if min_tracks < 1:
            raise ValueError("min_tracks must be >= 1")
        self.window_size = int(window_size)
        self.elimination_ratio = float(elimination_ratio)
        self.min_tracks = int(min_tracks)

    # ------------------------------------------------------------------ #
    def is_elimination_step(self, step: int) -> bool:
        """Whether an elimination round happens after completing ``step`` (1-based)."""
        return step > 0 and step % self.window_size == 0

    def should_continue(self, step: int, num_live: int) -> bool:
        """The episode continues while at least ``min_tracks`` tracks remain."""
        return num_live >= self.min_tracks

    def select_survivors(self, advantages: Sequence[float]) -> List[int]:
        """Indices of tracks to keep, ordered as in the input.

        The lowest-advantage ``rho`` fraction of tracks is eliminated.  The
        episode itself ends (via :meth:`should_continue`) once the number of
        survivors drops below ``min_tracks``.
        """
        advantages = np.asarray(list(advantages), dtype=np.float64)
        n = len(advantages)
        if n == 0:
            return []
        to_eliminate = int(np.floor(self.elimination_ratio * n))
        if to_eliminate <= 0:
            return list(range(n))
        order = np.argsort(advantages, kind="mergesort")  # ascending: worst first
        eliminated = set(int(i) for i in order[:to_eliminate])
        return [i for i in range(n) if i not in eliminated]

    def expected_total_steps(self, num_tracks: int) -> int:
        """Total schedule visits of one episode (used to match fixed-length budgets)."""
        total = 0
        live = num_tracks
        while live >= self.min_tracks:
            total += live * self.window_size
            keep = live - int(np.floor(self.elimination_ratio * live))
            if keep == live:
                break
            live = keep
        return total


class FixedLengthStopper:
    """Fixed-length episode control (the ablation / Flextensor behaviour).

    Every track runs for exactly ``episode_length`` steps; no elimination
    happens.
    """

    def __init__(self, episode_length: int = 40):
        if episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        self.episode_length = int(episode_length)

    def is_elimination_step(self, step: int) -> bool:
        return False

    def should_continue(self, step: int, num_live: int) -> bool:
        return step < self.episode_length and num_live > 0

    def select_survivors(self, advantages: Sequence[float]) -> List[int]:
        return list(range(len(advantages)))

    def expected_total_steps(self, num_tracks: int) -> int:
        return num_tracks * self.episode_length
