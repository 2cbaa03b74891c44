"""Online schedule cost model.

:class:`ScheduleCostModel` is the object the auto-schedulers interact with: it
accumulates (schedule features → measured throughput) pairs, retrains the
gradient-boosted model on the fly (the "learns on the fly from the actual
measurements" behaviour in Section 3.2 of the paper), and predicts a
normalised performance score for unmeasured schedules.  The score is the
throughput relative to the best measured schedule of the same workload, so
scores are comparable across workloads and usable directly as RL rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.gbt import GradientBoostedTrees
from repro.tensor.features import batch_features
from repro.tensor.schedule import Schedule

__all__ = ["ScheduleCostModel", "RandomCostModel"]


@dataclass
class _WorkloadData:
    features: List[np.ndarray] = field(default_factory=list)
    throughputs: List[float] = field(default_factory=list)

    @property
    def best_throughput(self) -> float:
        return max(self.throughputs) if self.throughputs else 0.0


class ScheduleCostModel:
    """Gradient-boosted cost model trained online on measured schedules.

    Parameters
    ----------
    min_samples:
        Minimum number of measurements (per workload) before the learned
        model is used; below this the model returns weak random priors, like
        an untrained XGBoost in Ansor.
    retrain_interval:
        Retrain after this many new samples have been added since the last fit.
    """

    def __init__(
        self,
        min_samples: int = 16,
        retrain_interval: int = 16,
        n_estimators: int = 50,
        max_depth: int = 6,
        learning_rate: float = 0.2,
        seed: int = 0,
    ):
        self.min_samples = int(min_samples)
        self.retrain_interval = int(retrain_interval)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._data: Dict[str, _WorkloadData] = {}
        self._models: Dict[str, GradientBoostedTrees] = {}
        self._since_fit: Dict[str, int] = {}
        self.num_updates = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def update(self, schedules: Sequence[Schedule], throughputs: Sequence[float]) -> None:
        """Add measured (schedule, throughput) pairs and retrain if due."""
        if len(schedules) != len(throughputs):
            raise ValueError("schedules and throughputs must have the same length")
        if not schedules:
            return
        valid = [
            (schedule, throughput)
            for schedule, throughput in zip(schedules, throughputs)
            if np.isfinite(throughput) and throughput > 0
        ]
        touched = set()
        # One vectorised feature-extraction pass for the whole batch instead
        # of a per-schedule call.
        features = batch_features([schedule for schedule, _ in valid])
        for (schedule, throughput), feature in zip(valid, features):
            key = schedule.dag.name
            data = self._data.setdefault(key, _WorkloadData())
            data.features.append(feature)
            data.throughputs.append(float(throughput))
            self._since_fit[key] = self._since_fit.get(key, 0) + 1
            touched.add(key)
        self.num_updates += 1

        for key in touched:
            data = self._data[key]
            due = self._since_fit.get(key, 0) >= self.retrain_interval
            untrained = key not in self._models
            if len(data.throughputs) >= self.min_samples and (due or untrained):
                self._fit_workload(key)

    def _fit_workload(self, key: str) -> None:
        data = self._data[key]
        X = np.stack(data.features, axis=0)
        y = np.asarray(data.throughputs, dtype=np.float64)
        y_norm = y / max(data.best_throughput, 1e-30)
        model = GradientBoostedTrees(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            learning_rate=self.learning_rate,
            seed=self._seed,
        )
        model.fit(X, y_norm)
        self._models[key] = model
        self._since_fit[key] = 0

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def is_trained(self, workload_name: str) -> bool:
        return workload_name in self._models

    def num_samples(self, workload_name: str) -> int:
        data = self._data.get(workload_name)
        return len(data.throughputs) if data else 0

    def predict(
        self, schedules: Sequence[Schedule], features: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Predicted performance score per schedule (≈ 1.0 for the best seen).

        Schedules are grouped by workload.  A workload with a fitted model
        gets its clipped prediction.  A cold workload (fewer than
        ``min_samples`` measurements so far) gets a weak random prior drawn
        from this model's RNG, one draw per schedule in batch order.  Features
        are extracted only for the fitted workloads, since the prior does not
        read them.

        ``features``, when given, is ``batch_features(schedules)``: one row
        per schedule, in batch order.  The fitted workloads then read their
        rows from it instead of extracting them again.  A schedule's feature
        row and its score do not depend on the rest of the batch, so the
        scores are the same either way.
        """
        if not schedules:
            return np.zeros(0, dtype=np.float64)
        scores = np.zeros(len(schedules), dtype=np.float64)
        by_workload: Dict[str, List[int]] = {}
        for idx, schedule in enumerate(schedules):
            by_workload.setdefault(schedule.dag.name, []).append(idx)
        for key, indices in by_workload.items():
            model = self._models.get(key)
            if model is None:
                # Cold start: weak uninformative prior, like an untrained booster.
                scores[indices] = 0.05 * self._rng.random(len(indices))
            else:
                if features is None:
                    feats = batch_features([schedules[i] for i in indices])
                else:
                    feats = features[indices]
                scores[indices] = np.clip(model.predict(feats), 0.0, None)
        return scores

    def predict_throughput(self, schedules: Sequence[Schedule]) -> np.ndarray:
        """De-normalised throughput prediction (FLOP/s)."""
        scores = self.predict(schedules)
        out = np.zeros_like(scores)
        for idx, schedule in enumerate(schedules):
            data = self._data.get(schedule.dag.name)
            best = data.best_throughput if data else 0.0
            out[idx] = scores[idx] * best
        return out

    def best_throughput(self, workload_name: str) -> float:
        data = self._data.get(workload_name)
        return data.best_throughput if data else 0.0


class RandomCostModel:
    """Uninformative cost model used for ablations and cold-start baselines."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def update(self, schedules: Sequence[Schedule], throughputs: Sequence[float]) -> None:
        return None

    def is_trained(self, workload_name: str) -> bool:
        return False

    def num_samples(self, workload_name: str) -> int:
        return 0

    def predict(
        self, schedules: Sequence[Schedule], features: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One uniform draw per schedule; ``features`` is accepted and ignored."""
        return self._rng.random(len(schedules))

    def predict_throughput(self, schedules: Sequence[Schedule]) -> np.ndarray:
        return self.predict(schedules)

    def best_throughput(self, workload_name: str) -> float:
        return 0.0
