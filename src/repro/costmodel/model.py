"""Online schedule cost model.

:class:`ScheduleCostModel` is the object the auto-schedulers interact with: it
accumulates (schedule features → measured throughput) pairs, retrains the
gradient-boosted model on the fly (the "learns on the fly from the actual
measurements" behaviour in Section 3.2 of the paper), and predicts a
normalised performance score for unmeasured schedules.  The score is the
throughput relative to the best measured schedule of the same workload, so
scores are comparable across workloads and usable directly as RL rewards.

A refit comes due in :meth:`ScheduleCostModel.update` and runs in the first
:meth:`ScheduleCostModel.predict` that reads its workload, on the samples it
came due with.  A refit that a later one replaces before any read, or that
nothing reads, is never fitted; the models that are read are the ones an
eager refit would have built.  The ``costmodel.refits_due`` and
``costmodel.refits`` counters tell the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.gbt import GradientBoostedTrees
from repro.obs.metrics import counter
from repro.tensor.features import batch_features
from repro.tensor.schedule import Schedule

__all__ = ["ScheduleCostModel", "RandomCostModel"]

_REFITS_DUE = counter("costmodel.refits_due", "Per-workload cost-model refits that came due")
_REFITS = counter("costmodel.refits", "Per-workload cost-model refits fitted on read")


@dataclass
class _WorkloadData:
    """One workload's measured samples and its model.

    ``due`` is the sample count at the latest due refit (0 before the first)
    and ``model`` was fitted on the first ``fitted`` samples, so a refit is
    pending while the two differ.
    """

    features: List[np.ndarray] = field(default_factory=list)
    throughputs: List[float] = field(default_factory=list)
    due: int = 0
    fitted: int = 0
    model: Optional[GradientBoostedTrees] = None

    @property
    def best_throughput(self) -> float:
        return max(self.throughputs) if self.throughputs else 0.0


class ScheduleCostModel:
    """Gradient-boosted cost model trained online on measured schedules.

    A workload's refit comes due in :meth:`update` once it has
    ``min_samples`` samples and either no refit came due before or
    ``retrain_interval`` samples arrived since the last one.  It runs in the
    first :meth:`predict` that reads the workload, on the samples counted
    when it came due; a refit that a later one replaces first is skipped.
    :meth:`is_trained` is True from the first due refit on.

    Parameters
    ----------
    min_samples:
        Minimum number of measurements (per workload) before the learned
        model is used; below this the model returns weak random priors, like
        an untrained XGBoost in Ansor.
    retrain_interval:
        Retrain after this many new samples have been added since the last
        refit came due.
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
        self.num_updates = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def update(self, schedules: Sequence[Schedule], throughputs: Sequence[float]) -> None:
        """Add measured (schedule, throughput) pairs; a due refit runs on read."""
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
            touched.add(key)
        self.num_updates += 1

        for key in touched:
            data = self._data[key]
            n = len(data.throughputs)
            if n >= self.min_samples and (not data.due or n - data.due >= self.retrain_interval):
                data.due = n
                _REFITS_DUE.inc()

    def _fit(self, data: _WorkloadData) -> GradientBoostedTrees:
        """Fit the workload's due refit on its first ``due`` samples, each
        throughput normalised by the best of them."""
        n = data.due
        X = np.stack(data.features[:n], axis=0)
        y = np.asarray(data.throughputs[:n], dtype=np.float64)
        y_norm = y / max(float(y.max()), 1e-30)
        model = GradientBoostedTrees(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            learning_rate=self.learning_rate,
            seed=self._seed,
        )
        model.fit(X, y_norm)
        data.model, data.fitted = model, n
        _REFITS.inc()
        return model

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def is_trained(self, workload_name: str) -> bool:
        """Whether a refit has come due, fitted yet or not."""
        data = self._data.get(workload_name)
        return data is not None and data.due > 0

    def num_samples(self, workload_name: str) -> int:
        data = self._data.get(workload_name)
        return len(data.throughputs) if data else 0

    def predict(
        self, schedules: Sequence[Schedule], features: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Predicted performance score per schedule (≈ 1.0 for the best seen).

        Schedules are grouped by workload.  A trained workload gets its
        model's clipped prediction, after fitting the refit that came due
        since the last read, if any.  A cold workload (fewer than
        ``min_samples`` measurements so far) gets a weak random prior drawn
        from this model's RNG, one draw per schedule in batch order.  Features
        are extracted only for the trained workloads, since the prior does not
        read them.

        ``features``, when given, is ``batch_features(schedules)``: one row
        per schedule, in batch order.  The trained workloads then read their
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
            data = self._data.get(key)
            if data is None or not data.due:
                # Cold start: weak uninformative prior, like an untrained booster.
                scores[indices] = 0.05 * self._rng.random(len(indices))
            else:
                model = data.model if data.fitted == data.due else self._fit(data)
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
