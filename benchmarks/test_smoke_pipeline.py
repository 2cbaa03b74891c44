"""Fast smoke checks for the measurement pipeline (``pytest -m smoke``).

Tiny-budget sanity runs for perf-sensitive PRs: the full figure benchmarks
take minutes, these take seconds.  They verify the pipeline invariants end
to end — records survive a round-trip and a resumed run never regresses —
without asserting anything about absolute search quality.
"""

from __future__ import annotations

import pytest

from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.records import RecordStore
from repro.tensor.workloads import gemm

pytestmark = pytest.mark.smoke

_SMOKE_TRIALS = 16


def _smoke_config() -> HARLConfig:
    return HARLConfig.scaled(0.1)


def test_smoke_records_roundtrip_and_resume(tmp_path):
    dag = gemm(128, 128, 128)
    cfg = _smoke_config()
    path = tmp_path / "records.jsonl"

    with RecordStore(path) as store:
        first = HARLScheduler(config=cfg, seed=0, record_store=store).tune(
            dag, _SMOKE_TRIALS
        )
    loaded = RecordStore.load(path)
    assert len(loaded.query(kind="measure", workload=dag.name)) == first.trials_used

    second = (
        HARLScheduler(config=cfg, seed=1)
        .resume_from(loaded)
        .tune(dag, _SMOKE_TRIALS)
    )
    assert second.best_latency <= first.best_latency
