"""Unit tests for make_scheduler, the one name-to-scheduler factory."""

import dataclasses

import pytest

from repro.baselines import (
    AnsorScheduler,
    FlextensorScheduler,
    SimulatedAnnealingScheduler,
    make_scheduler,
)
from repro.core.scheduler import HARLScheduler
from repro.hardware.target import cpu_target
from repro.records import RecordStore
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.workloads import gemm

#: (factory name, class, scheduler ``.name``, takes a warm-start provider)
CASES = [
    ("harl", HARLScheduler, "harl", True),
    ("hierarchical-rl", HARLScheduler, "hierarchical-rl", True),
    ("harl-no-subgraph-mab", HARLScheduler, "harl", True),
    ("ansor", AnsorScheduler, "ansor", True),
    ("flextensor", FlextensorScheduler, "flextensor", False),
    ("autotvm", SimulatedAnnealingScheduler, "autotvm-sa", False),
]


@pytest.fixture
def config(tiny_config):
    # A non-default r_min: every scheduler must measure with the run's r_min.
    return dataclasses.replace(tiny_config, min_repeat_seconds=1e-4)


@pytest.mark.parametrize(("name", "cls", "label", "warm"), CASES)
def test_builds_each_scheduler_with_the_runs_measurer(name, cls, label, warm, config):
    store = RecordStore()

    def provider(dag):
        return []

    scheduler = make_scheduler(
        name, cpu_target(), config, 3, record_store=store, warm_start_provider=provider
    )
    assert type(scheduler) is cls
    assert scheduler.name == label
    assert scheduler.measurer.min_repeat_seconds == config.min_repeat_seconds
    assert scheduler.measurer.seed == 3
    assert scheduler.measurer.record_store is store
    assert scheduler.record_store is store
    assert (scheduler.warm_start_provider is provider) == warm


def test_no_subgraph_mab_ablation_allocates_greedily(config):
    assert make_scheduler("harl-no-subgraph-mab", cpu_target(), config, 0).use_subgraph_mab is False


def test_unknown_name_lists_the_known_ones(config):
    with pytest.raises(KeyError, match="autotvm"):
        make_scheduler("tvm", cpu_target(), config, 0)


@pytest.mark.parametrize("name", ["harl", "hierarchical-rl", "ansor"])
def test_service_job_matches_a_standalone_run(name, config):
    service = TuningService(ScheduleRegistry(), config=config, seed=5)
    (handle,) = service.process([TuningRequest(gemm(64, 64, 64), n_trials=12, scheduler=name)])
    standalone = make_scheduler(name, cpu_target(), config, 5).tune(gemm(64, 64, 64), 12)
    assert handle.result.history == standalone.history
