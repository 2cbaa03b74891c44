"""Smoke run of every e2e workload at tiny scale, untraced and traced.

Guards the benchmark's contract with ``BENCHMARK.json``: the emitted metric
names are exactly the declared ones, and every layer a workload declares
recorded at least one span, so renaming an entry point in ``src/`` cannot
silently zero a layer.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import SPEC, run_workload
from workloads import WORKLOADS

pytestmark = pytest.mark.smoke

TINY = {
    "op-gemm-m": {"budget": 32, "warmup_budget": 8, "min_units": 1},
    "net-mobilenet-cold": {"budget": 8, "warmup_budget": 8, "min_units": 1},
    "serve-zipf": {"requests": 10, "warmup_requests": 2, "min_units": 1},
}


@pytest.fixture(scope="module")
def spec():
    return json.loads(SPEC.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    return {
        (name, trace): run_workload(name, seed=1, seconds=0, trace=trace, sizes=sizes, probes=1)
        for name, sizes in TINY.items()
        for trace in (False, True)
    }


def test_workloads_match_the_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(TINY)


def test_metric_names_equal_the_declared_names(spec, runs):
    declared = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    for (name, trace), (result, _detail) in runs.items():
        assert sorted(result["metrics"]) == sorted(declared[trace]), (name, trace)
        for metric, payload in result["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert set(payload) == {"value", "unit"}


def test_runs_are_correct(runs):
    for (name, trace), (result, detail) in runs.items():
        assert result["correct"], (name, trace, detail["violations"])
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_every_declared_layer_recorded_a_span(runs):
    for name, cls in WORKLOADS.items():
        layers = runs[(name, True)][1]["layers"]
        missing = [layer for layer in cls.layers if layers.get(layer, {}).get("calls", 0) < 1]
        assert not missing, (name, missing)
