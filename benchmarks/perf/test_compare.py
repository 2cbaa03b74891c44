"""Tests of the CI perf gate (``compare.py``) at its default thresholds."""

from __future__ import annotations

import json

import pytest

from compare import main

#: Stage throughputs of the baseline; every test's current run starts equal.
BASE = {"ppo_update": 100.0, "tuning_round": 40.0}


def _stage(throughput):
    return {} if throughput is None else {"throughput": throughput, "unit": "items/s"}


def _report(stages, overhead=0.0, schema_version=1):
    report = {
        "schema_version": schema_version,
        "stages": {name: _stage(value) for name, value in stages.items()},
    }
    if overhead is not None:
        report["obs_overhead"] = {"overhead_frac": overhead}
    return report


def _gate(tmp_path, current, baseline=None):
    """Exit code of ``compare.py current baseline`` with default options."""
    paths = []
    for name, report in (("current", current), ("baseline", baseline or _report(BASE))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        paths.append(str(path))
    return main(paths)


def test_equal_run_passes(tmp_path):
    assert _gate(tmp_path, _report(BASE)) == 0


def test_stage_below_the_floor_fails_and_at_the_floor_passes(tmp_path):
    # The default allows a 25% loss: the floor is 75% of the baseline.
    assert _gate(tmp_path, _report({**BASE, "ppo_update": 75.0})) == 0
    assert _gate(tmp_path, _report({**BASE, "ppo_update": 74.99})) == 1
    assert _gate(tmp_path, _report({**BASE, "tuning_round": 29.99})) == 1


def test_missing_stage_fails(tmp_path):
    assert _gate(tmp_path, _report({"tuning_round": 40.0})) == 1


def test_missing_throughput_fails(tmp_path):
    assert _gate(tmp_path, _report({**BASE, "ppo_update": None})) == 1


def test_schema_version_mismatch_fails(tmp_path):
    assert _gate(tmp_path, _report(BASE, schema_version=2)) == 1


@pytest.mark.parametrize("overhead, code", [(None, 1), (0.0201, 1), (0.02, 0), (-0.05, 0)])
def test_obs_overhead_ceiling(tmp_path, overhead, code):
    """A missing overhead reading fails, as does one above the 2% ceiling."""
    assert _gate(tmp_path, _report(BASE, overhead=overhead)) == code
