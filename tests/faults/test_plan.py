"""Unit tests for the fault-plan harness itself.

The gate's value rests on the harness being deterministic and precise: a
spec fires exactly where its window says, torn cuts replay for a fixed seed,
and arming is exclusive.  These tests pin that contract.
"""

import pytest

from repro.faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
    inject,
    poll,
)


class TestFaultSpecValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("registry.nope", "crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("registry.append", "meteor_strike")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("registry.append", "crash", at=-1)
        with pytest.raises(ValueError):
            FaultSpec("registry.append", "crash", times=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("records.flush", "torn_write", fraction=1.0)


class TestArrivalWindows:
    def test_fires_only_inside_at_times_window(self):
        plan = FaultPlan([FaultSpec("registry.append", "crash", at=2, times=2)])
        fired = [plan.poll("registry.append") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_match_filters_arrival_counting(self):
        plan = FaultPlan(
            [FaultSpec("registry.append", "crash", at=1, match="shard-1")]
        )
        # Non-matching arrivals must not advance the window.
        assert plan.poll("registry.append", "shard-0") is None
        assert plan.poll("registry.append", "shard-1") is None  # arrival 0
        assert plan.poll("registry.append", "shard-0") is None
        assert plan.poll("registry.append", "shard-1") is not None  # arrival 1

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            [
                FaultSpec("records.flush", "enospc"),
                FaultSpec("records.flush", "slow_disk"),
            ]
        )
        first = plan.poll("records.flush")
        assert first is not None and first.spec.kind == "enospc"
        # The winner consumed its window; the second spec never saw arrival 0,
        # so it fires on what is *its own* matching arrival 0.
        second = plan.poll("records.flush")
        assert second is not None and second.spec.kind == "slow_disk"

    def test_fired_log_records_injections(self):
        plan = FaultPlan.single("service.advance", "crash")
        plan.poll("service.advance", "abcdef")
        assert plan.fired == [("service.advance", "crash", "abcdef")]


class TestTornPrefix:
    def test_strict_prefix_always_loses_bytes(self):
        plan = FaultPlan.single("registry.append", "torn_write", seed=7)
        fired = plan.poll("registry.append")
        line = '{"key": "value", "n": 123}\n'
        torn = fired.torn_prefix(line)
        assert line.startswith(torn)
        assert 1 <= len(torn) < len(line)

    def test_seeded_cut_is_reproducible(self):
        def cut(seed):
            plan = FaultPlan.single("registry.append", "torn_write", seed=seed)
            return plan.poll("registry.append").torn_prefix("x" * 64)

        assert cut(3) == cut(3)
        assert any(cut(3) != cut(other) for other in (4, 5, 6))

    def test_fraction_overrides_rng(self):
        plan = FaultPlan([FaultSpec("registry.append", "torn_write", fraction=0.5)])
        fired = plan.poll("registry.append")
        assert fired.torn_prefix("x" * 10) == "x" * 5


class TestActivation:
    def test_poll_is_noop_when_unarmed(self):
        assert poll("registry.append", "anything") is None

    def test_unknown_point_rejected_when_armed(self):
        with inject(FaultPlan()):
            with pytest.raises(ValueError, match="unknown fault point"):
                poll("not.a.point")

    def test_plans_do_not_nest(self):
        with inject(FaultPlan()):
            with pytest.raises(RuntimeError, match="already active"):
                with inject(FaultPlan()):
                    pass

    def test_plan_disarms_on_exit_even_after_error(self):
        with pytest.raises(KeyError):
            with inject(FaultPlan.single("registry.append", "crash")):
                raise KeyError("boom")
        assert poll("registry.append") is None

    def test_every_documented_point_accepts_every_kind(self):
        for point in FAULT_POINTS:
            FaultSpec(point, "crash")  # constructing must not raise
