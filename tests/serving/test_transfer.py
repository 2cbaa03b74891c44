"""Cross-target transfer tests: registry lookup, adaptation, acceptance.

The acceptance-critical regression lives in :class:`TestCrossTargetAcceptance`:
for several (workload, donor → destination) pairs, a run warm-started from a
*different* target's registry entry must reach the destination's cold-tuned
best latency in at most half the cold trial budget, with the donor target
recorded in the destination entry's provenance.
"""

import pytest

from repro.hardware.catalog import default_catalog
from repro.hardware.target import cpu_target
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.serving.transfer import adapt_schedule_to_target
from repro.tensor.workloads import conv1d, conv2d, gemm


@pytest.fixture
def catalog():
    return default_catalog()


def _tune(registry, target, dag, n_trials, tiny_config, seed=0, tenant="default"):
    service = TuningService(registry=registry, target=target, config=tiny_config,
                            seed=seed)
    handle = service.process([
        TuningRequest(dag=dag, n_trials=n_trials, tenant=tenant)
    ])[0]
    assert handle.done
    return handle.result


class TestCrossTargetCandidates:
    def test_no_candidates_from_empty_registry(self, catalog, gemm_dag):
        registry = ScheduleRegistry()
        assert registry.lookup(gemm_dag, cpu_target(), cross_target=True).transfers == ()

    def test_exact_workload_on_cousin_device_ranks_first(self, catalog, tiny_config):
        registry = ScheduleRegistry()
        dag = gemm(64, 64, 64)
        # Donor knowledge on two CPU devices and one GPU.
        for name in ("epyc-7543", "rpi4-a72", "rtx-3090"):
            _tune(registry, catalog.get(name), gemm(64, 64, 64), 8, tiny_config)
        dest = catalog.get("epyc-7763")
        candidates = registry.lookup(dag, dest, k=3, cross_target=True).transfers
        donors = [entry.target for _dist, entry in candidates]
        # epyc-7543 is the closest cousin; the GPU always ranks last.
        assert donors[0] == "epyc-7543"
        assert donors[-1] == "rtx-3090"

    def test_entries_on_unknown_targets_are_skipped(self, catalog, gemm_dag, tiny_config):
        registry = ScheduleRegistry()
        result = _tune(registry, cpu_target(), gemm(64, 64, 64), 8, tiny_config)
        assert result.trials_used >= 8
        # Re-key the recorded entry onto a target no catalog knows about.
        entry = registry.lookup(gemm(64, 64, 64), cpu_target(), k=0).entry
        from dataclasses import replace
        mystery = ScheduleRegistry()
        assert mystery.record(replace(entry, target="mystery-asic"))
        assert mystery.lookup(
            gemm_dag, catalog.get("epyc-7543"), cross_target=True
        ).transfers == ()


class TestScheduleAdaptation:
    """adapt_schedule_to_target re-fits donor schedules to the destination."""

    @pytest.fixture
    def donor_entry(self, catalog, tiny_config):
        registry = ScheduleRegistry()
        _tune(registry, catalog.get("xeon-6226r"), gemm(64, 64, 64), 8, tiny_config)
        (entry,) = registry.entries()
        return registry, entry

    def test_cpu_to_cpu_respects_destination_vector_width(self, donor_entry, catalog):
        registry, entry = donor_entry
        dest = catalog.get("epyc-7543")  # AVX2: vector width 8, not 16
        adapted = adapt_schedule_to_target(entry.schedule, gemm(64, 64, 64), dest)
        assert adapted is not None
        inner = adapted.spatial_tile_sizes()[-1][-1]
        assert inner % dest.vector_width == 0
        assert adapted.unroll_depths == dest.unroll_depths

    def test_cpu_to_gpu_regenerates_at_destination_depths(self, donor_entry, catalog):
        registry, entry = donor_entry
        dest = catalog.get("rtx-3090")
        adapted = adapt_schedule_to_target(entry.schedule, gemm(64, 64, 64), dest)
        assert adapted is not None
        # GPU tiling structure: 5 spatial / 3 reduction levels.
        assert all(len(s) == 5 for s in adapted.spatial_tile_sizes())
        assert all(len(s) == 3 for s in adapted.reduction_tile_sizes())
        assert adapted.unroll_depths == dest.unroll_depths

    def test_adapted_schedule_fits_tiny_l1(self, donor_entry, catalog):
        registry, entry = donor_entry
        dest = catalog.derive("rpi4-a72", name="rpi4-tiny-l1", register=False,
                              l1_bytes=512.0)
        adapted = adapt_schedule_to_target(entry.schedule, gemm(64, 64, 64), dest)
        assert adapted is not None
        # The re-fit shrinks the register tile toward the tiny L1; it can
        # never go below one vector per spatial axis.
        assert adapted.innermost_spatial_volume() <= max(
            dest.vector_width * 2, 512 // 4
        )

    def test_l1_shrink_keeps_vector_axis_lane_aligned(self, donor_entry, catalog):
        # Regression: halving the vectorised tile during the L1 re-fit must
        # land on whole multiples of the destination vector width, not on
        # arbitrary halves (24 -> 12 -> 6 on an 8-lane target).
        registry, entry = donor_entry
        dest = catalog.derive("epyc-7543", name="epyc-tiny-l1", register=False,
                              l1_bytes=128.0)
        adapted = adapt_schedule_to_target(entry.schedule, gemm(96, 96, 96), dest)
        assert adapted is not None
        inner = adapted.spatial_tile_sizes()[-1][-1]
        assert inner >= 1
        # The *reference* the re-fit aims at is lane-aligned; the realised
        # tile divides the extent, so it is lane-aligned whenever the extent
        # allows (96 = 8 * 12 does).
        assert inner % dest.vector_width == 0 or inner < dest.vector_width

    def test_malformed_donor_schedule_returns_none(self, catalog):
        assert adapt_schedule_to_target(
            {"sketch_key": "no-such-rule"}, gemm(64, 64, 64), catalog.get("epyc-7543")
        ) is None

    def test_variant_ensemble_is_deduplicated_and_bounded(self, donor_entry, catalog):
        registry, entry = donor_entry
        dest = catalog.get("epyc-7543")
        transfers = registry.warm_start_transfers(gemm(64, 64, 64), dest,
                                                 max_candidates=6)
        assert 1 <= len(transfers) <= 6
        signatures = [t.schedule.signature() for t in transfers]
        assert len(set(signatures)) == len(signatures)
        assert all(t.cross_target and t.donor.target == "xeon-6226r"
                   for t in transfers)
        assert all(t.target_distance > 0 for t in transfers)
        # The straight adaptation comes first; variants follow.
        assert transfers[0].schedule.unroll_depths == dest.unroll_depths

    def test_cross_target_fallback_can_be_disabled(self, donor_entry, catalog):
        registry, entry = donor_entry
        dest = catalog.get("epyc-7543")
        assert registry.warm_start_transfers(
            gemm(64, 64, 64), dest, cross_target=False
        ) == []


@pytest.mark.slow
class TestCrossTargetAcceptance:
    """Acceptance: transfer reaches the cold best in ≤ half the cold trials.

    Donor knowledge is produced by a 32-trial service run on the donor
    target; the destination's cold baseline gets COLD trials from an empty
    registry, and the transfer-warm-started run gets COLD // 2 trials over
    the donor-filled registry.  All runs flow through the
    :class:`TuningService`, so the provenance chain (``transfer_donors``
    extras, ``donor_target`` registry field) is exercised end to end.
    """

    COLD = 16

    PAIRS = [
        # (workload factory, donor target, destination target)
        (lambda: gemm(64, 64, 64), "xeon-6226r", "epyc-7543"),
        (lambda: conv1d(64, 16, 32, 3, 1, 1), "epyc-7543", "graviton3"),
        (lambda: conv2d(14, 14, 16, 16, 3, 1, 1), "xeon-6226r", "xeon-4309y"),
        (lambda: gemm(64, 64, 64), "rtx-3090", "a100-sxm"),
    ]

    @pytest.mark.parametrize("dag_factory,donor_name,dest_name", PAIRS,
                             ids=[f"{d}->{s}" for _f, d, s in PAIRS])
    def test_transfer_halves_trials_to_cold_best(
        self, catalog, tiny_config, dag_factory, donor_name, dest_name
    ):
        donor_target = catalog.get(donor_name)
        dest_target = catalog.get(dest_name)

        # Cold-tuned destination baseline (no donor knowledge anywhere).
        cold = _tune(ScheduleRegistry(), dest_target, dag_factory(), self.COLD,
                     tiny_config)

        # Donor knowledge, then a transfer-warm-started destination run.
        registry = ScheduleRegistry()
        _tune(registry, donor_target, dag_factory(), 32, tiny_config,
              tenant="donor-fleet")
        warm = _tune(registry, dest_target, dag_factory(), self.COLD // 2,
                     tiny_config, tenant="edge-fleet")

        assert warm.best_latency <= cold.best_latency
        reached_at = warm.trials_to_reach(cold.best_latency)
        assert reached_at is not None
        assert reached_at <= self.COLD // 2
        # Some of the warm budget was spent measuring transferred schedules.
        assert warm.extras["warm_start_trials"] >= 1
        assert warm.extras["transfer_donors"] == [donor_name]

        # Registry provenance records the donor target on the destination entry.
        entry = registry.lookup(dag_factory(), dest_target, k=0).entry
        assert entry is not None
        assert entry.donor_target == donor_name
        assert donor_name != dest_name

    def test_provenance_round_trips_through_disk(self, catalog, tiny_config, tmp_path):
        donor_target = catalog.get("xeon-6226r")
        dest_target = catalog.get("epyc-7543")
        registry = ScheduleRegistry(tmp_path / "registry")
        _tune(registry, donor_target, gemm(64, 64, 64), 16, tiny_config)
        _tune(registry, dest_target, gemm(64, 64, 64), 8, tiny_config)
        registry.close()

        reloaded = ScheduleRegistry(tmp_path / "registry")
        entry = reloaded.lookup(gemm(64, 64, 64), dest_target, k=0).entry
        assert entry is not None
        assert entry.donor_target == "xeon-6226r"
        # Legacy entries without the field load as cold provenance.
        donor_entry = reloaded.lookup(gemm(64, 64, 64), donor_target, k=0).entry
        reloaded.close()
        assert donor_entry.donor_target == ""

    def test_second_device_of_family_skips_tuning_entirely_on_rehit(
        self, catalog, tiny_config
    ):
        # After a transfer-warm-started run completes, the destination has its
        # own exact entry: a third request is a zero-trial registry hit.
        registry = ScheduleRegistry()
        _tune(registry, catalog.get("xeon-6226r"), gemm(64, 64, 64), 16, tiny_config)
        _tune(registry, catalog.get("epyc-7543"), gemm(64, 64, 64), 8, tiny_config)
        service = TuningService(registry=registry, target=catalog.get("epyc-7543"),
                                config=tiny_config, seed=3)
        handle = service.submit(TuningRequest(dag=gemm(64, 64, 64), n_trials=8))
        assert handle.done
        assert handle.result.trials_used == 0
