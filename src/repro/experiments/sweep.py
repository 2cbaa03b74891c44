"""Fleet sweep: tune a workload suite across a catalog of hardware targets.

:func:`sweep_targets` drives one :class:`~repro.serving.service.TuningService`
per target over a shared :class:`~repro.serving.registry.ScheduleRegistry`, so
every target tuned after the first is warm-started from its closest relatives
— same-target structural neighbours and, crucially, **cross-target donors**:
the second device of a family typically reaches the first device's schedule
quality in a fraction of the cold trial budget.

The result is a :class:`SweepReport` with one cell per (workload, target):
best latency, achieved throughput, the analytic **roofline bound**
(``min(peak FLOP/s, arithmetic intensity × DRAM bandwidth)``), the fraction
of that bound achieved, and the transfer provenance (which donor targets
seeded the run).  Reports render as aligned text tables (``repro sweep``) and
persist to CSV for offline analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import HARLConfig
from repro.experiments.network_runner import NetworkTuner, NetworkTuningReport
from repro.experiments.reporting import format_table, write_csv
from repro.hardware.catalog import TargetCatalog, default_catalog
from repro.hardware.target import HardwareTarget
from repro.networks.graph import NetworkGraph
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.dag import ComputeDAG

__all__ = [
    "NetworkSweepCell",
    "NetworkSweepReport",
    "SweepCell",
    "SweepReport",
    "roofline_flops",
    "sweep_networks",
    "sweep_targets",
]


def roofline_flops(dag: ComputeDAG, target: HardwareTarget) -> float:
    """Roofline performance bound of a workload on a target (FLOP/s).

    The classic two-ceiling model: compute-bound workloads cap at the
    device's peak FLOP/s, memory-bound ones at arithmetic intensity times
    DRAM bandwidth.
    """
    return float(
        min(target.peak_flops, dag.arithmetic_intensity() * target.dram_bandwidth)
    )


@dataclass(frozen=True)
class SweepCell:
    """Outcome of tuning one workload on one target."""

    workload: str
    target: str
    latency: float
    throughput: float
    trials: int
    source: str                  # scheduled / registry-hit / coalesced
    roofline: float              # FLOP/s bound of (workload, target)
    transfer_donors: Tuple[str, ...] = ()

    @property
    def roofline_fraction(self) -> float:
        """Fraction of the roofline bound the tuned schedule achieves."""
        return self.throughput / self.roofline if self.roofline > 0 else 0.0


@dataclass
class SweepReport:
    """Cross-target latency / roofline report of one fleet sweep."""

    cells: List[SweepCell] = field(default_factory=list)

    HEADERS = (
        "workload", "target", "best latency (ms)", "TFLOP/s",
        "roofline TFLOP/s", "% roofline", "trials", "source", "warm-started from",
    )

    def rows(self) -> List[List[object]]:
        return [
            [
                cell.workload,
                cell.target,
                cell.latency * 1e3,
                cell.throughput / 1e12,
                cell.roofline / 1e12,
                100.0 * cell.roofline_fraction,
                cell.trials,
                cell.source,
                ",".join(cell.transfer_donors) or "-",
            ]
            for cell in self.cells
        ]

    def format(self, title: str = "cross-target sweep") -> str:
        return format_table(list(self.HEADERS), self.rows(), title=title)

    def write_csv(self, path: Union[str, Path]) -> Path:
        return write_csv(path, list(self.HEADERS), self.rows())

    def cell(self, workload: str, target: str) -> SweepCell:
        for cell in self.cells:
            if cell.workload == workload and cell.target == target:
                return cell
        raise KeyError((workload, target))

    def targets(self) -> List[str]:
        return sorted({cell.target for cell in self.cells})

    def workloads(self) -> List[str]:
        return sorted({cell.workload for cell in self.cells})

    def transfer_cells(self) -> List[SweepCell]:
        """Cells whose tuning run was warm-started from another target."""
        return [cell for cell in self.cells if cell.transfer_donors]


def sweep_targets(
    dags: Sequence[ComputeDAG],
    targets: Sequence[Union[str, HardwareTarget]],
    n_trials: int = 32,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    scheduler: str = "harl",
    registry: Optional[ScheduleRegistry] = None,
    catalog: Optional[TargetCatalog] = None,
    record_store=None,
) -> SweepReport:
    """Tune every workload on every target, reusing knowledge across targets.

    Targets are processed in the given order over one shared registry, so
    later targets warm-start from earlier ones (the per-cell
    ``transfer_donors`` column shows which donor seeded each run).  Target
    names are resolved through ``catalog`` (the built-in catalog when
    ``None``); :class:`HardwareTarget` instances are used as-is, so derived
    synthetic variants sweep like any preset.
    """
    if not dags:
        raise ValueError("sweep needs at least one workload")
    if not targets:
        raise ValueError("sweep needs at least one target")
    catalog = catalog if catalog is not None else default_catalog()
    registry = registry if registry is not None else ScheduleRegistry()
    resolved = [
        t if isinstance(t, HardwareTarget) else catalog.get(t) for t in targets
    ]
    report = SweepReport()
    for target in resolved:
        service = TuningService(
            registry=registry,
            target=target,
            config=config,
            seed=seed,
            record_store=record_store,
            catalog=catalog,
        )
        handles = service.process(
            [
                TuningRequest(dag=dag, n_trials=n_trials, scheduler=scheduler)
                for dag in dags
            ]
        )
        for dag, handle in zip(dags, handles):
            result = handle.result
            report.cells.append(
                SweepCell(
                    workload=dag.name,
                    target=target.name,
                    latency=float(result.best_latency),
                    throughput=float(result.best_throughput),
                    trials=int(result.trials_used),
                    source=handle.source,
                    roofline=roofline_flops(dag, target),
                    transfer_donors=tuple(result.extras.get("transfer_donors", ())),
                )
            )
    return report


# --------------------------------------------------------------------------- #
# end-to-end network sweeps
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NetworkSweepCell:
    """Outcome of tuning one network end to end on one target."""

    network: str
    target: str
    latency: float               #: final end-to-end f(S)
    trials: int
    tasks: int
    registry_hits: int           #: tasks answered in O(1) from the registry
    warm_started: int            #: tasks seeded from registered donors
    policy: str


@dataclass
class NetworkSweepReport:
    """Cross-target end-to-end latency report of one network fleet sweep.

    ``reports`` keeps the full per-run :class:`NetworkTuningReport` (indexed
    like ``cells``) for drill-down into trajectories and per-task tables.
    """

    cells: List[NetworkSweepCell] = field(default_factory=list)
    reports: List[NetworkTuningReport] = field(default_factory=list)

    HEADERS = (
        "network", "target", "f(S) (ms)", "trials", "tasks",
        "registry hits", "warm-started", "policy",
    )

    def rows(self) -> List[List[object]]:
        return [
            [
                cell.network,
                cell.target,
                cell.latency * 1e3,
                cell.trials,
                cell.tasks,
                cell.registry_hits,
                cell.warm_started,
                cell.policy,
            ]
            for cell in self.cells
        ]

    def format(self, title: str = "network fleet sweep") -> str:
        return format_table(list(self.HEADERS), self.rows(), title=title)

    def write_csv(self, path: Union[str, Path]) -> Path:
        return write_csv(path, list(self.HEADERS), self.rows())

    def cell(self, network: str, target: str) -> NetworkSweepCell:
        for cell in self.cells:
            if cell.network == network and cell.target == target:
                return cell
        raise KeyError((network, target))

    def report(self, network: str, target: str) -> NetworkTuningReport:
        for report in self.reports:
            if report.network == network and report.target == target:
                return report
        raise KeyError((network, target))

    def reused_cells(self) -> List[NetworkSweepCell]:
        """Cells that reused registry knowledge (hits or warm starts)."""
        return [
            cell for cell in self.cells if cell.registry_hits or cell.warm_started
        ]


def sweep_networks(
    networks: Sequence[Union[str, NetworkGraph]],
    targets: Sequence[Union[str, HardwareTarget]],
    n_trials: int = 64,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    scheduler: str = "harl",
    policy: str = "bandit",
    registry: Optional[ScheduleRegistry] = None,
    catalog: Optional[TargetCatalog] = None,
    record_store=None,
    batch_size: int = 1,
) -> NetworkSweepReport:
    """Tune every network end to end on every target over one registry.

    One :class:`~repro.serving.service.TuningService` is created per target
    and *shared by all networks on that target*, so the second network
    warm-starts from the first's registered subgraphs (cross-network reuse)
    and later targets borrow re-fitted schedules from earlier ones
    (cross-target transfer).  ``n_trials`` is the per-network measurement
    budget; registry-answered tasks consume none of it.

    Network names (``"bert"`` / ``"resnet50"`` / ``"mobilenet_v2"``) are
    built at ``batch_size``; :class:`~repro.networks.graph.NetworkGraph`
    instances sweep as-is.
    """
    from repro.experiments.cache import build_network  # local: cache imports runner

    if not networks:
        raise ValueError("network sweep needs at least one network")
    if not targets:
        raise ValueError("network sweep needs at least one target")
    catalog = catalog if catalog is not None else default_catalog()
    registry = registry if registry is not None else ScheduleRegistry()
    resolved_targets = [
        t if isinstance(t, HardwareTarget) else catalog.get(t) for t in targets
    ]
    resolved_networks = [
        n if isinstance(n, NetworkGraph) else build_network(n, batch_size=batch_size)
        for n in networks
    ]
    report = NetworkSweepReport()
    for target in resolved_targets:
        service = TuningService(
            registry=registry,
            target=target,
            config=config,
            seed=seed,
            record_store=record_store,
            catalog=catalog,
        )
        for network in resolved_networks:
            run = NetworkTuner(
                network, service, policy=policy, scheduler=scheduler
            ).tune(n_trials)
            report.reports.append(run)
            report.cells.append(
                NetworkSweepCell(
                    network=network.name,
                    target=target.name,
                    latency=run.final_latency,
                    trials=run.trials_used,
                    tasks=len(run.tasks),
                    registry_hits=run.registry_hits,
                    warm_started=run.warm_started_tasks,
                    policy=run.policy,
                )
            )
    return report
