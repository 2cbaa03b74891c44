"""Experiment harness: metrics, workload suites, runners and reporting.

These utilities regenerate the evaluation-section figures and tables of the
paper; the benchmark files under ``benchmarks/`` are thin wrappers around the
runners defined here.
"""

from repro.experiments.metrics import (
    normalized_performance,
    normalized_search_time,
    speedup,
)
from repro.experiments.operator_suite import OPERATOR_SUITE, operator_dags
from repro.experiments.runner import (
    OperatorComparison,
    compare_on_operator,
    compare_on_network,
)
from repro.experiments.network_runner import (
    NetworkTuner,
    NetworkTuningReport,
    TaskReport,
)
from repro.experiments.reporting import format_table, write_csv
from repro.experiments.sweep import (
    NetworkSweepCell,
    NetworkSweepReport,
    SweepCell,
    SweepReport,
    roofline_flops,
    sweep_networks,
    sweep_targets,
)

__all__ = [
    "NetworkSweepCell",
    "NetworkSweepReport",
    "NetworkTuner",
    "NetworkTuningReport",
    "OPERATOR_SUITE",
    "OperatorComparison",
    "SweepCell",
    "SweepReport",
    "TaskReport",
    "compare_on_network",
    "compare_on_operator",
    "format_table",
    "normalized_performance",
    "normalized_search_time",
    "operator_dags",
    "roofline_flops",
    "speedup",
    "sweep_networks",
    "sweep_targets",
    "write_csv",
]
