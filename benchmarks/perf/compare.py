#!/usr/bin/env python
"""Compare a fresh ``BENCH_perf.json`` against the checked-in perf baseline.

Used by the CI ``perf`` job: after ``make perf`` emits ``BENCH_perf.json``,
this script fails (exit 1) when any stage's throughput regressed by more than
``--max-regression`` (default 25%) relative to
``benchmarks/perf/baseline.json``, or when a baseline stage disappeared.

The machine-independent speedup floor (vectorised feature extraction vs. a
harness-local scalar loop) is enforced separately by ``run.py --check``, and
the registry-scale floors by ``scale.py --check``; this gate covers absolute
throughput drift.  It also enforces the observability-layer
contract: the harness's ``obs_overhead`` measurement (tuning stage traced
vs. untraced, both timed on this machine in this run) must stay within
``--max-obs-overhead`` (default 2%).  To refresh the baseline after an
intentional change, run ``make perf`` and copy the new ``BENCH_perf.json``
over ``benchmarks/perf/baseline.json`` (see ``docs/architecture.md``,
"Performance & benchmarking").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"missing benchmark file: {path}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed benchmark file {path}: {exc}") from exc


def compare(current: dict, baseline: dict, max_regression: float) -> List[str]:
    """Human-readable failure list (empty when the gate passes)."""
    failures: List[str] = []
    if current.get("schema_version") != baseline.get("schema_version"):
        failures.append(
            f"schema_version mismatch: current {current.get('schema_version')} "
            f"vs baseline {baseline.get('schema_version')} — refresh the baseline"
        )
        return failures

    floor = 1.0 - max_regression
    for name, base_stage in baseline.get("stages", {}).items():
        stage = current.get("stages", {}).get(name)
        if stage is None:
            failures.append(f"stage {name!r} missing from current run")
            continue
        base_value = base_stage.get("throughput")
        value = stage.get("throughput")
        if base_value is None:
            continue
        if value is None:
            failures.append(f"{name}: throughput missing from current run")
        elif value < base_value * floor:
            failures.append(
                f"{name}: throughput regressed {1 - value / base_value:.1%} "
                f"({value:.1f} vs baseline {base_value:.1f}, "
                f"allowed {max_regression:.0%})"
            )
    return failures


def check_obs_overhead(current: dict, max_overhead: float) -> List[str]:
    """Failures of the instrumentation-overhead contract (empty when green).

    ``obs_overhead`` is machine-independent (both sides of the ratio are
    timed in the same run), so it is checked against a fixed ceiling rather
    than against the baseline file.  Missing data fails: a harness that
    stopped measuring the overhead must not silently pass the gate.
    """
    overhead = current.get("obs_overhead", {}).get("overhead_frac")
    if overhead is None:
        return ["obs_overhead missing from current run — harness regressed"]
    if overhead > max_overhead:
        return [
            f"instrumentation overhead {overhead:.2%} exceeds the "
            f"{max_overhead:.0%} ceiling on the tuning stage"
        ]
    return []


def print_table(current: dict, baseline: dict) -> None:
    print(f"{'stage':<22} {'current':>14} {'baseline':>14} {'ratio':>8}  unit")
    for name, base_stage in baseline.get("stages", {}).items():
        stage = current.get("stages", {}).get(name, {})
        value = stage.get("throughput")
        base_value = base_stage.get("throughput")
        if value is None or not base_value:
            continue
        print(
            f"{name:<22} {value:>14.1f} {base_value:>14.1f} "
            f"{value / base_value:>7.2f}x  {base_stage.get('unit', '')}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="fresh BENCH_perf.json")
    parser.add_argument(
        "baseline",
        type=Path,
        nargs="?",
        default=Path(__file__).with_name("baseline.json"),
        help="checked-in baseline (default: benchmarks/perf/baseline.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional throughput loss per stage (default 0.25)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.02,
        help="allowed fractional slowdown of the tuning stage with "
        "instrumentation armed (default 0.02)",
    )
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)
    print_table(current, baseline)
    overhead = current.get("obs_overhead", {}).get("overhead_frac")
    if overhead is not None:
        print(f"\ninstrumentation overhead: {overhead:+.2%} "
              f"(ceiling {args.max_obs_overhead:.0%})")
    failures = compare(current, baseline, args.max_regression)
    failures += check_obs_overhead(current, args.max_obs_overhead)
    if failures:
        print()
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed (threshold {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
