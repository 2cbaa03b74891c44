#!/usr/bin/env python3
"""End-to-end tuning + serving benchmark with per-layer attribution.

One workload, one run (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/bench.py --workload op-gemm-m --seed 1 --seconds 27 --trace 0

prints a detail line and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` re-runs unit 0 with every
layer entry point wrapped (see ``spans.py``) and reports per-layer metrics.

Every workload, both trace modes, each in its own process::

    python3 benchmarks/e2e/bench.py --seed 1 --output benchmarks/e2e/out/BENCH_e2e.json

and the comparison of two such files against the bounds of
``BENCHMARK.json``::

    python3 benchmarks/e2e/bench.py --compare A.json B.json

The process pins OpenBLAS/OpenMP/MKL to one thread before NumPy loads: an
unpinned OpenBLAS spins a second thread that doubles CPU time for no wall
gain and makes repeated medians drift apart.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Setup probes (fresh processes) per untraced run; ``setup_s`` is their median.
PROBES = 5

#: Suffix of the batch metric of layers that carry one (default ``rows``).
BATCH_SUFFIX = {"hardware.measure": "trials"}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``values`` need not be sorted)."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def _tail(values: List[float]) -> Dict[str, float]:
    """Median and the highest of p90/p95/p98/p99 with >= 10 samples beyond it."""
    tail = {"n": len(values), "p50_ms": _percentile(values, 50) * 1e3} if values else {"n": 0}
    for q in (99, 98, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            tail[f"p{q}_ms"] = _percentile(values, q) * 1e3
            break
    return tail


def _spread(values: List[float]) -> float:
    """Interquartile range over the median (inclusive quartiles: with a
    handful of samples the exclusive method extrapolates past the data)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------- #
# one run of one workload
# --------------------------------------------------------------------- #
def _setup_probes(name: str, seed: int, count: int) -> List[float]:
    """Set-up seconds of ``count`` fresh processes (import, inputs, readiness)."""
    values = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(out.stdout.split()[-1]))
    return values


def _units(workload, deadline: float, minimum: int, window=contextlib.nullcontext) -> list:
    """At least ``minimum`` units, then more while the next one, taking as
    long as the last, would end by ``deadline`` (``time.perf_counter``)."""
    units, cost = [], 0.0
    while len(units) < minimum or time.perf_counter() + cost <= deadline:
        began = time.perf_counter()
        units.append(workload.unit(len(units), window))
        cost = time.perf_counter() - began
    return units


def _tally(units) -> Tuple[int, int, List[str]]:
    violations = [v for unit in units for v in unit.violations]
    return sum(u.attempted for u in units), sum(u.failed for u in units), violations


def _untraced(workload, deadline: float, probes: List[float], warmup_s: float):
    units = _units(workload, deadline, workload.min_units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Per-metric samples the run's values are medians of; ``--compare``
    # takes their spread.
    samples = {
        "setup_s": probes,
        "trials_per_s": [u.trials / u.wall for u in units],
        "tune_p50_ms": [statistics.median(u.tunes) * 1e3 for u in units],
        "peak_rss_mb": [rss_mb],
    }
    tunes = [lat for u in units for lat in u.tunes]
    metrics = {
        "setup_s": _metric(statistics.median(probes), "s"),
        "trials_per_s": _metric(statistics.median(samples["trials_per_s"]), "1/s"),
        "tune_p50_ms": _metric(statistics.median(tunes) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {
        "units": [[u.wall, u.trials, len(u.tunes), u.quality] for u in units],
        "quality_s": [u.quality for u in units if u.quality is not None],
        "samples": samples,
        "warmup_s": warmup_s,
    }
    if "hits" in units[0].info:
        detail["serve"] = _serve_detail(units)
    return units, metrics, detail


def _serve_detail(units) -> Dict[str, object]:
    """Hit/miss latency split of a serving run (pooled over its passes)."""
    hits = [lat for u in units for lat in u.info["hits"]]
    misses = [lat for u in units for lat in u.info["misses"]]
    gflops = [g for u in units for g in u.info["gflops"]]
    return {
        "hit_ratio": len(hits) / (len(hits) + len(misses)),
        "hit": _tail(hits),
        "miss": _tail(misses),
        "tuned_gflops_geomean": _geomean(gflops),
    }


class _Window:
    """Traced window around each unit's work: patches + counter deltas."""

    def __init__(self, recorder, root: bool):
        self.recorder, self.root = recorder, root
        self.wall = self.cpu = 0.0
        self.deltas: Dict[str, float] = {}

    @staticmethod
    def _counters() -> Dict[str, float]:
        from repro.caching import cache_stats
        from repro.obs import default_registry

        registry = default_registry()
        values = {
            "registry.hits": registry.get("registry.hits").value,
            "registry.total": registry.get("registry.lookups").value,
        }
        stats = cache_stats()
        for cache in ("sketches", "fingerprint"):
            values[f"{cache}.hits"] = stats[cache]["hits"]
            values[f"{cache}.total"] = stats[cache]["hits"] + stats[cache]["misses"]
        return values

    @contextlib.contextmanager
    def __call__(self):
        from spans import patched

        before = self._counters()
        wall, cpu = time.perf_counter(), time.process_time()
        with patched(self.recorder):
            if self.root:
                with self.recorder.span("bench.unit"):
                    yield
            else:
                yield
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu
        for key, value in self._counters().items():
            self.deltas[key] = self.deltas.get(key, 0.0) + value - before[key]

    def hit_ratio(self, name: str) -> float:
        total = self.deltas[f"{name}.total"]
        return self.deltas[f"{name}.hits"] / total if total else 0.0


def _traced(workload, deadline: float, warmup_s: float, trace_out: Optional[Path]):
    from spans import BATCH_LAYERS, LAYER_NAMES, SpanRecorder

    reference = workload.unit(0)
    recorder = SpanRecorder()
    window = _Window(recorder, root=not workload.threaded)
    units = _units(workload, deadline, 1, window)
    if trace_out is not None:
        recorder.write(trace_out)

    if reference.quality is not None and units[0].quality != reference.quality:
        units[0].violations.append(
            f"traced f(S) {units[0].quality!r} != untraced {reference.quality!r}"
        )
    stats = recorder.stats()
    root_total, unattributed = recorder.root_time()
    zero = {"calls": 0, "self_s": 0.0, "rows": 0}
    metrics: Dict[str, Dict[str, object]] = {}
    for layer in LAYER_NAMES:
        stat = stats.get(layer, zero)
        metrics[f"{layer}.calls"] = _metric(stat["calls"], "count")
        metrics[f"{layer}.share"] = _metric(stat["self_s"] / root_total, "frac")
        if layer in BATCH_LAYERS:
            metrics[f"{layer}.{BATCH_SUFFIX.get(layer, 'rows')}"] = _metric(stat["rows"], "count")

    def count(layer: str, key: str) -> float:
        return stats.get(layer, zero)[key]

    measured = count("hardware.measure", "rows")
    visited = count("tensor.sampler.sample", "rows") + count("tensor.actions.apply", "calls")
    misses = [lat for u in units for lat in u.info.get("misses", [])]
    worker_s = sum(
        stats.get(name, {}).get("total_s", 0.0)
        for name in ("serving.service.submit", "serving.service.advance")
    )
    metrics.update({
        "serving.registry.hit_ratio": _metric(window.hit_ratio("registry"), "frac"),
        "serving.service.coalesced": _metric(sum(u.info.get("coalesced", 0) for u in units),
                                             "count"),
        "caching.sketches.hit_rate": _metric(window.hit_ratio("sketches"), "frac"),
        "caching.fingerprint.hit_rate": _metric(window.hit_ratio("fingerprint"), "frac"),
        "core.search.visited_per_trial": _metric(visited / measured if measured else 0.0,
                                                 "count"),
        "serving.server.wait_frac": _metric(
            1.0 - worker_s / sum(misses) if misses else 0.0, "frac"),
        "proc.cpu_per_wall": _metric(window.cpu / window.wall, "frac"),
        "trace.overhead_frac": _metric(units[0].wall / reference.wall - 1.0, "frac"),
        "trace.coverage": _metric(1.0 - unattributed / root_total, "frac"),
        "trace.root_s": _metric(root_total, "s"),
        "warmup_s": _metric(warmup_s, "s"),
    })
    detail = {
        "units": [[u.wall, u.trials, len(u.tunes), u.quality] for u in units],
        "reference_wall_s": reference.wall,
        "layers": stats,
    }
    return units, metrics, detail


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[Dict[str, int]] = None,
    probes: int = PROBES,
    trace_out: Optional[Path] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One run of one workload: ``(result, detail)`` as printed by the CLI.

    The run ends about ``seconds`` after the process started: the setup
    probes and the warm-up count against it, and no unit starts that would
    end past it, once the workload's ``min_units`` (traced: one) have run.
    """
    from workloads import WORKLOADS

    deadline = _T0 + seconds
    probe_values = [] if trace else _setup_probes(name, seed, probes)
    workload = WORKLOADS[name](seed, **(sizes or {}))
    try:
        workload.setup()
        began = time.perf_counter()
        workload.warmup()
        warmup_s = time.perf_counter() - began
        if trace:
            units, metrics, detail = _traced(workload, deadline, warmup_s, trace_out)
        else:
            units, metrics, detail = _untraced(workload, deadline, probe_values, warmup_s)
    finally:
        workload.close()
    attempted, failed, violations = _tally(units)
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "run_s": time.perf_counter() - _T0,
        "env": {key: os.environ.get(key, "") for key in BLAS_ENV},
        "violations": violations[:20],
    })
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


# --------------------------------------------------------------------- #
# every workload, and comparisons
# --------------------------------------------------------------------- #
def _load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def run_all(seed: int, output: Path) -> int:
    """Every workload in both trace modes, each in its own process."""
    spec = _load_spec()
    seconds = str(spec["run_seconds"])
    payload: Dict[str, object] = {
        "schema": "repro-e2e/1", "seed": seed, "seconds": spec["run_seconds"],
        "workloads": {},
    }
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = {}
        for trace in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", seconds, "--trace", trace]
            if trace == "1":
                argv += ["--trace-out", f"{output}.{name}.trace.json"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                status = 1
            if len(lines) >= 2:
                runs[f"trace{trace}"] = {
                    "result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"],
                }
        payload["workloads"][name] = runs
        print(f"{name}: done", file=sys.stderr)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}", file=sys.stderr)
    return status


def _verdict(change: float, bound: float, spread: float, separated: bool) -> str:
    """``unresolved`` when the samples spread wider than ``bound`` and the
    two sides' samples overlap; else ``ok`` when ``|change|`` (signed so
    that > 0 is worse) is within ``bound`` either way, else ``worse`` or
    ``better``."""
    if spread > bound and not separated:
        return "unresolved"
    if abs(change) <= bound:
        return "ok"
    return "worse" if change > 0 else "better"


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, metric): ``ok``, ``worse``, ``better`` or
    ``unresolved`` for B against A.  Exits 1 when a row is ``worse``; two
    sets agree when every row is ``ok``."""
    spec = _load_spec()
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    rows = [("workload", "metric", "A", "B", "change", "bound", "spread", "verdict")]
    for workload in spec["workloads"]:
        name = workload["name"]
        run_a = a["workloads"].get(name, {}).get("trace0")
        run_b = b["workloads"].get(name, {}).get("trace0")
        if run_a is None or run_b is None:
            rows.append((name, "*", "-", "-", "-", "-", "-", "missing"))
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va = run_a["result"]["metrics"][key]["value"]
            vb = run_b["result"]["metrics"][key]["value"]
            sign = -1.0 if metric["better"] == "higher" else 1.0
            sa, sb = run_a["detail"]["samples"][key], run_b["detail"]["samples"][key]
            spread = max(_spread(sa), _spread(sb))
            # Every sample of one side reads better than every sample of the other.
            separated = max(sb) < min(sa) or min(sb) > max(sa)
            verdict = _verdict(sign * (vb - va) / va, bound, spread, separated)
            rows.append((name, key, f"{va:.4g}", f"{vb:.4g}", f"{(vb - va) / va:+.1%}",
                         f"{bound:.0%}", f"{spread:.1%}", verdict))
        qa, qb = run_a["detail"]["quality_s"], run_b["detail"]["quality_s"]
        if qa and qb:
            # f(S) is deterministic per seed: same-seed files must match exactly.
            n = min(len(qa), len(qb))
            ga, gb = _geomean(qa[:n]), _geomean(qb[:n])
            if a["seed"] != b["seed"]:
                verdict = "unresolved"
            else:
                verdict = "ok" if qa[:n] == qb[:n] else "worse" if gb > ga else "better"
            rows.append((name, "f(S)_us", f"{ga * 1e6:.4g}", f"{gb * 1e6:.4g}",
                         f"{gb / ga - 1:+.1%}", "exact", "-", verdict))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    verdicts = [row[-1] for row in rows[1:]]
    off = {v: verdicts.count(v) for v in ("worse", "better", "unresolved", "missing")
           if v in verdicts}
    print("agree: every row ok" if not off else f"disagree: {off} of {len(verdicts)} rows")
    return 1 if "worse" in off else 0


def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0,
                        help="run length, counted from process start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="write the traced run's spans here")
    parser.add_argument("--output", type=Path, default=HERE / "out" / "BENCH_e2e.json",
                        help="file written when every workload runs")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.probe](args.seed)
        workload.setup()
        ready = time.perf_counter() - _T0
        workload.close()
        print(ready)
        return 0
    if args.workload:
        result, detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), trace_out=args.trace_out
        )
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return run_all(args.seed, args.output)


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before anything imports NumPy
    # A terminated run unwinds, so the load client and probes it started
    # are killed and reaped by their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
