"""Command-line interface: ``python -m repro <command>``.

Eleven sub-commands cover the common workflows:

* ``tune-op``      — tune one Table 6 operator class with a chosen scheduler.
* ``tune-network`` — tune BERT / ResNet-50 / MobileNet-V2 end to end with one
  standalone scheduler instance (no service / registry reuse).
* ``network``      — the end-to-end network tuning *service*: ``list`` the
  evaluation networks, ``tune`` one through the shared multi-tenant service
  (per-subgraph registry hits, cross-network warm starts, pluggable
  bandit/gradient round allocation, ``f(S)`` report), or ``report`` a
  network's registry coverage without tuning.
* ``compare``      — head-to-head HARL vs. Ansor on one operator, printing the
  paper's normalized performance / search-time metrics.
* ``serve``        — run a batch of (possibly duplicate) tuning requests
  through the multi-tenant tuning service with registry reuse; with
  ``--listen HOST:PORT`` it instead runs the long-lived asyncio network
  front end (newline-delimited JSON-RPC with admission control, rate
  limits, quotas and degraded load shedding).
* ``query``        — look a workload up in the schedule registry (exact hit
  plus nearest structural relatives).
* ``registry``     — maintain the registry: ``stats``, ``export``,
  ``import``, ``compact``.
* ``targets``      — inspect the hardware target catalog: ``list`` all
  presets, ``describe`` one (datasheet numbers, embedding, nearest devices).
* ``sweep``        — tune a workload suite — Table 6 operators (``--ops``) or
  whole networks (``--networks``) — across several catalog targets over one
  registry, printing (and optionally saving) the cross-target report.
* ``metrics``      — run a demo request batch through the tuning service and
  report the unified ``repro.obs`` metrics: registry hit rate, submit→finish
  latency percentiles from real histogram buckets, cache counters — as a
  summary, Prometheus text exposition, or JSON snapshot.
* ``trace``        — run a traced tuning round and emit the span tree:
  service rounds, job finishes, injected-fault events — as JSONL records
  plus an indented tree rendering.

All latencies come from the simulated hardware targets.  ``--target``
accepts any catalog name (``repro targets list``) plus the ``cpu`` / ``gpu``
aliases for the two paper platforms.  Every scheduler is built by
:func:`repro.baselines.make_scheduler`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.baselines import make_scheduler
from repro.core.config import HARLConfig
from repro.experiments.cache import build_network
from repro.experiments.operator_suite import OPERATOR_CLASSES, representative_dag
from repro.experiments.reporting import format_table
from repro.experiments.network_runner import NetworkTuner
from repro.experiments.runner import compare_on_operator
from repro.experiments.sweep import sweep_networks, sweep_targets
from repro.hardware.catalog import default_catalog
from repro.hardware.target import cpu_target, gpu_target
from repro.records import RecordStore
from repro.serving.fingerprint import structural_fingerprint
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.lowering import lower_schedule
from repro import obs
from repro.analysis import runner as analysis_runner

__all__ = ["main", "build_parser"]

_SCHEDULER_CHOICES = ("harl", "hierarchical-rl", "ansor", "flextensor", "autotvm")

_EPILOG = """\
measurement pipeline flags:

  --records-out F   Stream every measurement (and the final tuning result) to
                    the append-only JSONL log F while tuning runs.  The log is
                    flushed per line, so a killed run loses at most one line.
                    For `compare`, F names a directory instead: each competing
                    scheduler writes its own <scheduler>.jsonl log there.
  --resume-from F   (tune-op and tune-network) Load a JSONL log written by
                    --records-out and resume from it: the cost model is
                    warm-started with all recorded measurements and the best
                    recorded schedules seed the search, so the new trial
                    budget extends the old run instead of repeating it.
                    Corrupted lines are skipped.

  --registry DIR    Use the persistent schedule registry at DIR: tuning runs
                    record their best schedules into it (keyed by canonical
                    structural fingerprint + hardware target) and are
                    warm-started from exact hits / nearest structural
                    relatives already registered there.

examples:

  python -m repro tune-op --op GEMM-L --trials 200 \\
      --records-out logs/gemm.jsonl
  python -m repro tune-op --op GEMM-L --trials 200 \\
      --resume-from logs/gemm.jsonl --records-out logs/gemm.jsonl
  python -m repro compare --op C2D --batch 16
  python -m repro tune-op --op GEMM-L --trials 200 --registry registry/
  python -m repro serve --registry registry/ --trials 64
  python -m repro query --registry registry/ --op GEMM-L
  python -m repro registry stats --registry registry/
  python -m repro network tune --network resnet50 --registry registry/
  python -m repro network tune --network mobilenet_v2 --registry registry/
  python -m repro network report --network mobilenet_v2 --registry registry/
  python -m repro sweep --networks resnet50,mobilenet_v2 --trials 64
"""

_NETWORK_CHOICES = ("bert", "resnet50", "mobilenet_v2")


def positive_int(text: str) -> int:
    """``--trials``: a measurement-trial budget of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def scale_factor(text: str) -> float:
    """``--scale``: a ``HARLConfig.scaled`` factor in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value:g}")
    return value


def _admission_flags(parser: argparse.ArgumentParser) -> None:
    """Admission-control knobs of the network front end (ServerConfig)."""
    grp = parser.add_argument_group("admission control")
    grp.add_argument("--max-inflight", type=int, default=4, metavar="N",
                     help="tuning requests holding admission slots at once; "
                          "beyond this the server sheds load (registry-only "
                          "degraded answers)")
    grp.add_argument("--server-workers", type=int, default=2, metavar="N",
                     help="worker threads driving admitted tuning jobs")
    grp.add_argument("--request-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="deadline per tune request; expiry answers the "
                          "explicit 'timeout' error code")
    grp.add_argument("--rate", type=float, default=0.0, metavar="R",
                     help="per-tenant token-bucket rate, requests/s "
                          "(0 = unlimited)")
    grp.add_argument("--burst", type=int, default=8, metavar="N",
                     help="per-tenant token-bucket capacity")
    grp.add_argument("--quota", type=int, default=0, metavar="TRIALS",
                     help="per-tenant total measurement-trial quota "
                          "(0 = unlimited)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--target", default="cpu", metavar="NAME",
                       help="hardware target: a catalog name (see `repro "
                            "targets list`) or the cpu / gpu aliases")
        p.add_argument("--trials", type=positive_int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scale", type=scale_factor, default=0.25,
                       help="HARLConfig.scaled factor (1.0 = paper-scale episodes)")
        p.add_argument("--records-out", metavar="FILE", default=None,
                       help="append every measurement to this JSONL record log")
        p.add_argument("--registry", metavar="DIR", default=None,
                       help="persistent schedule registry directory: record "
                            "best schedules into it and warm-start from it")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the repro.obs metrics JSON snapshot to "
                            "FILE when the command finishes")

    op = sub.add_parser("tune-op", help="tune one Table 6 operator class",
                        epilog=_EPILOG,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    common(op)
    op.add_argument("--op", choices=OPERATOR_CLASSES, default="GEMM-L")
    op.add_argument("--batch", type=int, default=1)
    op.add_argument("--scheduler", choices=_SCHEDULER_CHOICES, default="harl")
    op.add_argument("--show-program", action="store_true",
                    help="print the lowered loop nest of the best schedule")

    net = sub.add_parser("tune-network", help="tune a network end to end",
                         epilog=_EPILOG,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    common(net)
    net.add_argument("--network", choices=_NETWORK_CHOICES, default="bert")
    net.add_argument("--batch", type=int, default=1)
    net.add_argument("--scheduler", choices=("harl", "ansor"), default="harl")
    for p in (op, net):
        p.add_argument("--resume-from", metavar="FILE", default=None,
                       help="warm-start from a JSONL record log written by "
                            "--records-out")

    ntw = sub.add_parser(
        "network",
        help="end-to-end network tuning through the shared service",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ntw.add_argument("action", choices=("list", "tune", "report"))
    common(ntw)
    ntw.add_argument("--network", choices=_NETWORK_CHOICES, default="resnet50")
    ntw.add_argument("--batch", type=int, default=1)
    ntw.add_argument("--policy", choices=("bandit", "gradient"), default="bandit",
                     help="round-allocation policy: HARL's SW-UCB bandit or "
                          "the greedy Eq. 3 gradient (Ansor)")
    ntw.add_argument("--scheduler", choices=("harl", "hierarchical-rl", "ansor"),
                     default="harl")
    ntw.add_argument("--force-tune", action="store_true",
                     help="bypass the registry fast path (cold-run baseline)")
    ntw.add_argument("--json", metavar="FILE", default=None,
                     help="also write the tune report as JSON")

    cmp = sub.add_parser("compare", help="HARL vs Ansor on one operator",
                         epilog=_EPILOG,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    common(cmp)
    cmp.add_argument("--op", choices=OPERATOR_CLASSES, default="GEMM-L")
    cmp.add_argument("--batch", type=int, default=1)

    srv = sub.add_parser(
        "serve",
        help="run tuning requests through the multi-tenant service",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(srv)
    srv.add_argument("--scheduler", choices=("harl", "hierarchical-rl", "ansor"),
                     default="harl")
    srv.add_argument("--requests", metavar="FILE", default=None,
                     help="JSON file with a list of requests "
                          '[{"op": ..., "batch": ..., "trials": ..., '
                          '"tenant": ...}, ...]; omit for a built-in demo '
                          "batch with duplicate + novel workloads")
    srv.add_argument("--listen", metavar="HOST:PORT", default=None,
                     help="run the long-lived asyncio network front end on "
                          "HOST:PORT (port 0 = ephemeral) instead of a batch; "
                          "serves newline-delimited JSON-RPC until "
                          "interrupted (see repro.serving.server)")
    srv.add_argument("--duration", type=float, default=0.0, metavar="SECONDS",
                     help="with --listen: serve this long then exit "
                          "(0 = until Ctrl-C)")
    _admission_flags(srv)

    qry = sub.add_parser("query", help="look a workload up in the registry",
                         epilog=_EPILOG,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    qry.add_argument("--registry", metavar="DIR", required=True)
    qry.add_argument("--target", default="cpu", metavar="NAME",
                     help="hardware target: a catalog name or cpu / gpu")
    qry.add_argument("--op", choices=OPERATOR_CLASSES, default="GEMM-L")
    qry.add_argument("--batch", type=int, default=1)
    qry.add_argument("--neighbors", type=int, default=3,
                     help="how many nearest structural relatives to list")

    reg = sub.add_parser("registry", help="registry maintenance",
                         epilog=_EPILOG,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    reg.add_argument("action", choices=("stats", "export", "import", "compact"))
    reg.add_argument("--registry", metavar="DIR", required=True)
    reg.add_argument("--file", metavar="FILE", default=None,
                     help="JSONL file for export / import")

    tgt = sub.add_parser("targets", help="inspect the hardware target catalog")
    tgt.add_argument("action", choices=("list", "describe"))
    tgt.add_argument("name", nargs="?", default=None,
                     help="target name (required for describe)")

    swp = sub.add_parser(
        "sweep",
        help="tune a workload suite across several targets with transfer",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(swp)
    # Distinguish "no target flags at all" (sweep the two paper platforms)
    # from an explicit single --target (sweep just that one).
    swp.set_defaults(target=None)
    swp.add_argument("--targets", metavar="NAMES", default=None,
                     help="comma-separated catalog target names (overrides "
                          "--target; default: the two paper platforms)")
    swp.add_argument("--ops", metavar="CLASSES", default="GEMM-S,C1D",
                     help="comma-separated Table 6 operator classes "
                          f"(known: {', '.join(OPERATOR_CLASSES)})")
    swp.add_argument("--networks", metavar="NAMES", default=None,
                     help="comma-separated network names "
                          f"({', '.join(_NETWORK_CHOICES)}); sweeps whole "
                          "networks end to end instead of --ops")
    swp.add_argument("--policy", choices=("bandit", "gradient"), default="bandit",
                     help="round-allocation policy for --networks sweeps")
    swp.add_argument("--batch", type=int, default=1)
    swp.add_argument("--scheduler", choices=("harl", "hierarchical-rl", "ansor"),
                     default="harl")
    swp.add_argument("--report", metavar="FILE", default=None,
                     help="write the cross-target report to this CSV file")

    met = sub.add_parser(
        "metrics",
        help="run a demo service batch and report the unified metrics",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(met)
    met.set_defaults(trials=16, scale=0.1)
    met.add_argument("--format", choices=("summary", "prometheus", "json"),
                     default="summary", dest="fmt",
                     help="output format (summary adds the exposition on top "
                          "of the human-readable digest)")
    met.add_argument("--no-demo", action="store_true",
                     help="skip the demo batch and just report current metrics "
                          "(useful after --registry runs in the same process)")

    trc = sub.add_parser(
        "trace",
        help="run a traced tuning round and emit the JSONL span tree",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(trc)
    trc.set_defaults(trials=16, scale=0.1)
    trc.add_argument("--output", metavar="FILE", default=None,
                     help="write the JSONL trace records to FILE")
    trc.add_argument("--jsonl", action="store_true",
                     help="also print the raw JSONL records to stdout")

    ana = sub.add_parser(
        "analyze",
        help="run the repo-aware static checkers (lock discipline, asyncio "
             "blocking, fault coverage, obs hygiene)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    analysis_runner.add_arguments(ana)

    return parser


def _resolve_target(name: str):
    """Resolve a --target value: cpu / gpu aliases or any catalog name."""
    if name == "cpu":
        return cpu_target()
    if name == "gpu":
        return gpu_target()
    try:
        return default_catalog().get(name)
    except KeyError:
        known = ", ".join(["cpu", "gpu"] + default_catalog().names())
        print(f"error: unknown target {name!r}; known targets: {known}",
              file=sys.stderr)
        raise SystemExit(2) from None


def _build_pipeline(args):
    """The (record store, resume store) of a tune-op / tune-network run."""
    record_store = RecordStore(args.records_out) if args.records_out else None
    resume_store = None
    if args.resume_from:
        if record_store is not None and args.resume_from == args.records_out:
            # Resuming into the same log: reuse the already-loaded store so
            # new lines are appended to the history being resumed.
            resume_store = record_store
        else:
            try:
                resume_store = RecordStore.load(args.resume_from)
            except FileNotFoundError:
                print(f"error: --resume-from {args.resume_from!r} does not exist",
                      file=sys.stderr)
                raise SystemExit(2) from None
    return record_store, resume_store


def _open_registry(args) -> Optional[ScheduleRegistry]:
    registry_dir = getattr(args, "registry", None)
    return ScheduleRegistry(registry_dir) if registry_dir else None


def _warm_start_provider(registry: Optional[ScheduleRegistry], target):
    if registry is None:
        return None
    return lambda dag: registry.warm_start_schedules(dag, target)


def _cmd_tune_op(args) -> int:
    target = _resolve_target(args.target)
    config = HARLConfig.scaled(args.scale)
    record_store, resume_store = _build_pipeline(args)
    registry = _open_registry(args)
    scheduler = make_scheduler(args.scheduler, target, config, args.seed,
                               record_store=record_store,
                               warm_start_provider=_warm_start_provider(registry, target))
    if resume_store is not None:
        scheduler.resume_from(resume_store)
    dag = representative_dag(args.op, batch=args.batch)
    result = scheduler.tune(dag, n_trials=args.trials)
    if registry is not None:
        registry.record_result(dag, target, result, source=f"cli:{args.scheduler}")
        registry.close()
    print(format_table(
        ["workload", "scheduler", "best latency (ms)", "TFLOP/s", "trials"],
        [[dag.name, result.scheduler, result.best_latency * 1e3,
          result.best_throughput / 1e12, result.trials_used]],
    ))
    if args.show_program and result.best_schedule is not None:
        print()
        print(lower_schedule(result.best_schedule))
    if record_store is not None:
        record_store.close()
        print(f"\nrecords written to {args.records_out}")
    return 0


def _cmd_tune_network(args) -> int:
    target = _resolve_target(args.target)
    config = HARLConfig.scaled(args.scale)
    record_store, resume_store = _build_pipeline(args)
    registry = _open_registry(args)
    scheduler = make_scheduler(args.scheduler, target, config, args.seed,
                               record_store=record_store,
                               warm_start_provider=_warm_start_provider(registry, target))
    if resume_store is not None:
        scheduler.resume_from(resume_store)
    network = build_network(args.network, batch_size=args.batch)
    result = scheduler.tune_network(network, n_trials=args.trials)
    if registry is not None:
        for sg in network:
            task_result = result.task_results.get(sg.name)
            if task_result is not None:
                registry.record_result(sg.dag, target, task_result,
                                       source=f"cli:{args.scheduler}")
        registry.close()
    rows = [
        [name, result.allocations.get(name, 0), res.best_latency * 1e3]
        for name, res in sorted(result.task_results.items())
    ]
    print(format_table(["subgraph", "trials", "best latency (ms)"], rows,
                       title=f"{network.name} via {result.scheduler}"))
    print(f"\nestimated end-to-end latency: {result.best_latency * 1e3:.3f} ms "
          f"({result.trials_used} trials)")
    if record_store is not None:
        record_store.close()
        print(f"records written to {args.records_out}")
    return 0


def _cmd_network(args) -> int:
    if args.action == "list":
        rows = []
        for name in _NETWORK_CHOICES:
            network = build_network(name, batch_size=args.batch)
            groups = sorted({sg.reward_group for sg in network if sg.reward_group})
            rows.append([
                name, network.name, len(network),
                sum(sg.weight for sg in network),
                network.total_flops / 1e9,
                ",".join(groups),
            ])
        print(format_table(
            ["network", "graph", "subgraphs", "sum w_n", "GFLOPs",
             "operator families"],
            rows, title=f"evaluation networks (batch={args.batch})",
        ))
        return 0

    target = _resolve_target(args.target)
    network = build_network(args.network, batch_size=args.batch)

    if args.action == "report":
        if not args.registry:
            print("error: network report needs --registry", file=sys.stderr)
            return 2
        registry = ScheduleRegistry(args.registry)
        rows, latencies = [], {}
        for sg in network:
            found = registry.lookup(sg.dag, target, k=1)
            entry = found.entry
            if entry is not None:
                latencies[sg.name] = entry.latency
                rows.append([sg.name, sg.weight, entry.latency * 1e6,
                             entry.scheduler, entry.trials,
                             entry.source or "n/a", entry.donor_target or "-"])
            else:
                hint = (f"nearest: {found.neighbors[0][1].workload}"
                        if found.neighbors else "no relative registered")
                rows.append([sg.name, sg.weight, float("inf"), "-", 0, hint, "-"])
        covered = len(latencies)
        print(format_table(
            ["task", "w_n", "g_n (us)", "scheduler", "trials", "source",
             "donor target"],
            rows, title=f"{network.name} registry coverage on {target.name}",
        ))
        estimate = network.estimated_latency(latencies)
        if estimate < float("inf"):
            print(f"\nfully covered: registry-estimated f(S) = "
                  f"{estimate * 1e3:.3f} ms ({covered}/{len(network)} tasks)")
        else:
            print(f"\n{covered}/{len(network)} tasks covered; "
                  "`repro network tune` fills the gaps")
        registry.close()
        return 0

    # action == "tune"
    config = HARLConfig.scaled(args.scale)
    registry = _open_registry(args)
    if registry is None:  # explicit: an *empty* registry is falsy (len == 0)
        registry = ScheduleRegistry()
    record_store = RecordStore(args.records_out) if args.records_out else None
    service = TuningService(
        registry=registry, target=target, config=config, seed=args.seed,
        record_store=record_store,
    )
    tuner = NetworkTuner(network, service, policy=args.policy,
                         scheduler=args.scheduler, force_tune=args.force_tune)
    report = tuner.tune(n_trials=args.trials)
    print(report.format())
    print(f"registry now holds {len(registry)} entries")
    if args.json:
        path = report.write_json(args.json)
        print(f"report written to {path}")
    if record_store is not None:
        record_store.close()
        print(f"records written to {args.records_out}")
    registry.close()
    return 0


def _cmd_compare(args) -> int:
    target = _resolve_target(args.target)
    config = HARLConfig.scaled(args.scale)
    dag = representative_dag(args.op, batch=args.batch)
    registry = _open_registry(args)
    try:
        comparison = compare_on_operator(
            dag, n_trials=args.trials, target=target, config=config, seed=args.seed,
            schedulers=("ansor", "harl"),
            records_dir=args.records_out, registry=registry,
        )
    finally:
        if registry is not None:
            registry.close()
    perf = comparison.normalized_performance()
    times = comparison.normalized_search_time()
    rows = [
        [name, comparison.results[name].best_latency * 1e3, perf[name], times[name]]
        for name in ("ansor", "harl")
    ]
    print(format_table(
        ["scheduler", "best latency (ms)", "norm. performance", "norm. search time"],
        rows, title=dag.name,
    ))
    return 0


def _demo_requests(trials: int, scheduler: str):
    """Built-in serve demo: duplicate GEMMs from two tenants plus a novel op."""
    specs = [
        ("GEMM-S", 1, "tenant-a"),
        ("GEMM-S", 1, "tenant-b"),   # structural duplicate → coalesces
        ("C1D", 1, "tenant-a"),      # novel workload → its own job
    ]
    return [
        TuningRequest(dag=representative_dag(op, batch=batch), n_trials=trials,
                      scheduler=scheduler, tenant=tenant)
        for op, batch, tenant in specs
    ]


def _load_requests(path: str, default_trials: int, scheduler: str):
    from pathlib import Path

    specs = json.loads(Path(path).read_text(encoding="utf-8"))
    requests = []
    for spec in specs:
        requests.append(TuningRequest(
            dag=representative_dag(spec["op"], batch=int(spec.get("batch", 1))),
            n_trials=int(spec.get("trials", default_trials)),
            scheduler=spec.get("scheduler", scheduler),
            tenant=spec.get("tenant", "default"),
            force_tune=bool(spec.get("force_tune", False)),
        ))
    return requests


def _server_config(args, host: str = "127.0.0.1", port: int = 0):
    from repro.serving.server import ServerConfig

    return ServerConfig(
        host=host,
        port=port,
        max_inflight=args.max_inflight,
        workers=args.server_workers,
        request_timeout=args.request_timeout,
        rate=args.rate,
        burst=args.burst,
        quota=args.quota,
    )


def _parse_listen(listen: str):
    host, _, port = listen.rpartition(":")
    if not host or not port:
        raise SystemExit(f"--listen expects HOST:PORT, got {listen!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer, got {port!r}") from None


def _cmd_serve_listen(args, service, registry) -> int:
    """The --listen mode of `serve`: a long-lived network front end."""
    import time as _time

    from repro.serving.server import ServingServer

    host, port = _parse_listen(args.listen)
    with ServingServer(service, _server_config(args, host=host, port=port)) as srv:
        print(f"serving newline-delimited JSON-RPC on {srv.host}:{srv.port} "
              f"(target {service.target.name}, {len(registry)} registry "
              f"entries); Ctrl-C to stop", flush=True)
        try:
            if args.duration > 0:
                _time.sleep(args.duration)
            else:
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:
            print("\ninterrupted, shutting down")
        stats = srv.stats()
    print(f"served {stats['requests']} requests: {stats['accepted']} tuned, "
          f"{stats['fast_hits']} registry fast hits, {stats['shed']} shed, "
          f"{stats['timeouts']} timeouts; registry now holds "
          f"{len(registry)} entries")
    return 0


def _cmd_serve(args) -> int:
    target = _resolve_target(args.target)
    config = HARLConfig.scaled(args.scale)
    registry = _open_registry(args)
    if registry is None:  # explicit: an *empty* registry is falsy (len == 0)
        registry = ScheduleRegistry()
    record_store = RecordStore(args.records_out) if args.records_out else None
    service = TuningService(
        registry=registry, target=target, config=config, seed=args.seed,
        record_store=record_store,
    )
    if args.listen:
        try:
            return _cmd_serve_listen(args, service, registry)
        finally:
            if record_store is not None:
                record_store.close()
            registry.close()
    if args.requests:
        requests = _load_requests(args.requests, args.trials, args.scheduler)
    else:
        requests = _demo_requests(args.trials, args.scheduler)
    handles = service.process(requests)
    rows = [
        [h.request.dag.name, h.request.tenant, h.source,
         h.result.best_latency * 1e3, h.result.trials_used]
        for h in handles
    ]
    print(format_table(
        ["workload", "tenant", "source", "best latency (ms)", "trials"],
        rows, title=f"tuning service on {target.name}",
    ))
    print(f"\njobs created: {service.jobs_created}, "
          f"coalesced: {service.coalesced_requests}, "
          f"registry hits: {service.registry_hits}; "
          f"registry now holds {len(registry)} entries")
    if record_store is not None:
        record_store.close()
    registry.close()
    return 0


def _run_service_demo(args, waves: int = 1):
    """Run the built-in serve demo batch ``waves`` times over one registry.

    The second wave resubmits structurally identical workloads, so it is
    answered from the registry — which is exactly what makes the metrics
    report show non-trivial hit rates and fast-path latencies.
    """
    target = _resolve_target(args.target)
    config = HARLConfig.scaled(args.scale)
    registry = _open_registry(args)
    if registry is None:
        registry = ScheduleRegistry()
    record_store = RecordStore(args.records_out) if args.records_out else None
    service = TuningService(
        registry=registry, target=target, config=config, seed=args.seed,
        record_store=record_store,
    )
    handles = []
    for _wave in range(waves):
        handles.extend(service.process(_demo_requests(args.trials, "harl")))
    if record_store is not None:
        record_store.close()
    registry.close()
    return service, handles


def _percentile_row(summary: dict) -> str:
    return (f"p50={summary['p50'] * 1e3:.3f}ms  "
            f"p95={summary['p95'] * 1e3:.3f}ms  "
            f"p99={summary['p99'] * 1e3:.3f}ms  "
            f"(count={summary['count']})")


def _cmd_metrics(args) -> int:
    if not args.no_demo:
        # Two waves: wave 1 tunes the demo workloads cold, wave 2 resubmits
        # them and is answered from the registry, so the snapshot shows the
        # full hit/miss/coalesce story.
        _run_service_demo(args, waves=2)
    snap = obs.snapshot()
    if args.fmt == "json":
        print(json.dumps(snap, indent=2))
        return 0
    if args.fmt == "prometheus":
        print(obs.render_prometheus(), end="")
        return 0
    counters = snap["counters"]
    lookups = counters.get("registry.lookups", 0)
    hits = counters.get("registry.hits", 0)
    hit_rate = hits / lookups if lookups else 0.0
    print("service")
    print(f"  requests:      {counters.get('service.requests', 0)}")
    print(f"  registry hits: {counters.get('service.registry_hits', 0)}")
    print(f"  coalesced:     {counters.get('service.coalesced', 0)}")
    print(f"  jobs created:  {counters.get('service.jobs_created', 0)} "
          f"(finished {counters.get('service.jobs_finished', 0)}, "
          f"aborted {counters.get('service.jobs_aborted', 0)})")
    submit = snap["histograms"].get("service.submit_to_finish_seconds")
    if submit and submit["count"]:
        print(f"  submit→finish: {_percentile_row(submit)}")
    print("registry")
    print(f"  lookups:       {lookups} (hit rate {hit_rate:.1%})")
    print(f"  transfer:      {counters.get('registry.transfer_lookups', 0)} lookups, "
          f"{counters.get('registry.transfer_candidates', 0)} candidates")
    for name, label in (
        ("registry.append_seconds", "appends"),
        ("registry.shard_load_seconds", "shard loads"),
        ("records.flush_seconds", "record flushes"),
    ):
        summary = snap["histograms"].get(name)
        if summary and summary["count"]:
            print(f"  {label + ':':<14} {_percentile_row(summary)}")
    caches = {
        key: value for key, value in snap["collected"].items()
        if key.startswith("cache.")
    }
    if caches:
        print("caches")
        for name in ("sketches", "fingerprint"):
            rate = caches.get(f"cache.{name}.hit_rate")
            if rate is not None:
                print(f"  {name + ':':<13} hits={caches[f'cache.{name}.hits']} "
                      f"misses={caches[f'cache.{name}.misses']} "
                      f"(hit rate {rate:.1%})")
    print()
    print(obs.render_prometheus(), end="")
    return 0


def _cmd_trace(args) -> int:
    with obs.tracing(args.output) as tracer:
        _run_service_demo(args, waves=1)
    if args.jsonl or not args.output:
        for line in tracer.lines():
            print(line)
        print()
    print(tracer.tree())
    if args.output:
        print(f"\ntrace written to {args.output} "
              f"({len(tracer.records)} records)")
    return 0


def _cmd_query(args) -> int:
    target = _resolve_target(args.target)
    registry = ScheduleRegistry(args.registry)
    dag = representative_dag(args.op, batch=args.batch)
    fingerprint = structural_fingerprint(dag)
    print(f"workload:    {dag.name}")
    print(f"fingerprint: {fingerprint[:16]}… on {target.name}")
    found = registry.lookup(dag, target, k=args.neighbors)
    exact = found.entry
    if exact is not None:
        print(f"exact hit:   {exact.latency * 1e3:.3f} ms "
              f"({exact.scheduler}, {exact.trials} trials, "
              f"source={exact.source or 'n/a'})")
    else:
        print("exact hit:   none")
    neighbors = found.neighbors
    if neighbors:
        rows = [
            [entry.workload, f"{distance:.3f}", entry.latency * 1e3, entry.scheduler]
            for distance, entry in neighbors
        ]
        print()
        print(format_table(
            ["nearest relative", "distance", "best latency (ms)", "scheduler"], rows,
        ))
    registry.close()
    return 0


def _cmd_registry(args) -> int:
    registry = ScheduleRegistry(args.registry)
    if args.action == "stats":
        stats = registry.stats()
        for key in ("entries", "workloads", "targets", "shard_files",
                    "total_lines", "stale_lines", "skipped_lines"):
            print(f"{key:>14}: {stats[key]}")
    elif args.action == "export":
        if not args.file:
            print("error: registry export needs --file", file=sys.stderr)
            return 2
        path = registry.export_file(args.file)
        print(f"exported {len(registry)} entries to {path}")
    elif args.action == "import":
        if not args.file:
            print("error: registry import needs --file", file=sys.stderr)
            return 2
        accepted = registry.import_file(args.file, source=f"import:{args.file}")
        print(f"imported {accepted} improved entries from {args.file} "
              f"({len(registry)} total)")
    elif args.action == "compact":
        removed = registry.compact()
        print(f"compacted: removed {removed} stale lines, "
              f"{len(registry)} entries kept")
    registry.close()
    return 0


def _cmd_targets(args) -> int:
    catalog = default_catalog()
    if args.action == "list":
        rows = []
        for target in catalog:
            d = catalog.describe(target.name)
            rows.append([
                d["name"], d["kind"], d["num_cores"], d["vector_width"],
                d["peak_tflops"], d["dram_gb_s"],
                d["l1_kb"], d["l2_kb"], d["l3_mb"],
            ])
        print(format_table(
            ["target", "kind", "cores", "simd", "peak TFLOP/s", "DRAM GB/s",
             "L1 KB", "L2 KB", "L3 MB"],
            rows, title=f"hardware target catalog ({len(catalog)} presets)",
        ))
        return 0
    if not args.name:
        print("error: targets describe needs a target name", file=sys.stderr)
        return 2
    try:
        description = catalog.describe(args.name)
    except KeyError:
        print(f"error: unknown target {args.name!r}; known: "
              f"{', '.join(catalog.names())}", file=sys.stderr)
        return 2
    embedding = description.pop("embedding")
    for key, value in description.items():
        print(f"{key:>22}: {value}")
    print(f"{'embedding':>22}: [{', '.join(f'{v:.2f}' for v in embedding)}]")
    rows = [
        [neighbor.name, neighbor.kind, f"{distance:.2f}"]
        for distance, neighbor in catalog.nearest(catalog.get(args.name), k=3)
    ]
    print()
    print(format_table(["nearest target", "kind", "distance"], rows))
    return 0


def _cmd_sweep(args) -> int:
    config = HARLConfig.scaled(args.scale)
    if args.targets:
        target_names = [name.strip() for name in args.targets.split(",") if name.strip()]
    elif args.target:
        target_names = [args.target]
    else:
        target_names = ["xeon-6226r", "rtx-3090"]
    targets = [_resolve_target(name) for name in target_names]
    if args.networks:
        networks = []
        for name in (n.strip() for n in args.networks.split(",") if n.strip()):
            if name not in _NETWORK_CHOICES:
                print(f"error: unknown network {name!r}; known: "
                      f"{', '.join(_NETWORK_CHOICES)}", file=sys.stderr)
                return 2
            networks.append(name)
        if not networks:
            print("error: --networks needs at least one network name",
                  file=sys.stderr)
            return 2
        registry = _open_registry(args)
        record_store = RecordStore(args.records_out) if args.records_out else None
        report = sweep_networks(
            networks, targets, n_trials=args.trials, config=config,
            seed=args.seed, scheduler=args.scheduler, policy=args.policy,
            registry=registry,
            record_store=record_store, batch_size=args.batch,
        )
        print(report.format(
            title=f"network fleet sweep: {len(networks)} networks x "
                  f"{len(targets)} targets"
        ))
        reused = report.reused_cells()
        if reused:
            print(f"\n{len(reused)} runs reused registry knowledge "
                  f"(hits or warm starts)")
        if args.report:
            path = report.write_csv(args.report)
            print(f"report written to {path}")
        if record_store is not None:
            record_store.close()
        if registry is not None:
            registry.close()
        return 0
    dags = []
    for op in (name.strip() for name in args.ops.split(",") if name.strip()):
        if op not in OPERATOR_CLASSES:
            print(f"error: unknown operator class {op!r}; known: "
                  f"{', '.join(OPERATOR_CLASSES)}", file=sys.stderr)
            return 2
        dags.append(representative_dag(op, batch=args.batch))
    if not dags:
        print("error: --ops needs at least one operator class", file=sys.stderr)
        return 2
    registry = _open_registry(args)
    record_store = RecordStore(args.records_out) if args.records_out else None
    report = sweep_targets(
        dags, targets, n_trials=args.trials, config=config, seed=args.seed,
        scheduler=args.scheduler, registry=registry,
        record_store=record_store,
    )
    print(report.format(
        title=f"cross-target sweep: {len(dags)} workloads x {len(targets)} targets"
    ))
    transfers = report.transfer_cells()
    if transfers:
        print(f"\n{len(transfers)} runs warm-started across targets "
              f"({', '.join(sorted({c.target for c in transfers}))})")
    if args.report:
        path = report.write_csv(args.report)
        print(f"report written to {path}")
    if record_store is not None:
        record_store.close()
    if registry is not None:
        registry.close()
    return 0


def _cmd_analyze(args) -> int:
    return analysis_runner.main_from_args(args)


_COMMANDS = {
    "tune-op": _cmd_tune_op,
    "tune-network": _cmd_tune_network,
    "network": _cmd_network,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "registry": _cmd_registry,
    "targets": _cmd_targets,
    "sweep": _cmd_sweep,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code = _COMMANDS[args.command](args)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        path = obs.write_snapshot(metrics_out)
        print(f"metrics snapshot written to {path}")
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
