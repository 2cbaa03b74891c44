"""The three workloads of the end-to-end benchmark.

Each workload turns ``--seed`` into its inputs, runs *units* of work — one
tuning job, or one serving pass over a cold server — and checks every
unit's outputs.  Unit ``i`` of a run with seed ``s`` uses the sub-seed
``s * 1000 + i``, so a run averages over distinct search trajectories while
the same seed always replays the same ones.

Only the public ``repro`` API is used; nothing here reaches into the
program's private state.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import HARLConfig, HARLScheduler, RecordStore, ScheduleRegistry, TuningService
from repro.caching import cached_sketches_for_target
from repro.experiments.network_runner import NetworkTuner
from repro.experiments.operator_suite import representative_dag
from repro.hardware.simulator import LatencySimulator
from repro.hardware.target import cpu_target
from repro.networks import build_mobilenet_v2
from repro.records import schedule_from_dict
from repro.serving.loadgen import DEFAULT_UNIVERSE, LoadGenConfig
from repro.serving.netclient import TuningClient
from repro.serving.server import ServerConfig, ServingServer

HERE = Path(__file__).resolve().parent

#: Scratch space of the serving passes (each pass removes its own files).
WORK = HERE / ".work"

#: Largest |ln(measured / re-simulated)| accepted for a reported best
#: latency: five standard deviations of the measurer's 2% single-sample
#: noise (repeats only shrink it).
NOISE_BAND = 0.1

#: Sub-seed index of a workload's warm-up unit.
WARMUP = 999


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Unit:
    """Outcome of one unit of work."""

    wall: float                     #: seconds, untraced unit wall time
    trials: int                     #: measurement trials consumed
    tunes: List[float]              #: seconds, one per request a tuning job answered
    attempted: int = 1              #: requests issued (a tuning job is one)
    failed: int = 0                 #: requests not answered correctly
    quality: Optional[float] = None  #: f(S) in seconds (tuning workloads)
    violations: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)


class _Workload:
    """Protocol of a workload: ``setup()`` builds the inputs and everything a
    unit needs (the setup probes time it in a fresh process), ``warmup()``
    runs one untimed unit, ``unit(i, window)`` runs and checks unit ``i``
    with its timed work inside ``window()``, and ``close()`` cleans up.

    Sizes are class attributes; keyword arguments override them per
    instance (the smoke test runs every workload tiny).
    """

    #: True when the work runs on the program's own threads and the calling
    #: thread only waits for it.
    threaded = False

    def __init__(self, seed: int, **sizes: int):
        self.seed = seed
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"{type(self).__name__} has no size {key!r}")
            setattr(self, key, value)

    def close(self) -> None:
        pass


def _resimulation_error(simulator: LatencySimulator, schedule, latency: float) -> Optional[str]:
    """A violation message when ``latency`` is not a noisy reading of ``schedule``."""
    if schedule is None or not math.isfinite(latency) or latency <= 0:
        return f"no finite best schedule (latency {latency})"
    simulated = simulator.latency(schedule)
    if not (math.isfinite(simulated) and abs(math.log(latency / simulated)) <= NOISE_BAND):
        return f"best latency {latency:.6g}s is not within noise of re-simulated {simulated:.6g}s"
    return None


class OpGemmM(_Workload):
    """``HARLScheduler.tune(GEMM-M, 256)``: the paper's operator setting.

    Hundreds of samples accumulate in one workload, so the cost model (GBT
    fit and predict) dominates the round.
    """

    name = "op-gemm-m"
    #: Layers every unit must exercise (checked by the smoke test).
    layers = (
        "core.ppo.act", "core.ppo.value", "core.ppo.update", "core.search.episode",
        "core.bandit.select", "core.stopping.select_survivors", "costmodel.update",
        "costmodel.predict", "costmodel.gbt.fit", "costmodel.gbt.predict", "tensor.features",
        "tensor.actions.apply", "tensor.sampler.sample", "hardware.measure",
    )
    budget = 256
    warmup_budget = 32
    min_units = 2

    def setup(self) -> None:
        self.dag = representative_dag("GEMM-M")
        self.config = HARLConfig.scaled()
        self.simulator = LatencySimulator(cpu_target())
        HARLScheduler(config=self.config, seed=unit_seed(self.seed, 0))

    def warmup(self) -> None:
        HARLScheduler(config=self.config, seed=unit_seed(self.seed, WARMUP)).tune(
            self.dag, self.warmup_budget
        )

    def unit(self, index: int, window=contextlib.nullcontext) -> Unit:
        scheduler = HARLScheduler(config=self.config, seed=unit_seed(self.seed, index))
        with window():
            began = time.perf_counter()
            result = scheduler.tune(self.dag, self.budget)
            wall = time.perf_counter() - began
        violations = []
        if result.trials_used != self.budget:
            violations.append(f"spent {result.trials_used} trials of a {self.budget} budget")
        error = _resimulation_error(self.simulator, result.best_schedule, result.best_latency)
        if error:
            violations.append(error)
        return Unit(
            wall=wall, trials=result.trials_used, tunes=[wall],
            failed=int(bool(violations)), quality=result.best_latency, violations=violations,
        )

class NetMobilenetCold(_Workload):
    """``NetworkTuner(MobileNet-V2).tune(384)`` over a cold registry (bandit policy).

    Across 38 subgraphs most tasks stay near the cost model's
    ``min_samples``, so the PPO learner dominates.
    """

    name = "net-mobilenet-cold"
    layers = (
        "core.ppo.act", "core.ppo.value", "core.ppo.update", "core.search.episode",
        "core.bandit.select", "core.stopping.select_survivors", "costmodel.update",
        "costmodel.predict", "tensor.features", "tensor.actions.apply",
        "tensor.sampler.sample", "hardware.measure", "serving.service.submit",
        "serving.service.advance", "serving.service.finish", "serving.registry.lookup",
        "serving.registry.warm_start_transfers", "serving.registry.record",
    )
    budget = 384
    #: Two trials per subgraph: the warm-up's capped first rounds reach every
    #: task, so every sketch family is generated before timing starts.
    warmup_budget = 76
    min_units = 3

    def setup(self) -> None:
        self.network = build_mobilenet_v2()
        self.config = HARLConfig.scaled()
        self.simulator = LatencySimulator(cpu_target())
        self._tuner(unit_seed(self.seed, 0))

    def _tuner(self, seed: int) -> NetworkTuner:
        service = TuningService(ScheduleRegistry(), config=self.config, seed=seed)
        return NetworkTuner(self.network, service, policy="bandit")

    def warmup(self) -> None:
        self._tuner(unit_seed(self.seed, WARMUP)).tune(self.warmup_budget)

    def unit(self, index: int, window=contextlib.nullcontext) -> Unit:
        tuner = self._tuner(unit_seed(self.seed, index))
        with window():
            began = time.perf_counter()
            report = tuner.tune(self.budget)
            wall = time.perf_counter() - began
        violations = []
        if report.trials_used != self.budget:
            violations.append(f"spent {report.trials_used} trials of a {self.budget} budget")
        recomputed = self.network.estimated_latency(
            {task.task: task.best_latency for task in report.tasks}
        )
        if recomputed != report.final_latency:
            violations.append(f"f(S) {report.final_latency} != sum of tasks {recomputed}")
        registry, target = tuner.service.registry, tuner.service.target
        dags = {sg.dag.name: sg.dag for sg in self.network}
        for sg in self.network:
            entry = registry.lookup(sg.dag, target, k=0).entry
            if entry is None:
                # Only a budget smaller than the task count leaves tasks
                # unmeasured; their latency (and f(S)) is then infinite.
                if math.isfinite(report.task(sg.name).best_latency):
                    violations.append(f"{sg.name}: measured but not in the registry")
                continue
            # Structurally identical subgraphs share one job and one entry;
            # the simulator's ruggedness is keyed on the display name, so
            # re-simulate on the DAG the entry was measured on.
            schedule = schedule_from_dict(entry.schedule, dags[entry.workload])
            error = _resimulation_error(self.simulator, schedule, entry.latency)
            if error:
                violations.append(f"{sg.name}: {error}")
            if entry.latency != report.task(sg.name).best_latency:
                violations.append(f"{sg.name}: registry latency differs from the report")
        return Unit(
            wall=wall, trials=report.trials_used, tunes=[wall],
            failed=int(bool(violations)), quality=report.final_latency, violations=violations,
            info={"coalesced": tuner.service.coalesced_requests},
        )

class ServeZipf(_Workload):
    """A cold :class:`ServingServer` (default config) under ``loadgen`` traffic.

    The traffic is the repository's own definition of serving load,
    :class:`repro.serving.loadgen.LoadGenConfig` at its defaults (Zipf 1.1
    over its 8-workload universe, 4-trial requests, bursts of 4 with 20 ms
    pauses, 25 requests per client), from 2 closed-loop clients instead of
    4: one per core of the 2-core machine the benchmark was sized on.  The
    seed picks each client's request sequence.

    Each unit is one such replay against a fresh server over an empty
    on-disk registry and record store, so every pass mixes reads and
    writes alike: the first request for each workload is a cold tuning job
    that writes registry and record-log entries, the rest are registry hits
    answered on the event loop.  4-trial jobs never reach the cost model's
    ``min_samples``, so the GBT model is bypassed.
    """

    name = "serve-zipf"
    layers = (
        "core.ppo.act", "core.ppo.value", "core.ppo.update", "core.search.episode",
        "core.bandit.select", "costmodel.update", "costmodel.predict", "tensor.features",
        "tensor.actions.apply", "tensor.sampler.sample", "hardware.measure",
        "serving.service.submit", "serving.service.advance", "serving.registry.lookup",
        "serving.registry.warm_start_transfers", "serving.registry.record",
        "records.record_measure", "records.append_result",
    )
    clients = 2
    requests = LoadGenConfig.requests_per_client   #: per client and pass
    warmup_requests = 4
    min_units = 5
    threaded = True

    def setup(self) -> None:
        self.config = HARLConfig.scaled(0.05)
        self.dags = {
            (op, batch): representative_dag(op, batch=batch) for op, batch in DEFAULT_UNIVERSE
        }
        with _cold_server(self.config, unit_seed(self.seed, 0)) as (server, _store):
            with TuningClient("127.0.0.1", server.port) as client:
                if not client.ping():
                    raise RuntimeError("server did not answer ping")

    def warmup(self) -> None:
        # A long-running server holds the sketch families of its traffic in
        # the process-wide cache; without this, the first pass would pay for
        # generating them and read slower than the rest.
        target = cpu_target()
        for dag in self.dags.values():
            cached_sketches_for_target(dag, target)
        self._pass(unit_seed(self.seed, WARMUP), self.warmup_requests)

    def unit(self, index: int, window=contextlib.nullcontext) -> Unit:
        return self._pass(unit_seed(self.seed, index), self.requests, window)

    def _pass(self, seed: int, requests: int, window=contextlib.nullcontext) -> Unit:
        config = {"clients": self.clients, "requests_per_client": requests, "seed": seed}
        with _cold_server(self.config, seed) as (server, store):
            with window():
                report, replies = _run_client({"port": server.port, "config": config})
            stats = server.stats()
            registry, target = server.service.registry, server.service.target
            finals = {
                key: registry.lookup(dag, target, k=0).entry for key, dag in self.dags.items()
            }
            trials = len(store.query(kind="measure"))
        return self._assess(report, replies, finals, trials, stats)

    def _assess(self, report, replies, finals, trials, stats) -> Unit:
        attempted = report["requests"]
        most = report["config"]["trials"]
        violations: List[str] = []
        failed = attempted - len(replies)
        if failed:
            violations.append(f"{failed} request(s) got no reply")
        tuned: Dict[Tuple, set] = {}
        hits, misses = [], []
        for reply in replies:
            client, op, batch, ok, degraded, source, workload, latency, used, code, began, ended = (
                reply
            )
            key = (op, batch)
            if not ok or degraded or workload != self.dags[key].name or used > most:
                failed += 1
                violations.append(
                    f"{client} {op}/{batch}: ok={ok} degraded={degraded} code={code!r} "
                    f"workload={workload!r} trials={used}"
                )
                continue
            (hits if source == "registry-hit" else misses).append(ended - began)
            if source != "registry-hit":
                tuned.setdefault(key, set()).add(latency)
        for client, op, batch, ok, _deg, source, _wl, latency, *_rest in replies:
            final = finals[(op, batch)]
            if not ok or source != "registry-hit":
                continue
            # A registry entry only ever improves, and only a tuning job can
            # improve it, so a hit reads the final entry or an earlier best
            # that some tuning answer reported.
            allowed = tuned.get((op, batch), set()) | ({final.latency} if final else set())
            if final is None or latency < final.latency or latency not in allowed:
                violations.append(f"{client} {op}/{batch}: hit latency {latency} "
                                  f"does not match the registry")
        return Unit(
            wall=report["wall_seconds"], trials=trials, tunes=misses,
            attempted=attempted, failed=failed, violations=violations,
            info={
                "hits": hits, "misses": misses,
                "coalesced": stats["service"]["coalesced_requests"],
                "gflops": [e.throughput / 1e9 for e in finals.values() if e is not None],
            },
        )

    def close(self) -> None:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when empty: another run may be using it


@contextlib.contextmanager
def _cold_server(config: HARLConfig, seed: int):
    """A started server over a fresh on-disk registry and record store."""
    WORK.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
    registry = ScheduleRegistry(root / "registry")
    store = RecordStore(root / "records.jsonl")
    try:
        service = TuningService(registry, config=config, seed=seed, record_store=store)
        with ServingServer(service, ServerConfig()) as server:
            yield server, store
    finally:
        store.close()
        registry.close()
        shutil.rmtree(root, ignore_errors=True)


def _run_client(job: dict) -> Tuple[dict, list]:
    """Run the load client process to completion: ``(loadgen report, replies)``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loadclient.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"load client exited with code {proc.returncode}")
    payload = json.loads(out.strip().splitlines()[-1])
    return payload["report"], payload["replies"]


WORKLOADS = {cls.name: cls for cls in (OpGemmM, NetMobilenetCold, ServeZipf)}
