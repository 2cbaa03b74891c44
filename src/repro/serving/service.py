"""Multi-tenant tuning service with request coalescing and warm starts.

:class:`TuningService` is the front door of the serving subsystem: clients
submit :class:`TuningRequest`\\ s (possibly concurrently, from several
tenants) and get back a :class:`JobHandle` immediately.  The service then

* answers **registry hits** in O(1) — a workload whose structural fingerprint
  is already in the :class:`~repro.serving.registry.ScheduleRegistry` gets
  the stored best schedule back without consuming a single measurement trial,
* **coalesces** duplicate in-flight requests — N concurrent submissions of
  structurally identical workloads share one tuning job, whose budget grows
  to the largest request's,
* **streams every outcome** into the registry (and an optional
  :class:`~repro.records.RecordStore`), so completed jobs warm-start future
  requests across process boundaries.

Submission is thread-safe; the search itself is driven cooperatively by
:meth:`TuningService.run` (or :meth:`process`, which submits a batch and
runs it to completion), which tunes the oldest in-flight job to completion
before it starts the next, so results are bit-deterministic for a fixed
seed regardless of how many clients submitted.  Drivers that allocate
rounds themselves (the end-to-end network tuner, the network front end)
call :meth:`TuningService.advance` and :meth:`TuningService.finish`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import make_scheduler
from repro.core.config import HARLConfig
from repro.core.tuner import TuningResult
from repro.faults.plan import InjectedCrash, poll as poll_fault
from repro.hardware.target import HardwareTarget, cpu_target
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span as obs_span, trace_event
from repro.records import schedule_from_dict
from repro.serving.fingerprint import structural_fingerprint
from repro.serving.registry import RegistryEntry, ScheduleRegistry
from repro.tensor.dag import ComputeDAG

__all__ = ["TuningRequest", "JobHandle", "TuningService"]

_REQUESTS = counter("service.requests", "Requests submitted to the TuningService")
_REGISTRY_HITS = counter("service.registry_hits", "Requests answered O(1) from the registry")
_COALESCED = counter("service.coalesced", "Requests coalesced onto an in-flight job")
_JOBS_CREATED = counter("service.jobs_created", "Fresh tuning jobs created")
_JOBS_FINISHED = counter("service.jobs_finished", "Jobs flushed to the registry")
_JOBS_ABORTED = counter("service.jobs_aborted", "Jobs torn down after a scheduler error")
_RECOVERED = counter("service.recovered_entries", "Registry entries restored from record logs")
_SUBMIT_TO_FINISH = histogram(
    "service.submit_to_finish_seconds", help="Latency from submit() to handle resolution"
)


@dataclass(frozen=True)
class TuningRequest:
    """One client request: tune ``dag`` on the service's target.

    ``force_tune`` bypasses the registry fast path (the tenant wants fresh
    measurements even if a best-known schedule exists).
    """

    dag: ComputeDAG
    n_trials: int = 64
    scheduler: str = "harl"
    tenant: str = "default"
    force_tune: bool = False


#: How a handle's result was produced.
SOURCE_REGISTRY = "registry-hit"
SOURCE_SCHEDULED = "scheduled"
SOURCE_COALESCED = "coalesced"


@dataclass
class JobHandle:
    """Client-side view of one submitted request.

    ``source`` says whether the answer came straight from the registry, from
    a tuning job created for this request, or from an in-flight job the
    request was coalesced into.  ``result`` is populated when ``done``.
    """

    request: TuningRequest
    fingerprint: str
    source: str
    done: bool = False
    result: Optional[TuningResult] = None
    submitted_at: float = field(default=0.0, repr=False, compare=False)

    def _finish(self, result: TuningResult) -> None:
        self.result = result
        self.done = True
        if self.submitted_at:
            _SUBMIT_TO_FINISH.observe(time.perf_counter() - self.submitted_at)


class _Job:
    """One in-flight tuning job (possibly serving several coalesced handles)."""

    def __init__(self, key: Tuple[str, str], request: TuningRequest, scheduler):
        self.key = key
        self.dag = request.dag
        self.scheduler = scheduler
        self.n_trials = int(request.n_trials)
        self.trials_used = 0  # guarded-by: drive_lock
        # Exactly one round may run per job at a time: concurrent
        # run()/advance() drivers serialize here, and the budget is
        # recomputed under the lock so two drivers can never both pass the
        # remaining-trials check and double-drive the job.
        self.drive_lock = threading.Lock()
        self.finished = False  # guarded-by: drive_lock
        self.handles: List[JobHandle] = []
        self.tenants: List[str] = []

    def attach(self, handle: JobHandle, request: TuningRequest) -> None:
        self.handles.append(handle)
        self.tenants.append(request.tenant)
        # A coalesced duplicate can only extend, never shrink, the budget.
        self.n_trials = max(self.n_trials, int(request.n_trials))


class TuningService:
    """Asynchronous multi-tenant tuning front end over the schedule registry.

    Parameters
    ----------
    registry:
        Shared :class:`ScheduleRegistry` (defaults to a fresh in-memory one).
        Completed jobs are recorded into it; incoming requests are answered
        from it when possible and warm-started from it otherwise.
    target / config / seed:
        Hardware target, HARL configuration and base seed shared by all jobs.
        Job seeds are derived deterministically from the base seed and the
        job creation index, so a request batch reproduces exactly.
    record_store:
        Optional :class:`~repro.records.RecordStore`; every measurement of
        every job is streamed into it (tagged per workload), giving the
        service one consolidated, resumable measurement log.
    catalog:
        :class:`~repro.hardware.catalog.TargetCatalog` used to resolve donor
        targets for cross-target transfer warm starts (defaults to the
        built-in catalog).  When a workload has no donors on the service's
        own target, the registry borrows the best schedule of the closest
        related device and re-fits it; the donor target is recorded in the
        finished job's registry provenance.
    scheduler_factory:
        Override job construction: ``factory(name, seed, warm_start_provider)
        -> scheduler``; tests use it to substitute fakes.  The default is
        :func:`~repro.baselines.make_scheduler` with the service's target,
        config and record store, so a request may name any scheduler the
        factory knows.
    """

    def __init__(
        self,
        registry: Optional[ScheduleRegistry] = None,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        record_store=None,
        scheduler_factory: Optional[Callable[..., object]] = None,
        max_warm_start: int = 6,
        catalog=None,
    ):
        self.registry = registry if registry is not None else ScheduleRegistry()
        self.target = target or cpu_target()
        self.config = config or HARLConfig.scaled()
        self.seed = int(seed)
        self.record_store = record_store
        self.scheduler_factory = scheduler_factory
        self.max_warm_start = int(max_warm_start)
        self.catalog = catalog
        self._lock = threading.Lock()
        # In submission order: run() drives the oldest job first.
        self._jobs: Dict[Tuple[str, str], _Job] = {}  # guarded-by: _lock
        self._transfer_donors: Dict[str, List[str]] = {}  # guarded-by: _lock
        self._warm_start_donors: Dict[str, List[str]] = {}  # guarded-by: _lock
        self.jobs_created = 0  # guarded-by: _lock
        self.registry_hits = 0  # guarded-by: _lock
        self.coalesced_requests = 0  # guarded-by: _lock
        self.aborted_jobs = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # job construction
    # ------------------------------------------------------------------ #
    def _warm_start_provider(self):
        registry, target, k = self.registry, self.target, self.max_warm_start

        def provider(dag: ComputeDAG):
            candidates = registry.warm_start_transfers(
                dag, target, max_candidates=k, catalog=self.catalog
            )
            donors = sorted({c.donor.target for c in candidates if c.cross_target})
            workloads = sorted({c.donor.workload for c in candidates})
            if donors or workloads:
                # The fingerprint is memoised on the DAG (submit() already
                # computed it), so this lookup stays outside the lock.
                fingerprint = structural_fingerprint(dag)
                with self._lock:
                    if donors:
                        self._transfer_donors[fingerprint] = donors
                    if workloads:
                        self._warm_start_donors[fingerprint] = workloads
            return [c.schedule for c in candidates]

        return provider

    def _build_scheduler(self, name: str, seed: int):
        provider = self._warm_start_provider()
        if self.scheduler_factory is not None:
            return self.scheduler_factory(name, seed, provider)
        return make_scheduler(
            name, self.target, self.config, seed,
            record_store=self.record_store, warm_start_provider=provider,
        )

    def _registry_answer(self, request: TuningRequest, fingerprint: str, entry):
        """Synthesize a zero-trial result from a registry entry.

        Called *outside* the service lock: restoring the stored schedule
        regenerates sketches, which must not serialize concurrent submits.
        """
        schedule = None
        if entry.schedule is not None:
            try:
                schedule = schedule_from_dict(
                    entry.schedule, request.dag, check_workload=False
                )
            except (KeyError, TypeError, ValueError):
                # Malformed stored schedule: still answer with the recorded
                # latency, just without a restorable schedule object.
                schedule = None
        return TuningResult(
            workload=request.dag.name,
            scheduler="registry",
            best_latency=entry.latency,
            best_throughput=entry.throughput,
            best_schedule=schedule,
            trials_used=0,
            search_steps=0,
            history=[],
            extras={
                "fingerprint": fingerprint,
                "registry_source": entry.source,
                "registry_scheduler": entry.scheduler,
                "registry_trials": entry.trials,
            },
        )

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def submit(self, request: TuningRequest) -> JobHandle:
        """Submit one request; returns immediately with a handle.

        Thread-safe: concurrent submissions of structurally identical
        workloads coalesce onto one job no matter how they interleave.
        """
        submitted_at = time.perf_counter()
        _REQUESTS.inc()
        fingerprint = structural_fingerprint(request.dag)
        if not request.force_tune:
            # Registry hits never create or join jobs, so the whole fast path
            # (including the sketch-regenerating schedule restore) runs
            # without the service lock.
            entry = self.registry.lookup(fingerprint, self.target, k=0).entry
            if entry is not None:
                with self._lock:
                    self.registry_hits += 1
                _REGISTRY_HITS.inc()
                handle = JobHandle(
                    request, fingerprint, SOURCE_REGISTRY, submitted_at=submitted_at
                )
                handle._finish(self._registry_answer(request, fingerprint, entry))
                return handle
        with self._lock:
            key = (fingerprint, self.target.name)
            job = self._jobs.get(key)
            if job is not None:
                self.coalesced_requests += 1
                _COALESCED.inc()
                handle = JobHandle(
                    request, fingerprint, SOURCE_COALESCED, submitted_at=submitted_at
                )
                job.attach(handle, request)
                return handle
            scheduler = self._build_scheduler(
                request.scheduler, self.seed + 7919 * self.jobs_created
            )
            self.jobs_created += 1
            _JOBS_CREATED.inc()
            job = _Job(key, request, scheduler)
            handle = JobHandle(
                request, fingerprint, SOURCE_SCHEDULED, submitted_at=submitted_at
            )
            job.attach(handle, request)
            self._jobs[key] = job
            return handle

    def active_jobs(self) -> int:
        """Number of jobs currently in flight."""
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------ #
    # driving the search
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Drive all in-flight jobs to completion; returns rounds executed.

        Each round goes to the oldest in-flight job, whose scheduler runs one
        tuning round (bounded by the job's remaining trial budget), so a job
        runs to completion before the next one starts.  Finished jobs are
        flushed to the registry and their handles, and jobs submitted
        meanwhile are picked up in turn.
        """
        rounds = 0
        while True:
            with self._lock:
                job = next(iter(self._jobs.values()), None)
            if job is None:
                return rounds
            self._drive_round(job)
            rounds += 1

    def _drive_round(self, job: _Job, max_measures: Optional[int] = None) -> int:
        """Run one tuning round on ``job``; returns the trials consumed.

        Shared by :meth:`run` and :meth:`advance`.  The job's drive lock
        serializes concurrent drivers (exactly one round runs per job at a
        time) and the remaining budget is recomputed under it, so racing
        ``run()``/``advance()`` callers cannot double-drive a job past its
        budget or finish it twice.  ``max_measures`` caps this round only; a
        cap of 0 is a budget probe, not exhaustion — it returns 0 without
        touching the job.  A round that genuinely consumes nothing means the
        scheduler is exhausted and the job finishes.

        A scheduler that raises does not strand its waiters: the job is
        aborted (every coalesced handle resolves with an error-tagged result)
        before the exception propagates.  An
        :class:`~repro.faults.plan.InjectedCrash` is the one exception to
        that — it simulates the whole process dying, so nothing (including
        the abort path) may run after it; recovery happens in a fresh service
        via :meth:`recover_from_records`.
        """
        # A zero/negative per-round cap consumes nothing by definition; it
        # must not reach the spent == 0 exhaustion check below, which would
        # prematurely finalize a job that still has budget.
        if max_measures is not None and int(max_measures) <= 0:
            return 0
        with job.drive_lock:
            if job.finished:
                return 0
            budget = job.n_trials - job.trials_used
            if max_measures is not None:
                budget = min(budget, int(max_measures))
            if budget <= 0:
                # Genuine exhaustion: another driver spent the last trials
                # while we waited on the lock.
                self._finish_job_locked(job)
                return 0
            with obs_span(
                "service.round", job=job.key[0][:12], workload=job.dag.name,
                budget=budget,
            ) as round_span:
                try:
                    spent = job.scheduler.tune_round(job.dag, max_measures=budget)
                except InjectedCrash:
                    raise
                except Exception as exc:
                    self._abort_job_locked(job, exc)
                    raise
                job.trials_used += spent
                round_span.annotate(trials=spent)
                fired = poll_fault("service.advance", detail=job.key[0][:12])
                if fired is not None:
                    fired.crash(
                        f"crash between advance and finish of job {job.key[0][:12]}"
                    )
                if job.trials_used >= job.n_trials or spent == 0:
                    self._finish_job_locked(job)
        return spent

    def _abort_job_locked(self, job: _Job, exc: BaseException) -> None:
        """Tear a failed job down without deadlocking its coalesced waiters.

        Caller holds ``job.drive_lock``.  Every handle resolves with the
        job's best-so-far (when the scheduler
        can still finalize) or an explicit error result, the error is noted in
        ``extras["error"]``, and the job leaves the in-flight table so a
        resubmission starts fresh.
        """
        try:
            result = job.scheduler.finalize(job.dag)
        except Exception:
            result = TuningResult(
                workload=job.dag.name,
                scheduler="aborted",
                best_latency=float("inf"),
                best_throughput=0.0,
                best_schedule=None,
                trials_used=job.trials_used,
                search_steps=0,
                history=[],
            )
        result.extras["fingerprint"] = job.key[0]
        result.extras["tenants"] = list(job.tenants)
        result.extras["error"] = f"{type(exc).__name__}: {exc}"
        try:
            # Salvage whatever the job did measure (record_result ignores
            # inf-latency results, so a scheduler dead on arrival is a no-op).
            self.registry.record_result(
                job.dag, self.target, result, source="service:aborted"
            )
        except Exception:
            pass
        job.finished = True
        with self._lock:
            self._jobs.pop(job.key, None)
            self.aborted_jobs += 1
        _JOBS_ABORTED.inc()
        trace_event(
            "service.aborted", job=job.key[0][:12], error=f"{type(exc).__name__}: {exc}"
        )
        for handle in job.handles:
            handle._finish(result)

    def recover_from_records(self, store=None, source: str = "recovery") -> int:
        """Fold a measurement log's best-per-workload back into the registry.

        This is the restart path for a service that crashed between a round
        commit and the job finish: the measurements were durably streamed to
        the :class:`~repro.records.RecordStore`, but the registry never saw
        the finished job.  Replaying the log's per-fingerprint best restores
        the registry answer the crashed job would have produced.  Idempotent
        (the registry only accepts strict improvements); returns how many
        entries the registry accepted.
        """
        store = store if store is not None else self.record_store
        if store is None:
            return 0
        with obs_span("service.recover", source=source) as recover_span:
            best: Dict[str, Tuple[float, object]] = {}
            counts: Dict[str, int] = {}
            for rec in store.query(kind="measure"):
                fingerprint = getattr(rec, "fingerprint", "") or ""
                if not fingerprint:
                    continue
                counts[fingerprint] = counts.get(fingerprint, 0) + 1
                held = best.get(fingerprint)
                if held is None or rec.latency < held[0]:
                    best[fingerprint] = (rec.latency, rec)
            accepted = 0
            for fingerprint, (latency, rec) in best.items():
                entry = RegistryEntry(
                    fingerprint=fingerprint,
                    target=self.target.name,
                    workload=rec.workload,
                    latency=float(latency),
                    throughput=float(rec.throughput),
                    trials=counts[fingerprint],
                    scheduler=rec.scheduler or "recovered",
                    schedule=rec.schedule,
                    # Recovered entries keep the embedding the measurement
                    # persisted, so they stay visible to neighbour lookups
                    # and cross-target transfer after a crash (legacy logs
                    # without embeddings recover with an empty one).
                    embedding=tuple(getattr(rec, "embedding", ()) or ()),
                    source=source,
                )
                if self.registry.record(entry):
                    accepted += 1
            recover_span.annotate(workloads=len(best), accepted=accepted)
        _RECOVERED.inc(accepted)
        trace_event("service.recovered", accepted=accepted, workloads=len(best))
        return accepted

    def _finish_job_locked(self, job: _Job) -> None:
        # Caller holds job.drive_lock: finishing must not race another round.
        # A finalize or registry write that raises is handled like a failed
        # round: the job is aborted, so its waiters resolve, then re-raised.
        try:
            with obs_span("service.finish", job=job.key[0][:12], workload=job.dag.name):
                self._finish_job_inner_locked(job)
        except InjectedCrash:
            raise
        except Exception as exc:
            self._abort_job_locked(job, exc)
            raise
        _JOBS_FINISHED.inc()

    def _finish_job_inner_locked(self, job: _Job) -> None:
        job.finished = True
        result = job.scheduler.finalize(job.dag)
        result.extras["fingerprint"] = job.key[0]
        result.extras["tenants"] = list(job.tenants)
        with self._lock:
            donors = self._transfer_donors.pop(job.key[0], [])
            warm_donors = self._warm_start_donors.pop(job.key[0], [])
        if donors:
            result.extras["transfer_donors"] = donors
        if warm_donors:
            result.extras["warm_start_donors"] = warm_donors
        self.registry.record_result(
            job.dag,
            self.target,
            result,
            source=f"service:{','.join(sorted(set(job.tenants)))}",
            donor_target=",".join(donors),
        )
        with self._lock:
            self._jobs.pop(job.key, None)
        for handle in job.handles:
            handle._finish(result)

    # ------------------------------------------------------------------ #
    # external round drivers (network tuning)
    # ------------------------------------------------------------------ #
    def _job_of(self, handle: JobHandle) -> Optional[_Job]:
        with self._lock:
            return self._jobs.get((handle.fingerprint, self.target.name))

    def advance(self, handle: JobHandle, max_measures: Optional[int] = None) -> int:
        """Run one tuning round on the job serving ``handle``.

        This is the hook for drivers that own the budget-allocation policy
        themselves (the end-to-end ``NetworkTuner`` allocates rounds across a
        network's subgraphs with the Eq. 3 gradient or the HARL bandit)
        instead of delegating to :meth:`run`, which tunes the oldest job.  Returns the
        measurement trials consumed — 0 when the handle is already done
        (registry hit, or its job finished through a coalesced sibling), or
        when ``max_measures=0`` (a budget probe — the job stays active).
        The job is finished (flushed to the registry, all its handles
        resolved) once its trial budget is exhausted or an unconstrained
        round consumes nothing.
        """
        if handle.done:
            return 0
        job = self._job_of(handle)
        if job is None:
            return 0
        return self._drive_round(job, max_measures=max_measures)

    def finish(self, handle: JobHandle) -> TuningResult:
        """Finalize the job serving ``handle`` now, regardless of budget left.

        Used by round drivers whose *global* budget ran out before every
        per-job budget did; the job's best-so-far is flushed to the registry
        and every coalesced handle resolves.  Idempotent for done handles.
        """
        if not handle.done:
            job = self._job_of(handle)
            if job is not None:
                # Wait out any in-flight round, then finish exactly once.
                with job.drive_lock:
                    if not job.finished:
                        self._finish_job_locked(job)
        if handle.result is None:
            raise ValueError(
                "finish() got a handle this service does not own "
                f"(fingerprint {handle.fingerprint[:12]}…)"
            )
        return handle.result

    def current_latency(self, handle: JobHandle) -> float:
        """Best latency known for a handle so far (``inf`` before any trial)."""
        if handle.done:
            if handle.result is None:
                raise ValueError("done handle has no result")
            return float(handle.result.best_latency)
        job = self._job_of(handle)
        if job is None:
            return float("inf")
        return float(job.scheduler.measurer.best_latency(job.dag.name))

    def process(self, requests: Sequence[TuningRequest]) -> List[JobHandle]:
        """Submit a batch of requests and run the service until all complete."""
        handles = [self.submit(request) for request in requests]
        self.run()
        return handles
