"""Asyncio network front end over the :class:`~repro.serving.service.TuningService`.

:class:`ServingServer` turns the in-process tuning service into a
long-running TCP endpoint, so the paper's tuning-as-a-service story (O(1)
registry hits, coalesced in-flight jobs) holds for *real* concurrent
clients over a wire.

Wire protocol
-------------
Newline-delimited JSON-RPC: every request is one JSON object on one line —
``{"id": ..., "method": ..., "params": {...}}`` — and every response is one
line ``{"id": ..., "ok": bool, "degraded": bool, "result": ...}`` (or
``"error": {"code", "message"}`` when ``ok`` is false).  Methods:

``tune``
    ``params = {"op", "batch", "trials", "tenant", "force_tune"}`` — the
    operator classes of :data:`~repro.experiments.operator_suite.OPERATOR_CLASSES`;
    ``trials`` below 1 is answered ``bad_request`` before admission.
    Answered with the workload's best latency/throughput, trials consumed
    and result source (``registry-hit`` / ``scheduled`` / ``coalesced``).
``query``
    Registry-only lookup; never tunes.
``stats`` / ``ping``
    Server + service counters; liveness probe.

Admission control and degradation
---------------------------------
All admission decisions happen in the event loop, before any tuning work:

1. **Per-tenant token bucket** (``rate`` tokens/s, ``burst`` capacity) —
   rejected requests get the explicit error code ``rate_limited``.
2. **Per-tenant trial quota** — the request's trial budget is *reserved*
   at admission and settled to the trials actually consumed on completion
   (so registry hits are nearly free); exceeding it answers
   ``quota_exceeded``.
3. **Registry fast path** — an exact fingerprint hit is answered inline
   from the event loop without consuming an admission slot, keeping the
   O(1) story intact under load.
4. **Bounded admission** — at most ``max_inflight`` tuning requests hold
   slots at once; the event loop counts them in one loop-confined integer.
   When saturated the server *sheds load* instead of queueing without
   bound: the request is answered registry-only with an explicit
   ``degraded: true`` flag (a stored best if one exists, the error code
   ``overloaded`` otherwise).  A shed request is never left hanging and
   never dropped silently.

Admitted requests are driven by a small worker-thread pool through the
service's ``submit``/``advance`` API; the handler awaits the worker with a
``request_timeout`` and answers the explicit error code ``timeout`` when it
expires (the slot is released when the worker's completion reaches the
event loop, so a wedged backend still backpressures admission).

Fault points: ``server.accept`` fires in the worker between dequeue and
tuning (``slow_disk`` stalls the backend, ``crash`` drops the connection
without a response — the client's bounded retry covers it) and
``server.shed`` fires while answering a shed request.  See
:mod:`repro.faults` and the ``timeout.enforced`` / ``retry.bounded`` /
``shed.answers_from_registry`` gate obligations.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.operator_suite import representative_dag
from repro.faults.plan import poll as poll_fault
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.trace import span as obs_span, trace_event
from repro.serving.fingerprint import structural_fingerprint
from repro.serving.service import TuningRequest, TuningService

__all__ = ["ServerConfig", "ServingServer"]

_REQUESTS = counter("server.requests", "Wire requests received by the network front end")
_ACCEPTED = counter("server.accepted", "Tune requests admitted to the worker pool")
_FAST_HITS = counter("server.fast_hits", "Tune requests answered inline from the registry")
_SHED = counter("server.shed", "Tune requests shed (answered registry-only, degraded)")
_RATE_LIMITED = counter("server.rate_limited", "Requests rejected by the token bucket")
_QUOTA_REJECTED = counter("server.quota_rejected", "Requests rejected by the tenant quota")
_TIMEOUTS = counter("server.timeouts", "Requests answered with the timeout error code")
_DEGRADED = counter("server.degraded", "Responses carrying the degraded flag")
_DROPPED = counter("server.dropped", "Connections dropped by an injected accept fault")
_QUEUE_DEPTH = gauge("server.queue_depth", "Tune requests currently holding admission slots")
_REQUEST_SECONDS = histogram(
    "server.request_seconds", help="Wire latency from request read to response write"
)

#: Longest request line the front end reads; longer input from the network
#: is rejected instead of buffered.
MAX_LINE_BYTES = 1 << 20

#: Worker-side sentinel: answer nothing and close the connection (models a
#: backend that died mid-request; the client's bounded retry recovers it).
_DROP = object()


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the network front end.

    ``port=0`` binds an ephemeral port (read the real one off
    :attr:`ServingServer.port` after start).  ``rate <= 0`` disables rate
    limiting and ``quota <= 0`` disables quotas.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 4
    workers: int = 2
    request_timeout: float = 30.0
    rate: float = 0.0        # tokens (requests) per second per tenant
    burst: int = 8           # token-bucket capacity per tenant
    quota: int = 0           # max total measurement trials per tenant


class _TokenBucket:
    """Classic token bucket; one per tenant, touched only in the event loop."""

    def __init__(self, rate: float, burst: int):
        self.rate = float(rate)
        self.burst = max(int(burst), 1)
        self.tokens = float(self.burst)
        self.last = time.monotonic()

    def admit(self) -> bool:
        now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ServingServer:
    """Long-running TCP front end over one :class:`TuningService`.

    The asyncio event loop runs in a dedicated background thread (so the
    server composes with synchronous tests and the CLI), admitted requests
    are driven by ``config.workers`` worker threads, and the whole thing is
    a context manager::

        with ServingServer(service) as server:
            client = TuningClient("127.0.0.1", server.port)
            reply = client.tune("GEMM-S")

    Admission is counted once, on the event loop: a tune request takes a
    slot when it is admitted and gives it back in
    :meth:`_complete_request`, which the worker posts to the loop when the
    backend returns.  Workers never touch admission state.
    """

    def __init__(self, service: TuningService, config: Optional[ServerConfig] = None):
        self.service = service
        self.config = config or ServerConfig()
        self.host = self.config.host
        self.port: Optional[int] = None
        # Wire-visible counters, mirrored as server.* metrics.
        self.requests = 0
        self.accepted = 0
        self.fast_hits = 0
        self.shed = 0
        self.rate_limited = 0
        self.quota_rejected = 0
        self.timeouts = 0
        self.dropped = 0
        self._buckets: Dict[str, _TokenBucket] = {}
        # Loop-confined admission state: _quota_used and _inflight are only
        # ever touched on the event-loop thread.  Workers report completions
        # via loop.call_soon_threadsafe (see _worker_loop), so no threading
        # lock is held inside async handlers — a blocking lock there would
        # park the whole loop, not just one task.
        self._quota_used: Dict[str, int] = {}
        self._dags: Dict[Tuple[str, int], object] = {}
        self._inflight = 0
        self._work: "queue.Queue" = queue.Queue()
        self._workers: list = []
        self._stop = threading.Event()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: set = set()
        self._writers: set = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="serving-server", daemon=True
        )
        self._thread.start()
        for index in range(max(self.config.workers, 1)):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.port is None:
            raise RuntimeError("server failed to bind within 10s")
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, wake the loop, and join workers (idempotent)."""
        self._stop.set()
        if self._loop is not None and self._closing is not None:
            try:
                self._loop.call_soon_threadsafe(self._closing.set)
            except RuntimeError:
                pass  # loop already closed
        for _worker in self._workers:
            self._work.put(None)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._closing = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        trace_event("server.started", host=self.host, port=self.port)
        self._started.set()
        async with server:
            await self._closing.wait()
        # Drain open connections instead of letting asyncio.run() cancel the
        # handler tasks mid-await (which is noisy and skips their cleanup):
        # closing the transports makes every pending readline return EOF.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=2.0)
        trace_event("server.stopped", port=self.port)

    # ------------------------------------------------------------------ #
    # connection handling (event loop)
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        self._conn_tasks.add(asyncio.current_task())
        self._writers.add(writer)
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, self._error(None, "bad_request",
                                                          "request line too long"))
                    break
                if not line:
                    break
                began = time.perf_counter()
                self.requests += 1
                _REQUESTS.inc()
                response = await self._dispatch(line)
                _REQUEST_SECONDS.observe(time.perf_counter() - began)
                if response is _DROP:
                    break  # close without replying; client retry covers it
                await self._write(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _write(writer, payload: dict) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    @staticmethod
    def _error(request_id, code: str, message: str, degraded: bool = False) -> dict:
        if degraded:
            _DEGRADED.inc()
        return {
            "id": request_id,
            "ok": False,
            "degraded": degraded,
            "error": {"code": code, "message": message},
        }

    @staticmethod
    def _answer(request_id, result: dict, degraded: bool = False) -> dict:
        if degraded:
            _DEGRADED.inc()
        return {"id": request_id, "ok": True, "degraded": degraded, "result": result}

    async def _dispatch(self, line: bytes):
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return self._error(None, "bad_request", f"unparseable request: {exc}")
        request_id = message.get("id")
        method = message.get("method")
        params = message.get("params") or {}
        if not isinstance(params, dict):
            return self._error(request_id, "bad_request", "params must be an object")
        if method == "ping":
            return self._answer(request_id, {"pong": True})
        if method == "stats":
            return self._answer(request_id, self.stats())
        if method == "query":
            return self._query(request_id, params)
        if method == "tune":
            return await self._tune(request_id, params)
        return self._error(request_id, "bad_request", f"unknown method {method!r}")

    def _dag_of(self, params: dict):
        op = str(params.get("op", "GEMM-S"))
        batch = int(params.get("batch", 1))
        key = (op, batch)
        dag = self._dags.get(key)
        if dag is None:
            # One DAG instance per (op, batch) keeps the memoised fingerprint
            # and embedding hot and coalesces identical wire requests onto
            # identical structural keys.
            dag = representative_dag(op, batch=batch)
            self._dags[key] = dag
        return dag

    def _query(self, request_id, params: dict):
        try:
            dag = self._dag_of(params)
        except (KeyError, TypeError, ValueError) as exc:
            return self._error(request_id, "bad_request", str(exc))
        entry = self.service.registry.lookup(
            structural_fingerprint(dag), self.service.target, k=0
        ).entry
        if entry is None:
            return self._answer(request_id, {"found": False, "workload": dag.name})
        return self._answer(request_id, {
            "found": True,
            "workload": entry.workload,
            "latency": entry.latency,
            "throughput": entry.throughput,
            "trials": entry.trials,
            "scheduler": entry.scheduler,
            "source": entry.source,
        })

    async def _tune(self, request_id, params: dict):
        try:
            dag = self._dag_of(params)
            trials = int(params.get("trials", 16))
            if trials < 1:
                # A negative reservation would never settle and would hand
                # the tenant extra quota.
                raise ValueError(f"trials must be at least 1, got {trials}")
            tenant = str(params.get("tenant", "default"))
            force_tune = bool(params.get("force_tune", False))
        except (KeyError, TypeError, ValueError) as exc:
            return self._error(request_id, "bad_request", str(exc))

        # 1. Token bucket.
        if self.config.rate > 0:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _TokenBucket(
                    self.config.rate, self.config.burst
                )
            if not bucket.admit():
                self.rate_limited += 1
                _RATE_LIMITED.inc()
                return self._error(
                    request_id, "rate_limited",
                    f"tenant {tenant!r} exceeded {self.config.rate:g} req/s "
                    f"(burst {self.config.burst})",
                )

        # 2. Trial quota (reserve now, settle to actual consumption later).
        # Loop-confined: no await between the read and the write, so the
        # check-and-reserve is atomic without any lock.
        if self.config.quota > 0:
            used = self._quota_used.get(tenant, 0)
            if used + trials > self.config.quota:
                self.quota_rejected += 1
                _QUOTA_REJECTED.inc()
                return self._error(
                    request_id, "quota_exceeded",
                    f"tenant {tenant!r} has {self.config.quota - used} of "
                    f"{self.config.quota} trials left; requested {trials}",
                )
            self._quota_used[tenant] = used + trials

        fingerprint = structural_fingerprint(dag)
        entry = None
        if not force_tune:
            entry = self.service.registry.lookup(
                fingerprint, self.service.target, k=0
            ).entry

        # 3. Registry fast path: answered inline, no admission slot burned.
        if entry is not None:
            self.fast_hits += 1
            _FAST_HITS.inc()
            self._settle_quota(tenant, reserved=trials, used=0)
            return self._answer(request_id, self._entry_result(entry, source="registry-hit"))

        # 4. Bounded admission; saturated -> shed, never queue unboundedly.
        if self._inflight >= max(self.config.max_inflight, 1):
            return self._shed_answer(request_id, dag, fingerprint, tenant, trials)

        self.accepted += 1
        _ACCEPTED.inc()
        self._inflight += 1
        _QUEUE_DEPTH.set(self._inflight)
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self._work.put((dag, trials, tenant, force_tune, future,
                        asyncio.get_running_loop()))
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), timeout=self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self.timeouts += 1
            _TIMEOUTS.inc()
            trace_event("server.timeout", tenant=tenant, workload=dag.name)
            return self._error(
                request_id, "timeout",
                f"request exceeded {self.config.request_timeout:g}s "
                f"(workload {dag.name}); the job keeps its admission slot "
                "until the backend finishes",
            )
        if payload is _DROP:
            self.dropped += 1
            _DROPPED.inc()
            return _DROP
        if "error" in payload:
            return self._error(request_id, "internal", payload["error"])
        return self._answer(request_id, payload)

    def _entry_result(self, entry, source: str) -> dict:
        return {
            "workload": entry.workload,
            "latency": entry.latency,
            "throughput": entry.throughput,
            "trials_used": 0,
            "source": source,
        }

    def _shed_answer(self, request_id, dag, fingerprint: str, tenant: str, trials: int):
        """Answer a saturated request registry-only, flagged ``degraded``."""
        self.shed += 1
        _SHED.inc()
        self._settle_quota(tenant, reserved=trials, used=0)
        trace_event("server.shed", tenant=tenant, workload=dag.name)
        fired = poll_fault("server.shed", detail=f"{tenant}:{dag.name}")
        if fired is not None:
            if fired.spec.kind == "slow_disk":
                fired.sleep()
            else:
                # A failure while shedding behaves like a dead backend: drop
                # the connection; the client's bounded retry re-asks and the
                # next shed (or admission) answers.
                self.dropped += 1
                _DROPPED.inc()
                return _DROP
        entry = self.service.registry.lookup(fingerprint, self.service.target, k=0).entry
        if entry is None:
            return self._error(
                request_id, "overloaded",
                f"server saturated ({self.config.max_inflight} in flight) and "
                f"the registry holds no entry for {dag.name}; retry later",
                degraded=True,
            )
        return self._answer(
            request_id,
            self._entry_result(entry, source="registry-hit"),
            degraded=True,
        )

    def _settle_quota(self, tenant: str, reserved: int, used: int) -> None:
        """Release the reserved-but-unused part of a tenant's quota.

        Loop-confined: only ever called on the event-loop thread (inline from
        the fast/shed paths, or via the completion callback workers post).
        """
        if self.config.quota > 0 and reserved > used:
            self._quota_used[tenant] = max(
                self._quota_used.get(tenant, 0) - (reserved - used), 0
            )

    def _complete_request(self, tenant: str, reserved: int, future, payload) -> None:
        """Loop-confined completion of one admitted request.

        Posted by workers via ``call_soon_threadsafe``: drops the inflight
        count (which frees the admission slot), settles the tenant's quota to
        actual consumption, and resolves the handler's future — all on the
        loop thread, so none of the state it touches needs a lock.  Quota is
        only settled when the backend produced a real result (``trials_used``
        present): an exception or a dropped connection keeps the reservation,
        exactly as before.
        """
        self._inflight -= 1
        _QUEUE_DEPTH.set(self._inflight)
        if isinstance(payload, dict) and "trials_used" in payload:
            self._settle_quota(tenant, reserved=reserved, used=int(payload["trials_used"]))
        _resolve(future, payload)

    # ------------------------------------------------------------------ #
    # worker pool (threads)
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            dag, trials, tenant, force_tune, future, loop = item
            try:
                payload = self._drive(dag, trials, tenant, force_tune)
            except Exception as exc:  # resolved as a wire error
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            try:
                loop.call_soon_threadsafe(
                    self._complete_request, tenant, trials, future, payload
                )
            except RuntimeError:
                pass  # loop shut down while we were tuning

    def _drive(self, dag, trials: int, tenant: str, force_tune: bool):
        fired = poll_fault("server.accept", detail=f"{tenant}:{dag.name}")
        if fired is not None:
            if fired.spec.kind == "slow_disk":
                fired.sleep()  # wedged backend: the handler's timeout answers
            else:
                return _DROP
        with obs_span("server.job", workload=dag.name, tenant=tenant) as job_span:
            handle = self.service.submit(TuningRequest(
                dag=dag, n_trials=trials, tenant=tenant, force_tune=force_tune
            ))
            while not handle.done and not self._stop.is_set():
                self.service.advance(handle)
            if not handle.done:
                # Server shutdown mid-job: flush best-so-far so no waiter
                # (local or coalesced) is stranded.
                self.service.finish(handle)
            result = handle.result
            job_span.annotate(source=handle.source, trials=result.trials_used)
        # Quota settling happens loop-side in _complete_request, keyed off the
        # trials_used field below; workers never touch admission state.
        payload = {
            "workload": result.workload,
            "latency": result.best_latency,
            "throughput": result.best_throughput,
            "trials_used": result.trials_used,
            "source": handle.source,
        }
        if "error" in result.extras:
            payload["error"] = result.extras["error"]
        return payload

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Server + service counters, as served by the ``stats`` method.

        Counters are loop-confined ints; reading them from another thread
        (the CLI does, after shutdown) yields a GIL-atomic snapshot.
        """
        return {
            "requests": self.requests,
            "accepted": self.accepted,
            "fast_hits": self.fast_hits,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "quota_rejected": self.quota_rejected,
            "timeouts": self.timeouts,
            "dropped": self.dropped,
            "inflight": self._inflight,
            "service": {
                "jobs_created": self.service.jobs_created,
                "registry_hits": self.service.registry_hits,
                "coalesced_requests": self.service.coalesced_requests,
                "aborted_jobs": self.service.aborted_jobs,
                "registry_entries": len(self.service.registry),
            },
        }


def _resolve(future: "asyncio.Future", payload) -> None:
    if not future.done():
        future.set_result(payload)
