"""Batched, parallel measurement pipeline.

:class:`ParallelMeasurer` fans a batch of candidate schedules out over a
thread or process pool, mirroring the batched RPC measurement used by Ansor
and AutoTVM on real hardware.  Two properties make it a drop-in replacement
for the serial :class:`~repro.hardware.measurer.Measurer`:

* **Noise is pre-drawn in submission order** — the measurer takes one
  standard-normal draw per schedule from its sequential RNG *before* the
  batch is fanned out, so each task is a pure function of its inputs and
  results do not depend on worker count or completion order.
* **Atomic batch commits** — workers only evaluate the pure
  :func:`~repro.hardware.measurer.simulate_measurement_batch` function on
  their span of the batch; all statistics (trial counters, best-per-workload,
  progress history) are folded in by the inherited ``_commit_batch`` in
  submission order, exactly as a serial run would.

With a fixed seed, ``ParallelMeasurer(target, num_workers=4)`` therefore
produces bit-identical latencies, histories and trial accounting to
``Measurer(target)``.

Purity also makes the pipeline fault-tolerant for free: when a worker dies
mid-batch (a real RPC board dropping off, or an injected
:class:`~repro.faults.plan.WorkerDeath`), its span of the batch is simply
re-evaluated inline — with the *same* pre-drawn noise — yielding results
bit-identical to an undisturbed run.  Retries are bounded by
``max_worker_retries`` so a persistently failing span surfaces as an error
instead of an infinite loop.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import WorkerDeath, poll as poll_fault
from repro.hardware.measurer import (
    Measurer,
    simulate_measurement_batch,
)
from repro.hardware.simulator import LatencySimulator
from repro.hardware.target import HardwareTarget
from repro.obs.metrics import counter, histogram
from repro.obs.trace import current_span_id, span as obs_span
from repro.tensor.schedule import Schedule

__all__ = ["ParallelMeasurer"]

_BATCHES = counter("parallel.batches", "Measurement batches fanned out over a pool")
_WORKER_DEATHS = counter("parallel.worker_deaths", "Worker deaths observed mid-batch")
_WORKER_RETRIES = counter("parallel.worker_retries", "Inline retries of dead workers' spans")
_BATCH_SECONDS = histogram("parallel.batch_seconds", help="Wall time per parallel batch")

#: Per-process simulator cache for process-pool workers, keyed by the full
#: (frozen, hashable) target so two different configurations never collide,
#: while repeated tasks for one target skip re-building the simulator.
_WORKER_SIMULATORS = {}


def _process_span_task(
    schedules: Sequence[Schedule],
    target: HardwareTarget,
    noise: float,
    min_repeat_seconds: float,
    max_repeats: int,
    draws: Sequence[float],
) -> List[Tuple[float, int]]:
    """Top-level worker entry point for process pools (must be picklable)."""
    simulator = _WORKER_SIMULATORS.get(target)
    if simulator is None:
        simulator = LatencySimulator(target)
        _WORKER_SIMULATORS[target] = simulator
    return simulate_measurement_batch(
        schedules, simulator, noise, min_repeat_seconds, max_repeats, draws
    )


def _injected_worker_death(index: int) -> List[Tuple[float, int]]:
    """Top-level (picklable) stand-in for a task whose worker dies."""
    raise WorkerDeath(f"worker evaluating measurement chunk {index} died")


class ParallelMeasurer(Measurer):
    """Measurer that evaluates each batch on a pool of workers.

    Parameters
    ----------
    target:
        Hardware target to simulate.
    num_workers:
        Pool size; defaults to the machine's CPU count.  ``num_workers=1``
        degenerates to fully serial evaluation (no pool is created).
    mode:
        ``"thread"`` (default) or ``"process"``.  The simulated backend is
        NumPy-bound, so threads primarily model the fan-out structure of a
        real RPC measurer while keeping zero serialisation overhead;
        ``"process"`` pays pickling costs per task but provides true CPU
        parallelism for expensive measurement backends.
    max_worker_retries:
        How many times a span whose worker died is re-evaluated inline
        before the batch gives up and raises
        :class:`~repro.faults.plan.WorkerDeath`.
    noise / min_repeat_seconds / max_repeats / seed / record_store:
        Forwarded to :class:`~repro.hardware.measurer.Measurer`.
    """

    def __init__(
        self,
        target: HardwareTarget,
        num_workers: Optional[int] = None,
        mode: str = "thread",
        max_worker_retries: int = 2,
        **kwargs,
    ):
        super().__init__(target, **kwargs)
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown pool mode {mode!r}; use 'thread' or 'process'")
        self.num_workers = max(1, int(num_workers or os.cpu_count() or 1))
        self.mode = mode
        self.max_worker_retries = max(0, int(max_worker_retries))
        self.worker_deaths = 0
        self.worker_retries = 0
        self._executor: Optional[Executor] = None

    # ------------------------------------------------------------------ #
    def _ensure_executor(self) -> Executor:
        """Create the worker pool lazily on the first parallel batch."""
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.num_workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="measurer",
                )
        return self._executor

    def _run_batch(
        self, schedules: Sequence[Schedule], draws: Sequence[float]
    ) -> List[Tuple[float, int]]:
        """Fan a batch of measurement tasks out over the pool.

        The batch is split into contiguous *spans* (one schedule per span in
        process mode, one chunk per worker in thread mode) and futures are
        gathered in submission order, so downstream statistics commits see
        the batch exactly as a serial measurer would.  A span whose worker
        dies is recovered by :meth:`_retry_span`.
        """
        if self.num_workers == 1 or len(schedules) <= 1:
            return super()._run_batch(schedules, draws)
        began = time.perf_counter()
        with obs_span(
            "measure.batch",
            schedules=len(schedules),
            workers=self.num_workers,
            mode=self.mode,
        ) as batch_span:
            executor = self._ensure_executor()
            # Thread-pool workers do not inherit this thread's context, so
            # the batch span's id is captured here (inside the span) and
            # handed to each worker task explicitly as its parent.
            parent = current_span_id()
            if self.mode == "process":
                # One schedule per span: pickling whole chunks buys nothing and a
                # dead worker then invalidates the smallest possible unit.
                spans = [(start, start + 1) for start in range(len(schedules))]
            else:
                # Thread mode: split the batch into one contiguous, vectorised
                # chunk per worker.  Per-element results are independent of the
                # chunking (see simulate_measurement_batch), so worker count
                # never changes outcomes — only how the NumPy passes are
                # distributed.
                chunk = max(1, -(-len(schedules) // self.num_workers))
                spans = [
                    (start, min(start + chunk, len(schedules)))
                    for start in range(0, len(schedules), chunk)
                ]
            futures = [
                self._submit_span(
                    executor, index, schedules[lo:hi], draws[lo:hi], parent
                )
                for index, (lo, hi) in enumerate(spans)
            ]
            results: List[Tuple[float, int]] = []
            deaths = 0
            for index, ((lo, hi), future) in enumerate(zip(spans, futures)):
                try:
                    results.extend(future.result())
                except (WorkerDeath, BrokenExecutor) as cause:
                    self.worker_deaths += 1
                    deaths += 1
                    _WORKER_DEATHS.inc()
                    if isinstance(cause, BrokenExecutor):
                        # The pool itself is unusable; drop it so the next batch
                        # rebuilds a fresh one.
                        executor.shutdown(wait=False)
                        self._executor = None
                    results.extend(
                        self._retry_span(index, schedules[lo:hi], draws[lo:hi], cause)
                    )
            if deaths:
                batch_span.annotate(worker_deaths=deaths)
        _BATCHES.inc()
        _BATCH_SECONDS.observe(time.perf_counter() - began)
        return results

    def _submit_span(
        self,
        executor: Executor,
        index: int,
        schedules: Sequence[Schedule],
        draws: Sequence[float],
        parent=None,
    ):
        """Submit one contiguous span of the batch to the pool.

        The ``parallel.worker`` fault point is polled *here*, on the main
        thread in submission order, so which span dies is deterministic for
        a fixed plan regardless of pool scheduling.  ``parent`` is the trace
        id of the enclosing batch span, forwarded because pool workers do
        not inherit the submitting thread's context.
        """
        fired = poll_fault("parallel.worker", detail=f"chunk-{index}")
        die = fired is not None and fired.spec.kind == "worker_death"
        if self.mode == "process":
            if die:
                return executor.submit(_injected_worker_death, index)
            return executor.submit(
                _process_span_task,
                schedules,
                self.target,
                self.noise,
                self.min_repeat_seconds,
                self.max_repeats,
                draws,
            )
        return executor.submit(
            self._thread_span_task, index, schedules, draws, die, parent
        )

    def _thread_span_task(
        self,
        index: int,
        schedules: Sequence[Schedule],
        draws: Sequence[float],
        die: bool,
        parent=None,
    ) -> List[Tuple[float, int]]:
        with obs_span(
            "measure.chunk", parent=parent, chunk=index, schedules=len(schedules)
        ):
            if die:
                raise WorkerDeath(f"worker evaluating measurement chunk {index} died")
            return simulate_measurement_batch(
                schedules,
                self.simulator,
                self.noise,
                self.min_repeat_seconds,
                self.max_repeats,
                draws,
            )

    def _retry_span(
        self,
        index: int,
        schedules: Sequence[Schedule],
        draws: Sequence[float],
        cause: BaseException,
    ) -> List[Tuple[float, int]]:
        """Re-evaluate a dead worker's span inline, with bounded retries.

        The task is pure and the noise draws are fixed, so the retried
        results are bit-identical to what the dead worker would have
        produced.  Retries poll the fault point again (detail
        ``retry-K:chunk-N``) so tests can kill retries too and verify the
        bound is honoured.
        """
        for attempt in range(1, self.max_worker_retries + 1):
            fired = poll_fault("parallel.worker", detail=f"retry-{attempt}:chunk-{index}")
            self.worker_retries += 1
            _WORKER_RETRIES.inc()
            if fired is not None and fired.spec.kind == "worker_death":
                continue
            return simulate_measurement_batch(
                schedules,
                self.simulator,
                self.noise,
                self.min_repeat_seconds,
                self.max_repeats,
                draws,
            )
        raise WorkerDeath(
            f"measurement chunk {index} failed {self.max_worker_retries + 1} times; giving up"
        ) from cause

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelMeasurer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
