"""Analytic latency simulator.

This module replaces real hardware measurements.  Given a schedule and a
:class:`~repro.hardware.target.HardwareTarget` it computes an estimated
execution latency from first-order performance effects:

* vectorisation efficiency of the innermost spatial tile,
* register-tile size (too small → loop overhead, too large → spills),
* loop overhead vs. the auto-unroll depth (with an i-cache pressure penalty),
* cache locality of the L1/L2 tile working sets,
* DRAM traffic as a function of outer tile counts, cache-write and fusion,
* parallel speedup with load balance, task-spawn overhead and (on GPU)
  occupancy,
* compute-at placement of the fused/cached stage,
* rfactor reduction parallelism,
* a deterministic per-schedule "ruggedness" factor that models the
  unmodelled micro-architectural noise which makes real tuning landscapes
  multi-modal.

The absolute numbers are not meant to match the paper's hardware; what
matters is that the landscape is schedule-sensitive and rugged, so the search
algorithms face the same kind of optimisation problem.

Two implementations share the model:

* :meth:`LatencySimulator.reference_breakdown` — the scalar reference, one
  schedule at a time (the oracle of the equivalence tests and the baseline
  the perf harness times the batch path against);
* :meth:`LatencySimulator.batch_latency` / :meth:`batch_breakdown` — the
  vectorised path: the batch is grouped by sketch, sketch-static quantities
  are computed once per group (and memoised on the sketch), and every
  efficiency factor is evaluated as one NumPy expression over the group.
  Single-schedule calls (:meth:`latency`, :meth:`breakdown`) route through a
  batch of one, so serial and batched measurement stay equivalent by
  construction.  The two implementations agree to floating-point rounding
  (the vectorised path uses NumPy transcendentals where the scalar path used
  ``float.__pow__``; tests pin the agreement at ``rtol=1e-9``).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.hardware.target import HardwareTarget
from repro.tensor.dag import DTYPE_BYTES
from repro.tensor.factors import product
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["LatencySimulator", "SimulationBreakdown"]


@dataclass(frozen=True)
class SimulationBreakdown:
    """Detailed per-component timing (exposed for tests, debugging and docs)."""

    latency: float
    compute_time: float
    memory_time: float
    parallel_overhead: float
    epilogue_time: float
    speedup: float
    efficiency: float
    ruggedness: float
    factors: Dict[str, float]


#: Attribute under which per-sketch simulator statics are memoised.
_STATICS_ATTR = "_simulator_statics_cache"


class _SketchStatics:
    """Target-independent per-sketch constants of the latency model.

    Everything here depends only on the sketch and its DAG — iterator
    counts, tiling depths, FLOPs, epilogue work, compute-at geometry, the
    rfactor piece count — so it is computed once per sketch instance and
    shared by every batch (and every simulator) that touches the sketch.
    """

    __slots__ = (
        "n_spatial",
        "n_reduction",
        "spatial_levels",
        "reduction_levels",
        "flops",
        "fuse_consumer",
        "cache_write",
        "rfactor",
        "has_data_reuse",
        "input_bytes",
        "output_bytes",
        "rfactor_pieces",
        "n_candidates",
        "ca_ideal",
        "ca_weight",
        "ca_denominator",
        "pending_flops",
        "pending_bytes",
        "fusion_eff",
    )

    def __init__(self, sketch: Sketch):
        dag = sketch.dag
        main = dag.main_stage
        self.n_spatial = len(main.spatial_iters)
        self.n_reduction = len(main.reduction_iters)
        self.spatial_levels = sketch.spatial_levels
        self.reduction_levels = sketch.reduction_levels
        self.flops = max(dag.flops, 1.0)
        self.fuse_consumer = sketch.fuse_consumer
        self.cache_write = sketch.cache_write
        self.rfactor = sketch.rfactor
        self.has_data_reuse = dag.has_data_reuse
        self.input_bytes = float(dag.input_bytes)
        self.output_bytes = float(dag.output_bytes)

        total_reduction = 1
        for it in main.reduction_iters:
            total_reduction *= it.extent
        self.rfactor_pieces = (
            min(8, max(1, total_reduction // 128)) if sketch.rfactor else 1
        )

        n_candidates = len(dag.compute_at_candidates())
        self.n_candidates = n_candidates
        self.ca_ideal = min(1 + self.n_spatial // 2, n_candidates - 1)
        self.ca_weight = 0.15 if (sketch.fuse_consumer or sketch.cache_write) else 0.03
        self.ca_denominator = max(n_candidates - 1, 1)

        pending_flops = 0.0
        pending_bytes = 0.0
        if not sketch.fuse_consumer:
            for stage in dag.elementwise_stages:
                if stage.name in sketch.inlined_stages:
                    continue
                if dag.main_stage_name not in stage.producers:
                    continue
                pending_flops += stage.flops
                pending_bytes += stage.output_elements * DTYPE_BYTES * 2
        self.pending_flops = pending_flops
        self.pending_bytes = pending_bytes
        self.fusion_eff = 1.05 if sketch.fuse_consumer else 1.0


def _masked_pow(values: np.ndarray, mask: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` on the masked elements, bit-compatible with CPython.

    The scalar reference path computes its cache/register/i-cache penalties
    with ``float.__pow__`` (libm ``pow``), which differs from ``np.power`` in
    the last ulp for a few percent of inputs.  Those ulps matter: measured
    latencies feed the cost model, and a single flipped tree split changes a
    whole search trajectory.  Penalties are rare enough (only schedules that
    blow a budget) that evaluating them through Python's ``pow`` keeps the
    batch bit-identical to the serial reference at negligible cost.
    """
    out = np.ones_like(values)
    if mask.any():
        out[mask] = [v**exponent for v in values[mask].tolist()]
    return out


def _statics_of(sketch: Sketch) -> _SketchStatics:
    statics = sketch.__dict__.get(_STATICS_ATTR)
    if statics is None:
        statics = _SketchStatics(sketch)
        object.__setattr__(sketch, _STATICS_ATTR, statics)
    return statics


class LatencySimulator:
    """Deterministic schedule → latency model for one hardware target."""

    #: Noise amplitude of the deterministic ruggedness factor.
    RUGGEDNESS_SIGMA = 0.05
    #: Relative loop-overhead constant (cycles of control flow per body op).
    LOOP_OVERHEAD = 6.0
    #: Register-tile volume beyond which spill penalties kick in (fp32 values).
    REGISTER_BUDGET = 512.0
    #: Instruction-footprint budget for unrolled bodies before i-cache penalties.
    ICACHE_BUDGET = 4096.0

    def __init__(self, target: HardwareTarget, ruggedness_seed: int = 0):
        self.target = target
        self.ruggedness_seed = int(ruggedness_seed)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def latency(self, schedule: Schedule) -> float:
        """Estimated execution latency (seconds) of one schedule."""
        return float(self.batch_latency([schedule])[0])

    def throughput(self, schedule: Schedule) -> float:
        """FLOP/s achieved by the schedule (used as the 'performance' metric)."""
        lat = self.latency(schedule)
        return schedule.dag.flops / lat if lat > 0 else 0.0

    def breakdown(self, schedule: Schedule) -> SimulationBreakdown:
        """Full per-component timing decomposition of one schedule."""
        return self.batch_breakdown([schedule])[0]

    # ------------------------------------------------------------------ #
    # vectorised batch path
    # ------------------------------------------------------------------ #
    def batch_latency(self, schedules: Sequence[Schedule]) -> np.ndarray:
        """Latencies of a whole batch in one vectorised pass per sketch group.

        This is the entry point of the measurement hot path: the
        :class:`~repro.hardware.measurer.Measurer` hands every measurement
        batch here instead of looping schedule by schedule.
        """
        if not schedules:
            return np.zeros(0, dtype=np.float64)
        out = np.zeros(len(schedules), dtype=np.float64)
        for sketch, rows in self._groups(schedules):
            comp = self._batch_components(sketch, [schedules[i] for i in rows])
            out[np.asarray(rows, dtype=np.intp)] = comp["latency"]
        return out

    def batch_breakdown(
        self, schedules: Sequence[Schedule]
    ) -> List[SimulationBreakdown]:
        """Per-component decompositions for a batch (vectorised per group)."""
        results: List[SimulationBreakdown] = [None] * len(schedules)  # type: ignore
        for sketch, rows in self._groups(schedules):
            group = [schedules[i] for i in rows]
            comp = self._batch_components(sketch, group)
            for local, row in enumerate(rows):
                results[row] = SimulationBreakdown(
                    latency=float(comp["latency"][local]),
                    compute_time=float(comp["compute_time"][local]),
                    memory_time=float(comp["memory_time"][local]),
                    parallel_overhead=float(comp["parallel_overhead"][local]),
                    epilogue_time=float(comp["epilogue_time"][local]),
                    speedup=float(comp["speedup"][local]),
                    efficiency=float(comp["efficiency"][local]),
                    ruggedness=float(comp["ruggedness"][local]),
                    factors={
                        "vector": float(comp["vector"][local]),
                        "register": float(comp["register"][local]),
                        "loop": float(comp["loop"][local]),
                        "cache": float(comp["cache"][local]),
                        "compute_at": float(comp["compute_at"][local]),
                        "fusion": float(comp["fusion"][local]),
                        "speedup": float(comp["speedup"][local]),
                    },
                )
        return results

    @staticmethod
    def _groups(schedules: Sequence[Schedule]):
        groups: Dict[int, List[int]] = {}
        keep: Dict[int, Sketch] = {}
        for idx, schedule in enumerate(schedules):
            key = id(schedule.sketch)
            keep[key] = schedule.sketch
            groups.setdefault(key, []).append(idx)
        return [(keep[key], rows) for key, rows in groups.items()]

    def _batch_components(
        self, sketch: Sketch, schedules: Sequence[Schedule]
    ) -> Dict[str, np.ndarray]:
        """All latency-model components of one sketch group, as arrays."""
        target = self.target
        st = _statics_of(sketch)
        n = len(schedules)

        tiles = np.asarray([s.flat_tile_sizes() for s in schedules], dtype=np.float64)
        n_sp, n_red = st.n_spatial, st.n_reduction
        ls, lr = st.spatial_levels, st.reduction_levels
        tiles_sp = tiles[:, : n_sp * ls].reshape(n, n_sp, ls)
        tiles_red = tiles[:, n_sp * ls :].reshape(n, n_red, lr)

        num_parallel = np.asarray([s.num_parallel for s in schedules], dtype=np.intp)
        compute_at = np.asarray(
            [s.compute_at_index for s in schedules], dtype=np.float64
        )
        unroll = np.asarray([s.unroll_depth for s in schedules], dtype=np.float64)

        # --- vectorisation efficiency ---------------------------------- #
        vw = float(target.vector_width)
        if n_sp:
            t_vec = tiles_sp[:, -1, -1]
            vector = np.where(
                t_vec >= vw,
                np.where(t_vec % vw == 0, 1.0, 0.85),
                np.maximum(0.15, 0.25 + 0.75 * t_vec / vw),
            )
        else:
            t_vec = np.ones(n)
            vector = np.full(n, 0.5)

        # --- register-tile efficiency ---------------------------------- #
        spatial_vol = np.prod(tiles_sp[:, :, -1], axis=1) if n_sp else np.ones(n)
        reduction_vol = np.prod(tiles_red[:, :, -1], axis=1) if n_red else np.ones(n)
        reg_vol = spatial_vol * np.maximum(reduction_vol, 1.0)
        spilled = reg_vol > self.REGISTER_BUDGET
        register = np.where(
            spilled,
            np.maximum(
                0.35, _masked_pow(self.REGISTER_BUDGET / reg_vol, spilled, 0.5)
            ),
            1.0,
        )

        # --- loop overhead / unrolling --------------------------------- #
        body = np.maximum(reg_vol, 1.0)
        # The unroll term must be bit-identical to the scalar reference's
        # math.log2 (np.log2 differs in the last ulp for some inputs, e.g.
        # 1621.0); there are at most len(unroll_depths) distinct values per
        # batch, so one libm call per unique value keeps this exact.
        log_unroll = np.empty(n)
        unroll_plus2 = 2.0 + unroll
        for value in np.unique(unroll_plus2):
            log_unroll[unroll_plus2 == value] = math.log2(value)
        effective_body = body * np.maximum(1.0, log_unroll)
        loop = 1.0 / (1.0 + self.LOOP_OVERHEAD / effective_body)
        instr_footprint = body * np.maximum(unroll, 1.0)
        pressured = instr_footprint > self.ICACHE_BUDGET
        loop = np.where(
            pressured,
            loop
            * np.maximum(
                0.5,
                _masked_pow(self.ICACHE_BUDGET / instr_footprint, pressured, 0.25),
            ),
            loop,
        )

        # --- cache locality of the L1/L2 working sets ------------------- #
        def working_set(spatial_levels: int, reduction_levels: int) -> np.ndarray:
            if n_sp:
                inner = np.prod(tiles_sp[:, :, ls - min(spatial_levels, ls) :], axis=2)
                prod_sp = np.prod(inner, axis=1)
                sum_sp = np.sum(inner, axis=1)
            else:
                prod_sp = np.ones(n)
                sum_sp = np.zeros(n)
            if n_red:
                prod_red = np.prod(
                    tiles_red[:, :, lr - min(reduction_levels, lr) :], axis=(1, 2)
                )
            else:
                prod_red = np.ones(n)
            return DTYPE_BYTES * (prod_sp + prod_red * sum_sp)

        ws_l1 = working_set(2, 1)
        ws_l2 = working_set(3, 2)
        over_l1 = ws_l1 > target.l1_bytes
        over_l2 = ws_l2 > target.l2_bytes
        cache = np.where(
            over_l1,
            np.maximum(0.45, _masked_pow(target.l1_bytes / ws_l1, over_l1, 0.25)),
            1.0,
        ) * np.where(
            over_l2,
            np.maximum(0.6, _masked_pow(target.l2_bytes / ws_l2, over_l2, 0.15)),
            1.0,
        )

        # --- compute-at placement -------------------------------------- #
        if st.n_candidates <= 1:
            compute_at_eff = np.ones(n)
        else:
            distance = np.abs(compute_at - st.ca_ideal) / st.ca_denominator
            compute_at_eff = 1.0 - st.ca_weight * distance

        fusion = np.full(n, st.fusion_eff)
        efficiency = np.clip(
            vector * register * loop * cache * compute_at_eff * fusion, 1e-4, 1.0
        )

        # --- parallel speedup ------------------------------------------ #
        if n_sp:
            prefix = np.concatenate(
                [np.ones((n, 1)), np.cumprod(tiles_sp[:, :, 0], axis=1)], axis=1
            )
            par_extent = prefix[np.arange(n), num_parallel]
        else:
            par_extent = np.ones(n)
        par_extent = par_extent * st.rfactor_pieces

        cores = float(target.num_cores)
        rounds = np.ceil(par_extent / cores)
        speedup = np.minimum(par_extent / np.maximum(rounds, 1.0), cores)
        if target.kind == "gpu":
            occupancy = np.minimum(1.0, par_extent / (cores * 8.0))
            speedup = np.maximum(speedup * np.maximum(0.15, occupancy), 1.0)
        overhead = target.parallel_overhead * (par_extent / np.maximum(speedup, 1.0))
        serial = par_extent <= 1
        speedup = np.where(serial, 1.0, speedup)
        par_overhead = np.where(serial, 0.0, overhead)

        # --- DRAM traffic ---------------------------------------------- #
        outer_reduction = np.prod(tiles_red[:, :, 0], axis=1) if n_red else np.ones(n)
        outer_spatial = np.prod(tiles_sp[:, :, 0], axis=1) if n_sp else np.ones(n)
        if st.cache_write or not st.has_data_reuse:
            output_traffic = np.full(n, st.output_bytes)
        else:
            output_traffic = st.output_bytes * (2.0 * outer_reduction - 1.0)
        reread = np.maximum(1.0, np.sqrt(outer_spatial) / 2.0)
        traffic = output_traffic + st.input_bytes * reread
        if st.fuse_consumer:
            traffic = traffic * 0.85
        if st.rfactor:
            traffic = traffic + st.output_bytes * 4.0
        memory_time = traffic / target.dram_bandwidth

        # --- epilogue, compute time, ruggedness ------------------------- #
        if st.pending_flops == 0.0:
            epilogue_time = np.zeros(n)
        else:
            epilogue = max(
                st.pending_flops / (target.peak_flops * 0.25),
                st.pending_bytes / target.dram_bandwidth,
            )
            epilogue_time = np.full(n, epilogue)

        compute_time = st.flops / (target.peak_flops_per_core * efficiency) / speedup

        ruggedness = np.empty(n)
        for i, schedule in enumerate(schedules):
            ruggedness[i] = self._ruggedness(schedule)

        overlapped = np.maximum(compute_time, memory_time) + 0.25 * np.minimum(
            compute_time, memory_time
        )
        latency = (
            overlapped + par_overhead + target.kernel_overhead + epilogue_time
        ) * ruggedness

        return {
            "latency": latency,
            "compute_time": compute_time,
            "memory_time": memory_time,
            "parallel_overhead": par_overhead,
            "epilogue_time": epilogue_time,
            "speedup": speedup,
            "efficiency": efficiency,
            "ruggedness": ruggedness,
            "vector": vector,
            "register": register,
            "loop": loop,
            "cache": cache,
            "compute_at": compute_at_eff,
            "fusion": fusion,
        }

    # ------------------------------------------------------------------ #
    # scalar reference path
    # ------------------------------------------------------------------ #
    def reference_breakdown(self, schedule: Schedule) -> SimulationBreakdown:
        """Scalar reference decomposition of one schedule.

        This is the original schedule-at-a-time implementation, kept as the
        oracle the serial-vs-vectorised equivalence tests compare
        :meth:`batch_latency` against and as the baseline the perf harness
        times it against.
        """
        target = self.target
        dag = schedule.dag
        flops = max(dag.flops, 1.0)

        spatial = schedule.spatial_tile_sizes()
        reduction = schedule.reduction_tile_sizes()

        factors: Dict[str, float] = {}

        vector_eff = self._vectorization_efficiency(spatial)
        factors["vector"] = vector_eff

        register_eff = self._register_efficiency(schedule)
        factors["register"] = register_eff

        loop_eff = self._loop_overhead_efficiency(schedule)
        factors["loop"] = loop_eff

        cache_eff = self._cache_efficiency(schedule, spatial, reduction)
        factors["cache"] = cache_eff

        compute_at_eff = self._compute_at_efficiency(schedule)
        factors["compute_at"] = compute_at_eff

        fusion_eff = 1.05 if schedule.sketch.fuse_consumer else 1.0
        factors["fusion"] = fusion_eff

        efficiency = vector_eff * register_eff * loop_eff * cache_eff * compute_at_eff * fusion_eff
        efficiency = float(np.clip(efficiency, 1e-4, 1.0))

        speedup, par_overhead = self._parallel_speedup(schedule)
        factors["speedup"] = speedup

        compute_time = flops / (target.peak_flops_per_core * efficiency) / speedup

        memory_time = self._memory_time(schedule, spatial, reduction)
        epilogue_time = self._epilogue_time(schedule)

        ruggedness = self._ruggedness(schedule)

        overlapped = max(compute_time, memory_time) + 0.25 * min(compute_time, memory_time)
        latency = (overlapped + par_overhead + target.kernel_overhead + epilogue_time) * ruggedness

        return SimulationBreakdown(
            latency=float(latency),
            compute_time=float(compute_time),
            memory_time=float(memory_time),
            parallel_overhead=float(par_overhead),
            epilogue_time=float(epilogue_time),
            speedup=float(speedup),
            efficiency=float(efficiency),
            ruggedness=float(ruggedness),
            factors=factors,
        )

    # ------------------------------------------------------------------ #
    # individual effects (scalar reference)
    # ------------------------------------------------------------------ #
    def _vectorization_efficiency(self, spatial) -> float:
        """SIMD utilisation of the innermost spatial tile (the vectorised axis)."""
        if not spatial:
            return 0.5
        vw = self.target.vector_width
        t_vec = spatial[-1][-1]
        if t_vec >= vw:
            return 1.0 if t_vec % vw == 0 else 0.85
        return max(0.15, 0.25 + 0.75 * t_vec / vw)

    def _register_efficiency(self, schedule: Schedule) -> float:
        """Penalty for register tiles that exceed the register file."""
        reg_vol = schedule.innermost_spatial_volume() * max(
            schedule.innermost_reduction_volume(), 1
        )
        if reg_vol <= self.REGISTER_BUDGET:
            return 1.0
        return float(max(0.35, (self.REGISTER_BUDGET / reg_vol) ** 0.5))

    def _loop_overhead_efficiency(self, schedule: Schedule) -> float:
        """Loop control overhead, reduced by unrolling up to i-cache limits."""
        body = max(
            schedule.innermost_spatial_volume() * max(schedule.innermost_reduction_volume(), 1),
            1,
        )
        unroll = schedule.unroll_depth
        effective_body = body * max(1.0, math.log2(2 + unroll))
        overhead_fraction = self.LOOP_OVERHEAD / effective_body
        eff = 1.0 / (1.0 + overhead_fraction)
        instr_footprint = body * max(unroll, 1)
        if instr_footprint > self.ICACHE_BUDGET:
            eff *= max(0.5, (self.ICACHE_BUDGET / instr_footprint) ** 0.25)
        return float(eff)

    def _cache_efficiency(self, schedule: Schedule, spatial, reduction) -> float:
        """Locality of the L1 and L2 working sets of the tiled loop nest."""
        target = self.target

        def working_set(spatial_levels: int, reduction_levels: int) -> float:
            prod_sp = 1.0
            sum_sp = 0.0
            for sizes in spatial:
                inner = product(sizes[-spatial_levels:]) if sizes else 1
                prod_sp *= inner
                sum_sp += inner
            prod_red = 1.0
            for sizes in reduction:
                prod_red *= product(sizes[-reduction_levels:]) if sizes else 1
            # Output tile + one operand tile per spatial dimension streamed over
            # the reduction tile (the GEMM A/B footprint generalised).
            return DTYPE_BYTES * (prod_sp + prod_red * sum_sp)

        ws_l1 = working_set(2, 1)
        ws_l2 = working_set(3, 2)

        eff_l1 = 1.0 if ws_l1 <= target.l1_bytes else max(0.45, (target.l1_bytes / ws_l1) ** 0.25)
        eff_l2 = 1.0 if ws_l2 <= target.l2_bytes else max(0.6, (target.l2_bytes / ws_l2) ** 0.15)
        return float(eff_l1 * eff_l2)

    def _compute_at_efficiency(self, schedule: Schedule) -> float:
        """Placement quality of the fused consumer / cache-write stage.

        The ideal compute-at location sits in the middle of the spatial loop
        nest (after the outer parallel tiles, before the register tiles);
        positions further away lose producer-consumer reuse.  When the sketch
        has neither fusion nor cache-write the knob only has a small residual
        effect (loop-invariant hoisting of the inlined epilogue).
        """
        n_candidates = len(schedule.dag.compute_at_candidates())
        if n_candidates <= 1:
            return 1.0
        relevant = schedule.sketch.fuse_consumer or schedule.sketch.cache_write
        weight = 0.15 if relevant else 0.03
        ideal = 1 + len(schedule.dag.main_stage.spatial_iters) // 2
        ideal = min(ideal, n_candidates - 1)
        distance = abs(schedule.compute_at_index - ideal) / max(n_candidates - 1, 1)
        return float(1.0 - weight * distance)

    def _parallel_speedup(self, schedule: Schedule) -> tuple:
        """Parallel speedup and the associated task-spawn overhead."""
        target = self.target
        par_extent = schedule.parallel_extent()

        if schedule.sketch.rfactor:
            # Reduction factorisation exposes extra parallelism, most useful
            # when the spatial iteration space alone cannot fill the machine.
            total_reduction = 1
            for it in schedule.dag.main_stage.reduction_iters:
                total_reduction *= it.extent
            rfactor_pieces = min(8, max(1, total_reduction // 128))
            par_extent *= rfactor_pieces

        if par_extent <= 1:
            return 1.0, 0.0

        cores = target.num_cores
        # Load-balanced speedup: work is split into `par_extent` equal chunks
        # scheduled round-robin over `cores` workers.
        rounds = math.ceil(par_extent / cores)
        speedup = par_extent / rounds
        speedup = min(speedup, cores)

        if target.kind == "gpu":
            # GPUs need an excess of independent blocks to hide latency.
            occupancy = min(1.0, par_extent / (cores * 8.0))
            speedup *= max(0.15, occupancy)
            speedup = max(speedup, 1.0)

        overhead = target.parallel_overhead * (par_extent / max(speedup, 1.0))
        return float(speedup), float(overhead)

    def _memory_time(self, schedule: Schedule, spatial, reduction) -> float:
        """DRAM traffic model: outer tile counts determine how often operands stream."""
        dag = schedule.dag
        target = self.target

        outer_reduction = 1
        for sizes in reduction:
            outer_reduction *= sizes[0] if sizes else 1

        outer_spatial_tiles = 1
        for sizes in spatial:
            outer_spatial_tiles *= sizes[0] if sizes else 1

        if schedule.sketch.cache_write or not dag.has_data_reuse:
            output_traffic = dag.output_bytes
        else:
            # Splitting the reduction at the outermost level re-reads and
            # re-writes the partial output once per outer reduction tile.
            output_traffic = dag.output_bytes * (2 * outer_reduction - 1)

        # Each input operand streams roughly once per outer spatial tile of
        # the dimensions it does not index; the square root is a generic
        # surrogate for "half of the outer dimensions don't index me".
        reread = max(1.0, math.sqrt(outer_spatial_tiles) / 2.0)
        input_traffic = dag.input_bytes * reread

        traffic = output_traffic + input_traffic
        if schedule.sketch.fuse_consumer:
            traffic *= 0.85  # the epilogue round-trip through DRAM disappears
        if schedule.sketch.rfactor:
            traffic += dag.output_bytes * 4  # partial-result combine pass

        return float(traffic / target.dram_bandwidth)

    def _epilogue_time(self, schedule: Schedule) -> float:
        """Cost of element-wise stages that are neither inlined nor fused."""
        dag = schedule.dag
        sketch = schedule.sketch
        if sketch.fuse_consumer:
            return 0.0
        pending_flops = 0.0
        pending_bytes = 0.0
        for stage in dag.elementwise_stages:
            if stage.name in sketch.inlined_stages:
                continue
            if dag.main_stage_name not in stage.producers:
                continue
            pending_flops += stage.flops
            pending_bytes += stage.output_elements * DTYPE_BYTES * 2
        if pending_flops == 0.0:
            return 0.0
        compute = pending_flops / (self.target.peak_flops * 0.25)
        memory = pending_bytes / self.target.dram_bandwidth
        return float(max(compute, memory))

    def _ruggedness(self, schedule: Schedule) -> float:
        """Deterministic multiplicative noise keyed on the schedule identity."""
        signature = repr(schedule.signature()) + f"|{self.target.name}|{self.ruggedness_seed}"
        seed = zlib.crc32(signature.encode("utf-8"))
        rng = np.random.default_rng(seed)
        noise = float(rng.standard_normal()) * self.RUGGEDNESS_SIGMA
        return float(np.clip(1.0 + noise, 0.85, 1.15))
