"""Discrete-event scenarios: BASE / SU / SU+O / SU+O+C iterations.

Each scenario simulates one steady-state training iteration on a
:class:`Fabric` and reports the paper's three-phase breakdown:

* **FW** — forward compute (plus parameter streaming in the congested
  multi-GPU topology);
* **BW + Grad Offload** — backward compute overlapped with gradient
  offloading to storage (dense, or Top-K-compressed for SmartComp);
* **Update + Opt upload/offload** — the storage-bound update phase, which
  dominates the baseline (Fig. 3a) and is what SmartUpdate moves onto the
  CSDs' internal bandwidth.

Modelling choices that map to the paper:

* The baseline's update is a depth-2 pipelined loop of
  RAID-read -> CPU AVX update -> RAID-write over model blocks (DeepSpeed's
  overlapped offload engine).
* Plain SU runs per-subgroup read -> FPGA update -> write with DMA-level
  double buffering but pays a per-tasklet buffer-allocation overhead
  (Fig. 5a); SU+O removes that overhead, writes parameters urgently,
  defers state write-backs, and overlaps the upstream master transfer
  (Fig. 5b).
* SU+O+C additionally shrinks the backward gradient offload to c% x 2M and
  inserts the FPGA decompressor into the per-subgroup pipeline (Fig. 6).
* The update phase cannot start before the *whole* gradient offload
  completes (loss-scale NaN/Inf scan + global-norm clipping, §IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import HardwareConfigError
from ..hw.topology import SystemSpec
from ..sim.core import Simulator
from ..sim.resources import PhaseClock, Semaphore
from .fabric import (CSD_BASE_OVERHEAD, Fabric, HANDLER_SUBGROUP_OVERHEAD,
                     NAIVE_SUBGROUP_OVERHEAD)
from .workload import Workload

METHODS = ("baseline", "su", "su_o", "su_o_c")

#: Execution schedules.  ``phased`` is the paper's strict
#: forward -> backward+offload -> update sequence; ``interleaved``
#: (Deep Optimizer States, PAPERS.md) starts each device's update
#: pipeline as soon as the gradient blocks it needs have landed, hiding
#: most of the update phase inside backward.
SCHEDULES = ("phased", "interleaved")

#: Extension methods beyond the paper's evaluation: "su_o_c_q" adds the
#: §VIII-B CSD-side int8 quantization of the upstream parameters on top
#: of SU+O+C, cutting the remaining upstream transfer ~4x.
EXTENSION_METHODS = ("su_o_c_q",)

#: The methods that Top-K-compress the gradient offload (SmartComp), so
#: the only ones ``compression_ratio`` changes.
COMPRESSED_METHODS = ("su_o_c", "su_o_c_q")

#: Safety margin: fraction of FPGA DRAM usable for subgroup buffers.
DRAM_UTILIZATION = 0.9

#: Blocks per forward/backward pass (layer granularity of Fig. 1).
DEFAULT_NUM_BLOCKS = 16

#: Minimum subgroups per CSD shard: the handler double-buffers, so each
#: subgroup may use at most half the accelerator DRAM, and very small
#: shards are still split so the load/update/write-back pipeline has
#: stages to overlap.
MIN_SUBGROUPS_PER_DEVICE = 6


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-phase times of one simulated iteration (seconds)."""

    forward: float
    backward_grad: float
    update: float

    @property
    def total(self) -> float:
        return self.forward + self.backward_grad + self.update

    def speedup_over(self, other: "PhaseBreakdown") -> float:
        return other.total / self.total

    def fractions(self) -> Dict[str, float]:
        total = self.total
        return {
            "forward": self.forward / total,
            "backward_grad": self.backward_grad / total,
            "update": self.update / total,
        }


def subgroup_count(workload: Workload, system: SystemSpec) -> int:
    """Subgroups per CSD shard.

    D (elements per subgroup) is set by the FPGA DRAM capacity, halved for
    the handler's double buffering; small shards are still split into at
    least :data:`MIN_SUBGROUPS_PER_DEVICE` pieces so per-subgroup pipeline
    stages exist to overlap.
    """
    fpga = system.csds[0].fpga
    bytes_per_param = 2 * 4 * (2 + workload.states_per_param)
    d_elements = int(fpga.dram_bytes * DRAM_UTILIZATION / bytes_per_param)
    shard_elements = math.ceil(workload.num_params / system.num_csds)
    by_dram = math.ceil(shard_elements / d_elements)
    return max(MIN_SUBGROUPS_PER_DEVICE, by_dram)


@dataclass(frozen=True)
class ScenarioTrace:
    """Everything one simulated iteration leaves behind for export.

    ``fabric`` retains every channel's :class:`TransferRecord` list and
    ``phase_windows`` the closed (phase, start, end) intervals — together
    the full sim-time timeline the Chrome-trace exporter renders.
    """

    breakdown: PhaseBreakdown
    fabric: Fabric
    phase_windows: List[Tuple[str, float, float]]


def trace_scenario(system: SystemSpec, workload: Workload, method: str,
                   compression_ratio: float = 0.02,
                   num_blocks: int = DEFAULT_NUM_BLOCKS,
                   channel_scales: Optional[Mapping[str, float]] = None,
                   schedule: str = "phased",
                   ) -> ScenarioTrace:
    """Simulate one iteration and keep its full sim-time timeline.

    ``channel_scales`` multiplies named channels' bandwidths — the
    counterfactual hook ``repro whatif`` re-runs an iteration with.
    ``schedule="interleaved"`` gates per-device update work on the
    gradient blocks it needs instead of the whole offload barrier; the
    ``update`` phase window then covers only the residual tail past the
    last gradient.
    """
    if method not in METHODS + EXTENSION_METHODS:
        raise HardwareConfigError(
            f"unknown method {method!r}; choose from "
            f"{METHODS + EXTENSION_METHODS}")
    if schedule not in SCHEDULES:
        raise HardwareConfigError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULES}")
    sim = Simulator()
    fabric = Fabric(sim, system, channel_scales=channel_scales)
    clock = PhaseClock(sim)
    scenario = _Scenario(sim, fabric, clock, system, workload, method,
                         compression_ratio, num_blocks, schedule)
    sim.process(scenario.iteration(), name=f"iteration-{method}")
    sim.run()
    breakdown = PhaseBreakdown(
        forward=clock.totals.get("forward", 0.0),
        backward_grad=clock.totals.get("backward_grad", 0.0),
        update=clock.totals.get("update", 0.0),
    )
    return ScenarioTrace(breakdown=breakdown, fabric=fabric,
                         phase_windows=list(clock.windows))


def simulate_iteration(system: SystemSpec, workload: Workload, method: str,
                       compression_ratio: float = 0.02,
                       num_blocks: int = DEFAULT_NUM_BLOCKS,
                       schedule: str = "phased",
                       ) -> PhaseBreakdown:
    """Simulate one iteration and return its phase breakdown."""
    return trace_scenario(
        system, workload, method, compression_ratio=compression_ratio,
        num_blocks=num_blocks, schedule=schedule).breakdown


class _Scenario:
    """Process definitions for one simulated iteration."""

    def __init__(self, sim: Simulator, fabric: Fabric, clock: PhaseClock,
                 system: SystemSpec, workload: Workload, method: str,
                 compression_ratio: float, num_blocks: int,
                 schedule: str = "phased") -> None:
        self.sim = sim
        self.fabric = fabric
        self.clock = clock
        self.system = system
        self.workload = workload
        self.method = method
        self.compression_ratio = compression_ratio
        self.num_blocks = num_blocks
        self.schedule = schedule
        self.num_gpus = len(system.gpus)
        self.gpu = system.gpus[0]

    # ------------------------------------------------------------------
    # compute helpers
    # ------------------------------------------------------------------
    def _gpu_time(self, flops: float) -> float:
        """Per-GPU compute time (tensor parallelism divides the FLOPs)."""
        return self.gpu.compute_time(flops / self.num_gpus)

    def _congested_block_traffic(self, param_bytes: float,
                                 act_bytes: float):
        """Extra shared-link traffic per block in the congested topology:
        FP16 parameter streaming to the expansion-resident GPUs plus
        tensor-parallel activation exchange (§VIII-A)."""
        done = self.fabric.link_down._reserve(param_bytes, tag="gpu-par")
        if self.num_gpus > 1:
            tp_bytes = act_bytes * 2 * (self.num_gpus - 1) / self.num_gpus
            done = max(done,
                       self.fabric.link_down._reserve(tp_bytes / 2, tag="tp"),
                       self.fabric.link_up._reserve(tp_bytes / 2, tag="tp"))
        return self.sim._timeout_at(done)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def iteration(self):
        yield from self.forward_phase()
        if self.schedule == "interleaved":
            yield from self.interleaved_phase()
        else:
            yield from self.backward_phase()
            yield from self.update_phase()

    def interleaved_phase(self):
        """Backward with the update pipeline gated per gradient block.

        Each block's offload fires a gate event; the update processes run
        concurrently with backward, each subgroup waiting only for the
        cumulative gradient fraction it covers.  The ``backward_grad``
        window ends when every gradient has landed (as in the phased
        schedule), so the ``update`` window is only the residual tail the
        overlap could not hide — phase windows stay disjoint and the
        attribution conservation invariant holds.
        """
        gates = [self.sim.event(f"block{index}-grads")
                 for index in range(self.num_blocks)]
        update = self.sim.process(self._gated_update(gates),
                                  name="interleaved-update")
        yield from self.backward_phase(gates=gates)
        self.clock.begin("update")
        yield update
        self.clock.end("update")

    def _gated_update(self, gates):
        if self.method == "baseline":
            yield from self._baseline_update(gates=gates)
        else:
            yield from self._smart_update(gates=gates)

    def forward_phase(self):
        self.clock.begin("forward")
        per_block = self._gpu_time(self.workload.forward_flops
                                   ) / self.num_blocks
        param_block = self.workload.fp16_param_bytes / self.num_blocks
        act_block = self.workload.activation_bytes / self.num_blocks
        for _block in range(self.num_blocks):
            if self.system.gpus_on_expansion:
                yield self._congested_block_traffic(param_block, act_block)
            yield self.sim.timeout(per_block)
        self.clock.end("forward")

    def backward_phase(self, gates=None):
        """Backward compute with eager gradient offload per block."""
        self.clock.begin("backward_grad")
        per_block = self._gpu_time(self.workload.backward_flops
                                   ) / self.num_blocks
        param_block = self.workload.fp16_param_bytes / self.num_blocks
        act_block = self.workload.activation_bytes / self.num_blocks
        if self.method in COMPRESSED_METHODS:
            grad_bytes = self.workload.compressed_gradient_bytes(
                self.compression_ratio)
        else:
            grad_bytes = self.workload.gradient_bytes
        grad_block = grad_bytes / self.num_blocks
        offload_legs = (partial(self._offload_legs, grad_block),)

        offloads = []
        for block in range(self.num_blocks):
            if self.system.gpus_on_expansion:
                yield self._congested_block_traffic(param_block, act_block)
            yield self.sim.timeout(per_block)
            # The GPU -> pinned-buffer bounce copy serializes with the
            # stream; the storage write itself drains asynchronously.
            yield self.fabric.bounce.transfer(grad_block, tag="bounce")
            offload = self.sim.deferred(offload_legs)
            if gates is not None:
                # The landing opens the block's gate (its value, the
                # offload event, is never read) before the barrier below
                # counts it.
                offload.add_callback(gates[block].succeed)
            offloads.append(offload)
        # In the phased schedule the update cannot start until every
        # gradient has landed (the loss-scale scan and global-norm
        # clipping need them all); the interleaved schedule resolves the
        # verdict up front, so the gates release per-block work early,
        # but the phase boundary still sits at the last landing.
        yield self.sim.all_of(offloads)
        self.clock.end("backward_grad")

    def _offload_legs(self, nbytes: float) -> float:
        """Reserve one gradient block's offload; returns its landing."""
        if self.method == "baseline":
            return self.fabric._raid_write(nbytes, "grad-offload")
        # Each CSD owns an equal slice of the flattened parameters; the
        # block has landed when the slowest device's copy has.
        per_device = nbytes / self.fabric.num_devices
        return max(
            self.fabric._host_to_device(index, per_device, "grad-offload")
            for index in range(self.fabric.num_devices))

    def update_phase(self):
        self.clock.begin("update")
        if self.method == "baseline":
            yield from self._baseline_update()
        else:
            yield from self._smart_update()
        self.clock.end("update")

    # ------------------------------------------------------------------
    # baseline update: RAID read -> CPU AVX -> RAID write, depth-2 pipeline
    # ------------------------------------------------------------------
    def _baseline_update(self, gates=None):
        read_block = self.workload.update_read_bytes / self.num_blocks
        write_block = self.workload.update_write_bytes / self.num_blocks
        touched_block = self.workload.update_touched_bytes / self.num_blocks
        slots = Semaphore(self.sim, "update-buffers", capacity=2)
        # One block: RAID read -> CPU update -> RAID write, then hand the
        # buffer on.
        block_update = (
            partial(self.fabric._raid_read, read_block, "opt-upload"),
            partial(self.fabric.cpu._reserve, touched_block, "cpu-update"),
            partial(self.fabric._raid_write, write_block, "opt-offload"))

        blocks = []
        for block in range(self.num_blocks):
            if gates is not None:
                yield gates[block]
            yield slots.acquire()
            blocks.append(self.sim.deferred(block_update, slots.release))
        yield self.sim.all_of(blocks)

    # ------------------------------------------------------------------
    # SmartUpdate family: per-CSD near-storage update
    # ------------------------------------------------------------------
    def _smart_update(self, gates=None):
        if gates is not None:
            # Interleaved: the fleet spins up once the first gradient
            # block has landed, not at the offload barrier.
            yield gates[0]
        # Host-side OpenCL/driver overhead for driving the CSD fleet.
        yield self.sim.timeout(CSD_BASE_OVERHEAD)
        devices = [
            self.sim.process(self._device_update(index, gates=gates),
                             name=f"csd{index}-update")
            for index in range(self.fabric.num_devices)
        ]
        yield self.sim.all_of(devices)

    def _gate_for_subgroup(self, sub: int, nsub: int) -> int:
        """Last gradient block subgroup ``sub`` of ``nsub`` depends on.

        Subgroup ``sub`` covers the flat-parameter fraction
        ``(sub, sub+1] / nsub``; its update may start once the gradient
        blocks covering that fraction have been offloaded.
        """
        block = -(-(sub + 1) * self.num_blocks // nsub) - 1
        return min(self.num_blocks - 1, max(0, block))

    def _device_update(self, index: int, gates=None):
        """One CSD's shard update across its subgroups."""
        workload = self.workload
        n = self.fabric.num_devices
        nsub = subgroup_count(workload, self.system)
        device = self.fabric.devices[index]
        optimized = self.method in ("su_o", "su_o_c", "su_o_c_q")
        compressed = self.method in COMPRESSED_METHODS
        quantized_up = self.method == "su_o_c_q"

        # Per-subgroup byte volumes for this device's shard.
        state_read = workload.optimizer_state_bytes / n / nsub
        if compressed:
            grad_read = (workload.compressed_gradient_bytes(
                self.compression_ratio) / n / nsub)
            dense_grad = workload.gradient_bytes / n / nsub
        else:
            grad_read = workload.gradient_bytes / n / nsub
            dense_grad = 0.0
        touched = workload.update_touched_bytes / n / nsub
        param_write = workload.master_upstream_bytes / n / nsub
        state_write = (workload.update_write_bytes
                       - workload.master_upstream_bytes) / n / nsub
        upstream = workload.master_upstream_bytes / n / nsub
        if quantized_up:
            # §VIII-B: the CSD writes int8 masters (+~0.1% scales), and
            # the host reads only the compressed form.
            upstream /= 4.0
            # The quantizer streams the fp32 masters through the FPGA.
            touched += workload.master_upstream_bytes / n / nsub

        # DMA-level double buffering: two subgroups in flight.
        slots = Semaphore(self.sim, f"csd{index}-buffers", capacity=2)
        lazy_and_upstream = []

        p2p = self.fabric.p2p_efficiency
        # The device's flash, shared with its host path.
        read, write = device.nand_read._reserve, device.nand_write._reserve

        # One subgroup tasklet, as data: its legs in order, then the
        # action that starts its tail transfers and hands the buffer on.
        # Naive tasklets first pay per-subgroup buffer alloc/free.
        subgroup_task = ([] if optimized else
                         [partial(self.sim._after, NAIVE_SUBGROUP_OVERHEAD)])
        subgroup_task.append(partial(read, (state_read + grad_read) / p2p,
                                     "p2p-load"))
        if compressed:
            subgroup_task.append(partial(device.fpga_decompressor._reserve,
                                         dense_grad, "decompress"))
        subgroup_task.append(partial(device.fpga_updater._reserve, touched,
                                     "update"))
        tail = [(partial(self.fabric._device_to_host, index, upstream,
                         "masters-up"),)]
        if optimized:
            # Urgent: parameters first, then hand the buffer over;
            # states are written back lazily, upstream is overlapped.
            subgroup_task.append(partial(write, param_write / p2p,
                                         "urgent-params"))
            tail.insert(0, (partial(write, state_write / p2p,
                                    "lazy-states"),))
        else:
            subgroup_task.append(partial(write,
                                         (param_write + state_write) / p2p,
                                         "writeback"))

        def subgroup_done():
            for legs in tail:
                lazy_and_upstream.append(self.sim.deferred(legs))
            slots.release()

        tasks = []
        for sub in range(nsub):
            if gates is not None:
                # Interleaved: wait for the gradient blocks this
                # subgroup's slice of the shard depends on.
                yield gates[self._gate_for_subgroup(sub, nsub)]
            yield slots.acquire()
            # Host-side mediation per tasklet serializes on the device's
            # driver thread before the subgroup's transfers can start.
            yield self.sim.timeout(HANDLER_SUBGROUP_OVERHEAD)
            tasks.append(self.sim.deferred(subgroup_task, subgroup_done))
        yield self.sim.all_of(tasks)
        # The iteration is done when deferred write-backs and the upstream
        # parameter transfers have drained.
        yield self.sim.all_of(lazy_and_upstream)
