"""The Smart-Infinity engine: SmartUpdate + SmartComp over functional CSDs.

Dataflow per iteration (Figs. 4b and 6):

1. forward/backward in mixed precision (shared with the baseline);
2. gradients are offloaded to their *owner CSD* — dense for SmartUpdate,
   Top-K compressed (optionally with error feedback) for SmartComp; this is
   the only downstream host traffic (2M or c% x 2M);
3. each CSD updates its shard near storage: optimizer states move only over
   the device-internal P2P path, the FPGA kernel applies the update, and
   the transfer handler overlaps lazy state write-backs;
4. as each subgroup's urgent parameter write-back lands, the host reads the
   updated FP32 masters upstream (2M total) and refreshes the FP16 working
   copy — the only upstream host traffic.

SmartUpdate runs the *same* optimizer arithmetic as the baseline, so with
compression disabled the trained model is bit-identical to the baseline's
(asserted in tests), which is the paper's Table IV "SU+O == Baseline" row.

Steps 2 and 3 fan out across the CSDs on a persistent worker pool
(:mod:`repro.runtime.parallel`): each device's offload/update pass runs
on its own thread, the concurrency structure behind the paper's
near-linear Fig. 11 scaling.  Because shards are disjoint and every
device owns private storage and buffers, parallel execution is
bit-identical to the sequential loop, and the only shared writers — the
flat parameter space and the traffic meter — are lock-protected.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from ..compression.error_feedback import ErrorFeedback, compress_with_feedback
from ..compression.topk import CompressedGradient, keep_count
from ..csd.device import SmartSSDDevice
from ..csd.handler import (Subgroup, TransferHandler, naive_update_pass,
                           plan_subgroups)
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..errors import DeviceFailedError, RetryExhaustedError, TrainingError
from ..memory import thread_arena
from ..modelcomp.pruning import PruningMask, magnitude_mask
from ..modelcomp.quantization import QuantizerKernel, dequantize_int8, \
    QuantizedTensor
from ..nn.modules import Module
from ..optim.base import scratch_buffers
from .engine import (LossFn, MixedPrecisionTrainer, StepResult,
                     TrainingConfig, fault_bypass, fold_deprecated_kwarg,
                     make_fault_injector)
from .interleave import InterleavedScheduler
from .parallel import CSDWorkerPool, resolve_backend, resolve_workers
from .partition import Shard, distribute_shards
from .stats import TrafficMeter


# ----------------------------------------------------------------------
# per-shard building blocks
# ----------------------------------------------------------------------
# Module-level on purpose: the process backend's shard workers
# (:mod:`repro.runtime.procworker`) run these same functions inside
# child processes, so thread mode and process mode are bit-identical by
# construction — there is one implementation of the device layout, the
# dense-gradient reconstruction, the in-flight recovery arithmetic and
# the compressed-stream grad loader, not two.

def build_shard_device(storage_dir: str, shard: Shard,
                       config: TrainingConfig,
                       state_names: Sequence[str],
                       states_per_param: int,
                       site=None) -> SmartSSDDevice:
    """Create and lay out one shard's SmartSSD (file, regions, DRAM)."""
    words = 2 + states_per_param
    capacity = 4 * shard.count * words + shard.count + (2 << 20)
    device = SmartSSDDevice(
        os.path.join(storage_dir, f"csd{shard.device_id}.img"),
        capacity, device_id=shard.device_id, fault_site=site)
    device.store.allocate("master_params", shard.count)
    for name in state_names:
        device.store.allocate(name, shard.count)
    if config.compression_ratio is None:
        device.store.allocate("grads", shard.count)
    else:
        kept = keep_count(shard.count, config.compression_ratio)
        device.store.allocate("comp_indices", kept, dtype=np.int32)
        device.store.allocate("comp_values", kept, dtype=np.float32)
    if config.quantized_upstream:
        # §VIII-B: int8 masters + per-group scales, laid out so each
        # subgroup owns a fixed stripe of the scales region.
        max_sub = min(config.subgroup_elements, shard.count)
        groups_per_sub = -(-max_sub // config.quantization_group)
        num_subs = -(-shard.count // max_sub)
        device.store.allocate("masters_q", shard.count, dtype=np.int8)
        device.store.allocate("masters_scales",
                              num_subs * groups_per_sub,
                              dtype=np.float32)
    return device


def dense_shard_grads(compressed: Optional[CompressedGradient],
                      shard_grads: np.ndarray) -> np.ndarray:
    """The gradient vector the shard's update kernel would consume."""
    if compressed is None:
        return shard_grads
    grads = np.zeros(shard_grads.size, dtype=np.float32)
    grads[compressed.indices] = compressed.values
    return grads


def recover_in_flight(optimizer, state_names: Sequence[str],
                      subgroup_elements: int, masters: np.ndarray,
                      states: Dict[str, np.ndarray], grads: np.ndarray,
                      step_count: int, committed_params: Set[int],
                      committed_states: Set[Tuple[str, int]]) -> None:
    """Finish a mid-pass-interrupted update exactly, on the host.

    Per subgroup, the salvaged device data is in one of two shapes (the
    urgent parameter write-back always precedes the lazy state
    write-backs):

    * params uncommitted — everything is pre-update: recompute the whole
      subgroup from (pre-params, grads, pre-states);
    * params committed — masters are post-update; recompute only the
      state slices whose write-back never landed.  This is exact because
      every optimizer here has param-independent state transitions
      (momentum/variance/accumulator depend only on that state and the
      gradient), so the post-state is reproducible without the
      pre-params we no longer have.
    """
    shard_count = masters.size
    max_sub = min(subgroup_elements, shard_count)
    for subgroup in plan_subgroups(shard_count, max_sub):
        sl = slice(subgroup.start, subgroup.start + subgroup.count)
        params_done = subgroup.start in committed_params
        if params_done and all(
                (name, subgroup.start) in committed_states
                for name in state_names):
            continue
        with scratch_buffers(subgroup.count,
                             1 + len(state_names)) as blocks:
            scratch_params = blocks[0]
            np.copyto(scratch_params, masters[sl])
            scratch_state = {}
            for name, block in zip(state_names, blocks[1:]):
                np.copyto(block, states[name][sl])
                scratch_state[name] = block
            optimizer.step(scratch_params, grads[sl], scratch_state,
                           step_count)
            if not params_done:
                masters[sl] = scratch_params
                for name in state_names:
                    states[name][sl] = scratch_state[name]
            else:
                for name in state_names:
                    if (name, subgroup.start) not in committed_states:
                        states[name][sl] = scratch_state[name]


def make_grad_loader(device: SmartSSDDevice,
                     decompressor: Optional[DecompressorKernel],
                     compressed: Optional[CompressedGradient],
                     subgroups: Sequence[Subgroup]
                     ) -> Tuple[Callable[[Subgroup, np.ndarray],
                                         np.ndarray],
                                Callable[[], None]]:
    """Build the per-subgroup gradient loader for one update pass.

    SmartUpdate reads dense gradients over P2P; SmartComp reads the
    compressed stream over P2P and runs the FPGA decompressor to fill
    the gradient buffer for the subgroup's index range (§V-B).

    The compressed stream is read over the internal path *once per
    update pass* directly into arena-staged blocks cached in "FPGA DRAM"
    for the pass — it is read-only while the pass runs — with one
    precomputed ``searchsorted`` over the subgroup boundaries.  The
    per-subgroup closure then just slices and rebases indices in place,
    instead of re-reading the whole O(kept) stream for every subgroup
    (which made internal-read traffic O(subgroups x kept)).

    Returns ``(loader, release)``; the caller must invoke ``release`` on
    the same worker thread once the pass ends to return the staged
    stream blocks to the arena.
    """
    if compressed is None:
        def load_dense(subgroup: Subgroup,
                       buffer: np.ndarray) -> np.ndarray:
            return device.p2p_read_into("grads", subgroup.start, buffer,
                                        subgroup.count)
        return load_dense, lambda: None

    arena = thread_arena()
    kept = device.store.region("comp_indices").num_elements
    staged = [arena.acquire(kept, dtype=np.int32),
              arena.acquire(kept, dtype=np.float32),
              arena.acquire(kept, dtype=np.int32)]
    idx_stage, val_stage, local_stage = staged

    def release() -> None:
        for block in staged:
            arena.release(block)

    try:
        indices = device.p2p_read_into("comp_indices", 0, idx_stage, kept)
        values = device.p2p_read_into("comp_values", 0, val_stage, kept)
    except BaseException:
        release()
        raise
    # Subgroups tile [0, shard.count) in order, so one sorted lookup of
    # every boundary yields each subgroup's [lo, hi) stream slice.
    edges = np.fromiter(
        (subgroup.start for subgroup in subgroups),
        dtype=np.int64, count=len(subgroups))
    edges = np.append(edges,
                      subgroups[-1].start + subgroups[-1].count)
    bounds = np.searchsorted(indices, edges, side="left")

    def load_compressed(subgroup: Subgroup,
                        buffer: np.ndarray) -> np.ndarray:
        # The decompressor selects the cached entries belonging to this
        # subgroup, rebases them to subgroup-local positions in the
        # staging block, and scatters into the gradient buffer.
        lo = int(bounds[subgroup.index])
        hi = int(bounds[subgroup.index + 1])
        local_view = local_stage[:hi - lo]
        np.subtract(indices[lo:hi], np.int32(subgroup.start),
                    out=local_view)
        local = CompressedGradient(
            indices=local_view,
            values=values[lo:hi],
            original_size=subgroup.count)
        return decompressor.run(local, buffer)

    return load_compressed, release


class SmartInfinityEngine(MixedPrecisionTrainer):
    """Near-storage training engine over multiple functional SmartSSDs."""

    def __init__(self, model: Module, loss_fn: LossFn, storage_dir: str,
                 num_csds: Optional[int] = None,
                 config: Optional[TrainingConfig] = None) -> None:
        config = fold_deprecated_kwarg(
            config or TrainingConfig(), "num_csds", num_csds, "num_csds",
            "SmartInfinityEngine")
        super().__init__(model, loss_fn, config)
        num_csds = config.num_csds
        if num_csds < 1:
            raise TrainingError("need at least one CSD")
        os.makedirs(storage_dir, exist_ok=True)
        self.faults = make_fault_injector(config)
        self._closed = False

        # Graceful-degradation bookkeeping: a demoted device's shard
        # lives host-side in _host_shards (masters + optimizer states)
        # and is updated by the CPU path from then on.
        self.demotions: List[Tuple[int, str]] = []
        self.degraded_steps = 0
        self._host_shards: Dict[int, Dict[str, np.ndarray]] = {}

        self.shards: List[Shard] = distribute_shards(
            self.space.total_elements, num_csds)
        self.devices: List[SmartSSDDevice] = []
        self.handlers: List[Optional[TransferHandler]] = []
        self.kernels: List[UpdaterKernel] = []
        self.decompressors: List[DecompressorKernel] = []
        self.feedback: List[Optional[ErrorFeedback]] = []
        self._pool: Optional[CSDWorkerPool] = None
        self._proc = None
        try:
            self.meter = TrafficMeter()
            self._state_names = self.optimizer.state_names
            # Per-device work is independent (disjoint shards, private
            # files, private handlers), so offload and update fan out
            # over a persistent worker pool; workers=1 is exactly the old
            # sequential loop.  The backend knob picks the pool flavour:
            # threads (GIL-bound but cheap) or per-CSD worker processes
            # with shared-memory shard channels.
            self.workers = resolve_workers(config.parallel_csds, num_csds)
            self.backend = resolve_backend(config.parallel_backend,
                                           self.workers)
            self._init_activation_offload(storage_dir)
            # Ready-queue scheduler for schedule=interleaved on the
            # thread backend (the process backend interleaves through a
            # fused per-shard task instead — see _step_impl_process).
            self._interleave: Optional[InterleavedScheduler] = None

            masters = self.space.gather_params()
            # §VIII-B extensions: pruning mask over the flat space, and
            # the per-device CSD quantizer kernels for the upstream
            # transfer.  Quantizers are pure arithmetic (no device
            # handle), and the host-side demotion path needs them in
            # both backends.
            self.pruning_mask: Optional[PruningMask] = None
            if config.pruning_sparsity is not None:
                self.pruning_mask = magnitude_mask(masters,
                                                   config.pruning_sparsity)
            self.quantizers: List[Optional[QuantizerKernel]] = []
            for shard in self.shards:
                if config.quantized_upstream:
                    group = config.quantization_group
                    chunk = max(group,
                                (config.kernel_chunk_elements // group)
                                * group)
                    self.quantizers.append(QuantizerKernel(
                        group_size=group, chunk_elements=chunk))
                else:
                    self.quantizers.append(None)

            if self.backend == "process":
                # Devices, handlers and residuals live inside the child
                # processes; the parent keeps only the coordinator (shm
                # shard channels + the process pool) and the host-side
                # demotion bookkeeping.
                from .procworker import ProcessShardCoordinator
                self._proc = ProcessShardCoordinator(
                    storage_dir, self.shards, config, self._state_names,
                    self.optimizer.states_per_param, masters,
                    self.workers)
            else:
                self._pool = CSDWorkerPool(self.workers)
                if self.schedule == "interleaved":
                    self._interleave = InterleavedScheduler(self._pool)
                for shard in self.shards:
                    device = self._build_device(storage_dir, shard)
                    self.devices.append(device)
                    # Initial state placement (setup traffic, not metered
                    # and outside the fault domain).
                    with fault_bypass(self.faults):
                        shard_masters = masters[shard.start:shard.end]
                        device.store.write_array("master_params",
                                                 shard_masters)
                        zero = np.zeros(shard.count, dtype=np.float32)
                        for name in self._state_names:
                            device.store.write_array(name, zero)

                    kernel = UpdaterKernel(
                        self.optimizer,
                        chunk_elements=config.kernel_chunk_elements)
                    self.kernels.append(kernel)
                    self.decompressors.append(DecompressorKernel(
                        chunk_elements=config.kernel_chunk_elements))

                    max_sub = min(config.subgroup_elements, shard.count)
                    if config.use_transfer_handler:
                        self.handlers.append(TransferHandler(
                            device, self._state_names, max_sub))
                    else:
                        self.handlers.append(None)

                    if config.compression_ratio is not None \
                            and config.error_feedback:
                        self.feedback.append(ErrorFeedback(shard.count))
                    else:
                        self.feedback.append(None)

            working = masters.copy()
            if self.pruning_mask is not None:
                self.pruning_mask.apply(working)
            self.space.install_fp16_params(working)
        except BaseException:
            # A failed __init__ must release every device and thread
            # already acquired — the caller never gets a handle to close.
            self._release(abandon=True)
            raise

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _build_device(self, storage_dir: str,
                      shard: Shard) -> SmartSSDDevice:
        site = (self.faults.site(shard.device_id)
                if self.faults is not None else None)
        return build_shard_device(storage_dir, shard, self.config,
                                  self._state_names,
                                  self.optimizer.states_per_param, site)

    @property
    def num_csds(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _step_impl(self, batches) -> StepResult:
        if self._proc is not None:
            return self._step_impl_process(batches)
        with telemetry.trace_span("iteration", engine="smart",
                                  num_csds=self.num_csds) as span:
            self.meter.begin_iteration()
            snapshots = [
                (dev.internal_traffic.bytes_read,
                 dev.internal_traffic.bytes_written)
                for dev in self.devices]
            with telemetry.trace_span("forward_backward"):
                loss, flat_grads, norm, overflow = \
                    self.forward_backward_many(batches)

            if self.schedule == "interleaved":
                # The overflow verdict only needs the backward's NaN
                # scan, so it is computed *before* any offload I/O;
                # each device's offload+update chain is then enqueued
                # immediately — the update phase rides inside the
                # offload span instead of serializing after a barrier.
                # Per-device op order is unchanged, so results and
                # fault streams are bit-identical to phased.
                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()

                def device_chain(index: int) -> None:
                    compressed = self._offload_device(index, flat_grads,
                                                      overflow)
                    if proceed:
                        self._update_device_guarded(index, compressed,
                                                    flat_grads)

                with telemetry.trace_span("interleaved_update",
                                          workers=self.workers,
                                          proceed=proceed):
                    self._interleave.run(device_chain,
                                         range(self.num_csds))
            else:
                with telemetry.trace_span("grad_offload"):
                    compressed_per_device = self._pool.map_ordered(
                        lambda index: self._offload_device(
                            index, flat_grads, overflow),
                        range(self.num_csds))

                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()
                    with telemetry.trace_span("update",
                                              workers=self.workers):
                        self._pool.map_ordered(
                            lambda index: self._update_device_guarded(
                                index, compressed_per_device[index],
                                flat_grads),
                            range(self.num_csds))

            for device, (reads, writes) in zip(self.devices, snapshots):
                self.meter.add_internal_read(
                    device.internal_traffic.bytes_read - reads)
                self.meter.add_internal_write(
                    device.internal_traffic.bytes_written - writes)
            traffic = self.meter.end_iteration()
            self.loss_history.append(loss)
            span.set(step=self.step_count, loss=loss, overflow=overflow,
                     host_reads=traffic.host_reads,
                     host_writes=traffic.host_writes,
                     internal_reads=traffic.internal_reads,
                     internal_writes=traffic.internal_writes)
        return StepResult(step=self.step_count, loss=loss, grad_norm=norm,
                          overflow=overflow, traffic=traffic)

    # ------------------------------------------------------------------
    # process backend: shared-memory shard channels + worker processes
    # ------------------------------------------------------------------
    def _step_impl_process(self, batches) -> StepResult:
        """One iteration with per-CSD worker *processes*.

        Same phase structure as the thread path — offload, scaler
        verdict, update — but the per-device work happens in persistent
        child processes: gradients go down and updated masters come back
        through shared-memory shard channels, and the task pipe carries
        only descriptors and scalars.  Demotions detected by a child are
        salvaged through the channel and absorbed here, so the host-CPU
        degradation path (and the resulting trajectory) is identical to
        thread mode.
        """
        proc = self._proc
        with telemetry.trace_span("iteration", engine="smart",
                                  num_csds=self.num_csds,
                                  backend="process") as span:
            self.meter.begin_iteration()
            with telemetry.trace_span("forward_backward"):
                loss, flat_grads, norm, overflow = \
                    self.forward_backward_many(batches)

            if self.schedule == "interleaved":
                # Fused per-shard step task: each child runs its
                # offload+update back-to-back, so shard chains overlap
                # freely across processes with no offload barrier.  The
                # scaler verdict is computed first (it only reads the
                # backward's NaN scan), exactly as on the thread path.
                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()
                with telemetry.trace_span("interleaved_update",
                                          workers=self.workers,
                                          proceed=proceed):
                    recovered = set()
                    for resp in proc.step(flat_grads, self.step_count,
                                          self.optimizer.lr, proceed):
                        self.meter.add_host_write(int(resp["host_write"]))
                        self.meter.add_host_read(int(resp["host_read"]))
                        self._absorb_child_traffic(resp)
                        if resp.get("demoted_now"):
                            self._absorb_demotion(resp)
                            if resp.get("recovered"):
                                recovered.add(int(resp["index"]))
                    if proceed:
                        for index in range(self.num_csds):
                            if index in recovered:
                                continue
                            if index in self._host_shards:
                                self._host_update_shard(
                                    index, proc.compressed_view(index),
                                    flat_grads)
                            else:
                                self._install_upstream_shard(index)
            else:
                with telemetry.trace_span("grad_offload"):
                    for resp in proc.offload(flat_grads, overflow):
                        self.meter.add_host_write(int(resp["host_write"]))
                        self._absorb_child_traffic(resp)
                        if resp.get("demoted_now"):
                            self._absorb_demotion(resp)

                proceed = self.scaler.update(overflow)
                if proceed:
                    self.step_count += 1
                    self._apply_lr_schedule()
                    with telemetry.trace_span("update",
                                              workers=self.workers):
                        recovered = set()
                        for resp in proc.update(self.step_count,
                                                self.optimizer.lr):
                            self.meter.add_host_read(
                                int(resp["host_read"]))
                            self._absorb_child_traffic(resp)
                            if resp.get("demoted_now"):
                                # The child already salvaged and replayed
                                # the in-flight pass; absorbing installs
                                # the recovered FP16 too.
                                self._absorb_demotion(resp)
                                recovered.add(int(resp["index"]))
                        for index in range(self.num_csds):
                            if index in recovered:
                                continue
                            if index in self._host_shards:
                                self._host_update_shard(
                                    index, proc.compressed_view(index),
                                    flat_grads)
                            else:
                                self._install_upstream_shard(index)

            traffic = self.meter.end_iteration()
            self.loss_history.append(loss)
            span.set(step=self.step_count, loss=loss, overflow=overflow,
                     host_reads=traffic.host_reads,
                     host_writes=traffic.host_writes,
                     internal_reads=traffic.internal_reads,
                     internal_writes=traffic.internal_writes)
        return StepResult(step=self.step_count, loss=loss, grad_norm=norm,
                          overflow=overflow, traffic=traffic)

    def _absorb_child_traffic(self, resp: Dict[str, object]) -> None:
        """Fold a child task's device-internal byte deltas into the meter."""
        self.meter.add_internal_read(int(resp.get("internal_read", 0)))
        self.meter.add_internal_write(int(resp.get("internal_write", 0)))

    def _absorb_demotion(self, resp: Dict[str, object]) -> None:
        """Adopt a child-reported demotion into the host-side bookkeeping.

        The child has already marked its device dead, salvaged masters +
        states (exactly replaying any in-flight subgroup work) and
        published them through the shard channel; the parent copies them
        into ``_host_shards``, refreshes the FP16 working copy when an
        update was recovered, and raises the same incident the thread
        path would.
        """
        index = int(resp["index"])
        shard = self.shards[index]
        cause = str(resp.get("cause", "worker fault"))
        cause_type = str(resp.get("cause_type", "FaultError"))
        masters, states = self._proc.salvage_arrays(index)
        self._host_shards[index] = {"master_params": masters, **states}
        if resp.get("recovered"):
            max_sub = min(self.config.subgroup_elements, shard.count)
            for subgroup in plan_subgroups(shard.count, max_sub):
                sl = slice(subgroup.start,
                           subgroup.start + subgroup.count)
                self._install_host_subgroup(index, subgroup, masters[sl])
        self.demotions.append((index, cause))
        telemetry.counter("faults_demotions_total", device=index)
        kind = ("retry_exhausted" if resp.get("retry_exhausted")
                else "device_dropout")
        self._record_incident(
            kind, key=f"{kind}:device{index}",
            message=(f"device {index} demoted to host-CPU path "
                     f"({cause_type}: {cause})"),
            device=index, cause=cause_type)

    def _install_upstream_shard(self, index: int) -> None:
        """Install one healthy shard's updated masters from its channel.

        The child wrote final (already dequantized, for §VIII-B runs)
        FP32 masters into the channel's upstream region subgroup by
        subgroup; by end of step only the final values matter, so one
        whole-shard install is bit-identical to the thread path's
        per-subgroup installs.
        """
        shard = self.shards[index]
        values = self._proc.upstream_view(index)
        if self.pruning_mask is not None:
            values = values.copy()
            self.pruning_mask.slice(shard.start, shard.count).apply(values)
        self.space.install_fp16_slice(shard.start, values)

    def fault_stats(self) -> Dict[str, object]:
        """Cumulative fault accounting, merged across worker processes."""
        stats = super().fault_stats()
        if getattr(self, "_proc", None) is not None:
            self._proc.merge_fault_stats(stats)
        return stats

    # ------------------------------------------------------------------
    # checkpoint hooks (both backends)
    # ------------------------------------------------------------------
    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments (+ EF residuals) for checkpointing.

        Maintenance traffic, outside the fault domain; demoted shards
        are gathered from their host-resident copies, so checkpointing
        keeps working after graceful degradation — exactly when a
        checkpoint matters most.
        """
        if self._proc is not None:
            return self._proc.gather_state(self._host_shards)
        arrays: Dict[str, List[np.ndarray]] = {
            "master_params": [], **{n: [] for n in self._state_names}}
        with fault_bypass(self.faults):
            for index, device in enumerate(self.devices):
                source = self._host_shards.get(index)
                if source is None:
                    source = {name: device.store.read_array(name)
                              for name in ("master_params",
                                           *self._state_names)}
                arrays["master_params"].append(source["master_params"])
                for name in self._state_names:
                    arrays[name].append(source[name])
        out = {name: np.concatenate(parts)
               for name, parts in arrays.items()}
        # SmartComp's error-feedback residuals are training state too:
        # without them a resumed compressed run diverges.
        if any(fb is not None for fb in self.feedback):
            out["ef_residual"] = np.concatenate(
                [feedback.residual for feedback in self.feedback])
        return out

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Write flat masters + moments back into shard storage."""
        if self._proc is not None:
            self._proc.scatter_state(arrays, self._host_shards)
            return
        with fault_bypass(self.faults):
            for index, (device, shard) in enumerate(
                    zip(self.devices, self.shards)):
                view = slice(shard.start, shard.end)
                target = self._host_shards.get(index)
                if target is not None:
                    target["master_params"][:] = \
                        arrays["master_params"][view]
                    for name in self._state_names:
                        target[name][:] = arrays[name][view]
                else:
                    device.store.write_array("master_params",
                                             arrays["master_params"][view])
                    for name in self._state_names:
                        device.store.write_array(name, arrays[name][view])
                feedback = self.feedback[index]
                if feedback is not None and "ef_residual" in arrays:
                    feedback.residual[:] = arrays["ef_residual"][view]

    def _offload_device(self, index: int, flat_grads: np.ndarray,
                        overflow: bool) -> Optional[CompressedGradient]:
        """Backward-phase offload of one shard's gradients to its owner
        CSD (dense, or GPU-compressed for SmartComp).

        Per-shard Top-K selection and the device write touch only that
        shard's slice, error-feedback residual and backing file, so the
        devices' offloads fan out across the worker pool independently.

        Resilience: compression (which mutates the error-feedback
        residual) happens exactly once, *before* any device I/O, so a
        device failure during the write can reuse the already-computed
        stream instead of recompressing — double-applying the residual
        would break bit-identity.  A demoted device gets no I/O at all;
        its compressed stream still feeds the host-CPU update path.

        On an ``overflow`` step — the verdict is in before any offload —
        the stream is still compressed and written (same host bytes,
        same device op counts) but bypasses error feedback: the update
        is skipped, so the NaN/Inf must not enter the residual.
        """
        ratio = self.config.compression_ratio
        device = self.devices[index]
        shard = self.shards[index]
        with telemetry.trace_span(
                "offload_device", device=index,
                resource="host-link-down",
                worker=threading.current_thread().name):
            shard_grads = flat_grads[shard.start:shard.end]
            compressed = None
            if ratio is not None:
                # The |g| magnitude pass stages in this worker
                # thread's arena instead of a fresh shard-sized
                # temporary per iteration.
                with thread_arena().checkout(shard.count) as scratch:
                    compressed = compress_with_feedback(
                        shard_grads,
                        None if overflow else self.feedback[index],
                        ratio, abs_scratch=scratch)
            if index in self._host_shards:
                return compressed
            try:
                if compressed is None:
                    device.host_write("grads", shard_grads)
                    self.meter.add_host_write(4 * shard.count)
                else:
                    device.host_write("comp_indices",
                                      compressed.indices)
                    device.host_write("comp_values", compressed.values)
                    self.meter.add_host_write(compressed.nbytes)
            except (DeviceFailedError, RetryExhaustedError) as exc:
                # No update was in flight, so the device holds a
                # consistent post-previous-step shard: demote now and
                # let the update phase run this step host-side.
                self._demote_device(index, exc)
            return compressed

    def _update_device_guarded(self, index: int,
                               compressed: Optional[CompressedGradient],
                               flat_grads: np.ndarray) -> None:
        """Route one shard's update: near-storage, or host-CPU if demoted.

        A permanent device failure (or an exhausted retry budget — the
        next rung of the degradation ladder) during the near-storage pass
        triggers demotion with exact recovery, so the step's result is
        bit-identical to a fault-free run.
        """
        if index in self._host_shards:
            self._host_update_shard(index, compressed, flat_grads)
            return
        committed_params: Set[int] = set()
        committed_states: Set[Tuple[str, int]] = set()
        try:
            self._update_device(index, compressed, committed_params,
                                committed_states)
        except (DeviceFailedError, RetryExhaustedError) as exc:
            self._demote_device(
                index, exc,
                in_flight=(compressed, flat_grads, committed_params,
                           committed_states))

    def _update_device(self, index: int,
                       compressed: Optional[CompressedGradient],
                       committed_params: Set[int],
                       committed_states: Set[Tuple[str, int]]) -> None:
        """Near-storage update of one device's shard (Fig. 4b / Fig. 6b).

        ``committed_params``/``committed_states`` collect which subgroup
        slices durably reached the SSD, so a mid-pass device failure can
        be recovered exactly (see :meth:`_recover_in_flight`).
        """
        device = self.devices[index]
        shard = self.shards[index]
        handler = self.handlers[index]
        kernel = self.kernels[index]
        max_sub = min(self.config.subgroup_elements, shard.count)
        subgroups = plan_subgroups(shard.count, max_sub)

        load_grads, release_grads = self._make_grad_loader(
            index, compressed, subgroups)

        def on_params_written(subgroup: Subgroup) -> None:
            # The urgent write-back just landed: record the commit before
            # the upstream transfer, which may itself hit a fault.
            committed_params.add(subgroup.start)
            with telemetry.trace_span("upstream_subgroup", device=index,
                                      subgroup=subgroup.index,
                                      resource="host-link-up"):
                self._upstream_subgroup(index, subgroup)

        def on_state_written(name: str, subgroup: Subgroup) -> None:
            committed_states.add((name, subgroup.start))

        with telemetry.trace_span("device_update", device=index,
                                  subgroups=len(subgroups),
                                  worker=threading.current_thread().name):
            try:
                if handler is not None:
                    handler.run_update_pass(subgroups, kernel,
                                            self.step_count, load_grads,
                                            on_params_written)
                else:
                    naive_update_pass(device, subgroups, kernel,
                                      self.step_count, self._state_names,
                                      load_grads, on_params_written,
                                      on_state_written)
            finally:
                release_grads()

    # ------------------------------------------------------------------
    # graceful degradation (demotion to the host-CPU update path)
    # ------------------------------------------------------------------
    def _dense_shard_grads(self, index: int,
                           compressed: Optional[CompressedGradient],
                           flat_grads: np.ndarray) -> np.ndarray:
        """The gradient vector the device's kernel would have consumed."""
        shard = self.shards[index]
        return dense_shard_grads(compressed,
                                 flat_grads[shard.start:shard.end])

    def _demote_device(self, index: int, cause: BaseException,
                       in_flight=None) -> None:
        """Permanently move one device's shard to the host-CPU path.

        Salvages the shard's masters and optimizer states off the failed
        device's NVMe namespace (the emulated maintenance path — reads
        bypass the fault domain), recovers any half-finished update pass
        exactly, and from then on the shard updates like the paper's
        baseline.  Training output stays bit-identical throughout.
        """
        device = self.devices[index]
        shard = self.shards[index]
        handler = self.handlers[index]
        with telemetry.trace_span("engine.demote", device=index,
                                  cause=type(cause).__name__):
            if self.faults is not None:
                # An exhausted retry budget demotes too: mark the device
                # dead so any straggling I/O fails fast instead of
                # burning more backoff time.
                self.faults.fail_device(index, reason=str(cause))
            committed_states: Set[Tuple[str, int]] = set()
            if handler is not None:
                # Join the lazy write-back worker; its commit log is
                # final only after the join.
                handler.abandon()
                committed_states |= handler.state_commits
            with fault_bypass(self.faults):
                masters = device.store.read_array("master_params")
                states = {name: device.store.read_array(name)
                          for name in self._state_names}
            if in_flight is not None:
                compressed, flat_grads, committed_params, naive_states = \
                    in_flight
                committed_states |= naive_states
                self._recover_in_flight(index, masters, states, compressed,
                                        flat_grads, committed_params,
                                        committed_states)
            self._host_shards[index] = {"master_params": masters, **states}
            if in_flight is not None:
                # Refresh the FP16 working copy for the whole shard: some
                # subgroups never upstreamed, and recovery may have
                # changed masters for partially-written ones.  Re-install
                # is idempotent for the rest.
                max_sub = min(self.config.subgroup_elements, shard.count)
                for subgroup in plan_subgroups(shard.count, max_sub):
                    sl = slice(subgroup.start,
                               subgroup.start + subgroup.count)
                    self._install_host_subgroup(index, subgroup,
                                                masters[sl])
            self.demotions.append((index, str(cause)))
            telemetry.counter("faults_demotions_total", device=index)
            device.close()
        # Incident capture happens after the demotion span closes so the
        # flight dump's tail reads: fault event -> demotion span -> alert.
        kind = ("retry_exhausted"
                if isinstance(cause, RetryExhaustedError)
                else "device_dropout")
        self._record_incident(
            kind, key=f"{kind}:device{index}",
            message=(f"device {index} demoted to host-CPU path "
                     f"({type(cause).__name__}: {cause})"),
            device=index, cause=type(cause).__name__)

    def _recover_in_flight(self, index: int, masters: np.ndarray,
                           states: Dict[str, np.ndarray],
                           compressed: Optional[CompressedGradient],
                           flat_grads: np.ndarray,
                           committed_params: Set[int],
                           committed_states: Set[Tuple[str, int]]) -> None:
        """Finish a mid-pass-interrupted update exactly, on the host.

        See :func:`recover_in_flight` for the exactness argument.
        """
        grads = self._dense_shard_grads(index, compressed, flat_grads)
        recover_in_flight(self.optimizer, self._state_names,
                          self.config.subgroup_elements, masters, states,
                          grads, self.step_count, committed_params,
                          committed_states)

    def _host_update_shard(self, index: int,
                           compressed: Optional[CompressedGradient],
                           flat_grads: np.ndarray) -> None:
        """One degraded step: update a demoted shard on the host CPU.

        The paper's baseline dataflow (Fig. 4a) applied to just this
        shard, against host-resident state — same element-wise
        arithmetic, so the trajectory stays bit-identical to the
        fault-free run.
        """
        shard = self.shards[index]
        host = self._host_shards[index]
        masters = host["master_params"]
        grads = self._dense_shard_grads(index, compressed, flat_grads)
        max_sub = min(self.config.subgroup_elements, shard.count)
        subgroups = plan_subgroups(shard.count, max_sub)
        with telemetry.trace_span("device_update.degraded", device=index,
                                  subgroups=len(subgroups),
                                  resource="host-cpu",
                                  worker=threading.current_thread().name):
            for subgroup in subgroups:
                sl = slice(subgroup.start,
                           subgroup.start + subgroup.count)
                state = {name: host[name][sl]
                         for name in self._state_names}
                self.optimizer.step(masters[sl], grads[sl], state,
                                    self.step_count)
                self._install_host_subgroup(index, subgroup, masters[sl])
        self.degraded_steps += 1
        telemetry.counter("faults_degraded_steps_total", device=index)

    def _install_host_subgroup(self, index: int, subgroup: Subgroup,
                               masters_slice: np.ndarray) -> None:
        """Host-side twin of :meth:`_upstream_subgroup`'s install step.

        Emulates the quantize -> dequantize upstream round-trip (exact:
        the device path stores int8 values and float32 scales verbatim)
        and the pruning mask, then refreshes the FP16 working copy.
        """
        shard = self.shards[index]
        quantizer = self.quantizers[index]
        global_start = shard.start + subgroup.start
        if quantizer is None:
            values = masters_slice
            if self.pruning_mask is not None:
                values = values.copy()
        else:
            values = dequantize_int8(quantizer.run(masters_slice))
        if self.pruning_mask is not None:
            self.pruning_mask.slice(global_start, subgroup.count).apply(
                values)
        self.space.install_fp16_slice(global_start, values)

    def _upstream_subgroup(self, index: int, subgroup: Subgroup) -> None:
        """Upstream one subgroup's updated parameters to the host.

        Plain flow (Fig. 4b step 4): the host reads the FP32 masters (2M
        total) and refreshes the FP16 working copy immediately, so the
        next forward can start early.

        Quantized flow (§VIII-B): the CSD quantizes the masters (still
        resident in FPGA DRAM after the update) to int8 + per-group
        scales, writes them over the internal path, and the host reads
        only the compressed form — ~4x less upstream traffic — then
        dequantizes for the straight-through-estimator forward pass.
        """
        device = self.devices[index]
        shard = self.shards[index]
        quantizer = self.quantizers[index]
        global_start = shard.start + subgroup.start

        if quantizer is None:
            # Read straight into an arena block; the FP16 install copies
            # out of it, so the scratch is released before returning.
            with thread_arena().checkout(subgroup.count) as scratch:
                values = device.host_read_into("master_params", scratch,
                                               subgroup.start,
                                               subgroup.count)
                self.meter.add_host_read(4 * subgroup.count)
                if self.pruning_mask is not None:
                    self.pruning_mask.slice(
                        global_start, subgroup.count).apply(values)
                self.space.install_fp16_slice(global_start, values)
            return
        else:
            # Quantize on the CSD.  The masters are already in FPGA DRAM
            # after the urgent write-back, so no extra P2P read is needed;
            # we fetch them through the store un-metered to emulate that.
            with thread_arena().checkout(subgroup.count) as scratch:
                masters = device.store.read_slice_into(
                    "master_params", subgroup.start, subgroup.count,
                    scratch)
                quantized = quantizer.run(masters)
            config = self.config
            max_sub = min(config.subgroup_elements, shard.count)
            groups_per_sub = -(-max_sub // config.quantization_group)
            scale_offset = subgroup.index * groups_per_sub
            device.p2p_write("masters_q", subgroup.start, quantized.values)
            device.p2p_write("masters_scales", scale_offset,
                             quantized.scales)
            # Host reads the compressed form only.
            q_values = device.host_read("masters_q", subgroup.start,
                                        subgroup.count)
            scales = device.host_read("masters_scales", scale_offset,
                                      quantized.scales.size)
            self.meter.add_host_read(subgroup.count + 4 * scales.size)
            values = dequantize_int8(QuantizedTensor(
                values=q_values.astype(np.int8), scales=scales,
                group_size=config.quantization_group,
                original_size=subgroup.count))

        if self.pruning_mask is not None:
            self.pruning_mask.slice(global_start, subgroup.count).apply(
                values)
        self.space.install_fp16_slice(global_start, values)

    def _make_grad_loader(self, index: int,
                          compressed: Optional[CompressedGradient],
                          subgroups: Sequence[Subgroup]
                          ) -> Tuple[Callable[[Subgroup, np.ndarray],
                                              np.ndarray],
                                     Callable[[], None]]:
        """Per-subgroup gradient loader (see :func:`make_grad_loader`)."""
        return make_grad_loader(self.devices[index],
                                self.decompressors[index], compressed,
                                subgroups)

    # ------------------------------------------------------------------
    def _release(self, abandon: bool = False) -> None:
        """Release pool, handlers and devices (safe on partial state)."""
        self._teardown_flight()
        self._close_spill()
        if getattr(self, "_proc", None) is not None:
            self._proc.close(abandon=abandon)
        if self._pool is not None:
            self._pool.close()
        for handler in self.handlers:
            if handler is not None:
                if abandon:
                    handler.abandon()
                else:
                    handler.close()
        for device in self.devices:
            device.close()

    def close(self) -> None:
        """Release every device/thread. Idempotent; demoted devices (and
        their abandoned handlers) are already closed and are skipped."""
        if self._closed:
            return
        self._closed = True
        self._release()

    def __enter__(self) -> "SmartInfinityEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
