"""One CSD's state machine, and the in-process transport that runs it.

§IV-D gives every device a contiguous shard, and the shard's chain —
gradient offload -> (decompress) -> update -> urgent/lazy write-back ->
upstream (Fig. 4b, Fig. 6b) — is independent of every other device's.
:class:`ShardWorker` is that chain, written once.  The two parallel
backends differ only in *where a worker runs and how bytes reach it*:

* ``thread`` — :class:`InProcessShardCoordinator` holds the N workers in
  this process and runs them on the persistent
  :class:`~repro.runtime.parallel.CSDWorkerPool`, one task per shard
  per call.  Gradients are views of the flat gradient vector; each
  subgroup's masters are installed into the flat parameter space from the worker
  thread, through the engine's sink.
* ``process`` — :class:`~repro.runtime.procworker.ProcessShardCoordinator`
  ships the same method calls to a worker living in a child process;
  gradients, masters and optimizer state cross in shared-memory regions
  and the parent installs a shard once its task returns.

Both coordinators speak one protocol (``offload`` / ``update`` / ``step``
/ ``compressed_view`` / ``salvage_arrays`` / ``ledgers`` /
``gather_state`` / ``scatter_state`` / ``fault_series`` /
``close``), which is what :class:`~repro.runtime.smart.
SmartInfinityEngine` is written against.  Responses carry no bytes:
``ledgers`` exposes each device's own I/O counters, live here and as
the child's last-reported totals across the process boundary, and
``fault_series`` the children's fault ledgers (here the workers count
into the engine's own).
Because shards are disjoint and every worker owns private storage and
buffers, any placement of the workers is bit-identical to the
sequential loop.
"""

from __future__ import annotations

import os
import threading
from typing import (Callable, ContextManager, Dict, List, Optional, Protocol,
                    Sequence, Set, Tuple)

import numpy as np

from .. import telemetry
from ..compression.error_feedback import ErrorFeedback, compress_with_feedback
from ..compression.topk import (TOPK_BLOCK, CompressedGradient,
                                keep_count)
from ..csd.device import SmartSSDDevice
from ..csd.handler import (Subgroup, TransferHandler, naive_update_pass,
                           plan_subgroups)
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..errors import DeviceFailedError, RetryExhaustedError
from ..faults.plan import Series
from ..memory import thread_arena
from ..modelcomp.quantization import (QuantizedTensor, QuantizerKernel,
                                      dequantize_int8)
from ..optim.base import scratch_buffers
from ..storage.blockdev import IOCounters
from .engine import TrainingConfig, fault_bypass
from .parallel import CSDWorkerPool
from .partition import Shard

#: Checkpointed arrays of one shard besides its optimizer states.
MASTERS, RESIDUAL = "master_params", "ef_residual"


class UpstreamSink(Protocol):
    """Where one shard's updated FP32 masters go — the only per-transport
    code on the device chain (and the seam a test can fake)."""

    def destination(self, subgroup: Subgroup) -> ContextManager[np.ndarray]:
        """Yield the ``subgroup.count``-element buffer the subgroup's
        masters must land in; leaving the block cleanly delivers them."""


def dense_shard_grads(compressed: Optional[CompressedGradient],
                      shard_grads: np.ndarray) -> np.ndarray:
    """The gradient vector the shard's update kernel would consume."""
    if compressed is None:
        return shard_grads
    grads = np.zeros(compressed.original_size, dtype=np.float32)
    grads[compressed.indices] = compressed.values
    return grads


def recover_in_flight(optimizer, subgroups: Sequence[Subgroup],
                      masters: np.ndarray, states: Dict[str, np.ndarray],
                      grads: np.ndarray, step_count: int,
                      committed_params: Set[int],
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
    state_names = optimizer.state_names
    for subgroup in subgroups:
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
                if not params_done \
                        or (name, subgroup.start) not in committed_states:
                    states[name][sl] = scratch_state[name]


class ShardWorker:
    """One CSD's complete state machine.

    Owns the emulated SmartSSD, the transfer handler and its lazy
    write-back thread, the updater / decompressor / quantizer kernels,
    the error-feedback residual, the step's compressed stream, commit
    tracking, and demotion.  What differs by host is passed in rather
    than built: the optimizer, the fault injector (streams are seeded
    per device id, so a shared injector and a per-process one inject the
    same sequence), the shard's initial masters and the upstream sink.

    Every per-step method returns a small dict of scalars — ``index`` and
    ``demoted_now``, plus ``recovered`` / ``cause`` / ``cause_type`` /
    ``retry_exhausted`` on the step a device is lost.  Bytes are not
    reported: the device's own ledgers (:meth:`ledgers`) hold them.
    Arrays never enter a response: a demoted shard's state is left in
    :attr:`salvaged` for the transport to move.
    """

    def __init__(self, index: int, shard: Shard, config: TrainingConfig,
                 storage_dir: str, optimizer, faults,
                 masters: np.ndarray, sink: UpstreamSink) -> None:
        self.index = index
        self.shard = shard
        self.config = config
        self.optimizer = optimizer
        self.state_names = optimizer.state_names
        self.faults = faults
        self.sink = sink
        self.demoted = False
        #: This step's compressed stream (None for dense SmartUpdate);
        #: a demoted shard's host-CPU update consumes it.
        self.compressed: Optional[CompressedGradient] = None
        #: ``(masters, states)`` read off a lost device, until the
        #: transport hands them to the host-side bookkeeping.
        self.salvaged: Optional[Tuple[np.ndarray,
                                      Dict[str, np.ndarray]]] = None
        # The step's dense gradients, held only while an update may
        # still need them for in-flight recovery.
        self._grads: Optional[np.ndarray] = None
        max_sub = min(config.subgroup_elements, shard.count)
        self.subgroups = plan_subgroups(shard.count, max_sub)
        self._edges = np.array(
            [subgroup.start for subgroup in self.subgroups] + [shard.count])
        self._groups_per_sub = -(-max_sub // config.quantization_group)
        self.handler: Optional[TransferHandler] = None
        self.device = self._open_device(storage_dir)
        try:
            # Initial state placement (setup traffic, on neither link's
            # ledger and outside the fault domain).
            with fault_bypass(faults):
                self.device.store.write_array(MASTERS, masters)
                zero = np.zeros(shard.count, dtype=np.float32)
                for name in self.state_names:
                    self.device.store.write_array(name, zero)
            self.kernel = UpdaterKernel(optimizer)
            self.decompressor = DecompressorKernel()
            if config.use_transfer_handler:
                self.handler = TransferHandler(self.device,
                                               self.state_names, max_sub)
            self.feedback: Optional[ErrorFeedback] = None
            if config.compression_ratio is not None \
                    and config.error_feedback:
                self.feedback = ErrorFeedback(shard.count)
            self.quantizer: Optional[QuantizerKernel] = None
            if config.quantized_upstream:
                self.quantizer = QuantizerKernel(config.quantization_group)
        except BaseException:
            # The caller never gets a handle to close.
            self.close(abandon=True)
            raise

    def _open_device(self, storage_dir: str) -> SmartSSDDevice:
        """Create and lay out this shard's SmartSSD (file, regions, DRAM)."""
        shard, config, faults = self.shard, self.config, self.faults
        words = 2 + self.optimizer.states_per_param
        device = SmartSSDDevice(
            os.path.join(storage_dir, f"csd{shard.device_id}.img"),
            4 * shard.count * words + shard.count + (2 << 20),
            device_id=shard.device_id,
            fault_site=(faults.site(shard.device_id)
                        if faults is not None else None))
        device.store.allocate(MASTERS, shard.count)
        for name in self.state_names:
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
            device.store.allocate("masters_q", shard.count, dtype=np.int8)
            device.store.allocate(
                "masters_scales",
                len(self.subgroups) * self._groups_per_sub,
                dtype=np.float32)
        return device

    def resident(self) -> Dict[str, int]:
        """Host-resident bytes this shard holds between steps."""
        compressed = self.compressed
        return {
            "ef_residual": (0 if self.feedback is None
                            else self.feedback.nbytes),
            "compressed_stream": (0 if compressed is None
                                  else compressed.nbytes),
            "handler_dram": (0 if self.demoted
                             else self.device.dram_allocated)}

    def ledgers(self) -> Tuple[IOCounters, IOCounters, IOCounters]:
        """The device's cumulative ``(host, internal, device)`` ledgers:
        the host link and the private P2P path of Table I, and every
        read and write of the SSD itself (setup, salvage and checkpoint
        I/O included)."""
        device = self.device
        return device.host_traffic, device.internal_traffic, \
            device.ssd.counters

    # ------------------------------------------------------------------
    def _response(self) -> Dict[str, object]:
        return {"index": self.index, "demoted_now": False}

    # ------------------------------------------------------------------
    # the per-step chain
    # ------------------------------------------------------------------
    def offload(self, grads: np.ndarray, overflow: bool) -> Dict[str, object]:
        """Backward-phase offload of this shard's gradients to its CSD
        (dense, or GPU-compressed for SmartComp).

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
        resp = self._response()
        ratio = self.config.compression_ratio
        with telemetry.trace_span("offload_device", device=self.index,
                                  resource="host-link-down",
                                  worker=threading.current_thread().name):
            compressed = None
            if ratio is not None:
                # The |g| magnitude pass stages block by block in this
                # worker thread's arena.
                with thread_arena().checkout(
                        min(self.shard.count, TOPK_BLOCK)) as scratch:
                    compressed = compress_with_feedback(
                        grads, None if overflow else self.feedback, ratio,
                        abs_scratch=scratch)
            self.compressed = compressed
            if self.demoted:
                return resp
            self._grads = None if overflow else grads
            try:
                if compressed is None:
                    self.device.host_write("grads", grads)
                else:
                    self.device.host_write("comp_indices",
                                           compressed.indices)
                    self.device.host_write("comp_values",
                                           compressed.values)
            except (DeviceFailedError, RetryExhaustedError) as exc:
                # No update was in flight, so the device holds a
                # consistent post-previous-step shard: demote now and
                # let the update phase run this step host-side.
                self._demote(exc, resp)
        return resp

    def update(self, step_count: int, lr: float) -> Dict[str, object]:
        """Near-storage update + upstream transfer (Fig. 4b / Fig. 6b).

        A permanent device failure (or an exhausted retry budget — the
        next rung of the degradation ladder) during the pass triggers
        demotion with exact recovery, so the step's result is
        bit-identical to a fault-free run.
        """
        resp = self._response()
        if self.demoted:
            return resp
        self.optimizer.lr = lr
        # Which subgroup slices durably reached the SSD, so a mid-pass
        # failure can be recovered exactly (see recover_in_flight).
        committed_params: Set[int] = set()
        committed_states: Set[Tuple[str, int]] = set()
        try:
            self._update_pass(step_count, committed_params,
                              committed_states)
        except (DeviceFailedError, RetryExhaustedError) as exc:
            self._demote(exc, resp, step_count,
                         in_flight=(committed_params, committed_states))
        finally:
            self._grads = None
        return resp

    def step(self, grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> Dict[str, object]:
        """Fused offload+update for the interleaved schedule.

        The per-device operation sequence is exactly offload-then-update
        — identical to the phased two-call protocol — so results and
        fault streams are bit-identical.  The caller withholds the
        update exactly on an overflow step.
        """
        resp = self.offload(grads, overflow=not do_update)
        if not do_update or self.demoted:
            return resp
        return self.update(step_count, lr)

    def _update_pass(self, step_count: int, committed_params: Set[int],
                     committed_states: Set[Tuple[str, int]]) -> None:
        load_grads, release_grads = self._grad_loader()

        def on_params_written(subgroup: Subgroup) -> None:
            # The urgent write-back just landed: record the commit before
            # the upstream transfer, which may itself hit a fault.
            committed_params.add(subgroup.start)
            with telemetry.trace_span("upstream_subgroup",
                                      device=self.index,
                                      subgroup=subgroup.index,
                                      resource="host-link-up"):
                self._upstream_subgroup(subgroup)

        def on_state_written(name: str, subgroup: Subgroup) -> None:
            committed_states.add((name, subgroup.start))

        with telemetry.trace_span("device_update", device=self.index,
                                  subgroups=len(self.subgroups),
                                  worker=threading.current_thread().name):
            try:
                if self.handler is not None:
                    self.handler.run_update_pass(
                        self.subgroups, self.kernel, step_count,
                        load_grads, on_params_written)
                else:
                    naive_update_pass(
                        self.device, self.subgroups, self.kernel,
                        step_count, self.state_names, load_grads,
                        on_params_written, on_state_written)
            finally:
                release_grads()

    def _grad_loader(self) -> Tuple[Callable[[Subgroup, np.ndarray],
                                             np.ndarray],
                                    Callable[[], None]]:
        """Build the per-subgroup gradient loader for one update pass.

        SmartUpdate reads dense gradients over P2P; SmartComp reads the
        compressed stream over P2P and runs the FPGA decompressor to fill
        the gradient buffer for the subgroup's index range (§V-B).

        The compressed stream is read over the internal path *once per
        update pass* directly into arena-staged blocks cached in "FPGA
        DRAM" for the pass — it is read-only while the pass runs — with
        one precomputed ``searchsorted`` over the subgroup boundaries.
        The per-subgroup closure then just slices and rebases indices in
        place, instead of re-reading the whole O(kept) stream for every
        subgroup (which made internal-read traffic O(subgroups x kept)).

        Returns ``(loader, release)``; ``release`` must run on the same
        thread once the pass ends to return the staged blocks.
        """
        device = self.device
        if self.compressed is None:
            def load_dense(subgroup: Subgroup,
                           buffer: np.ndarray) -> np.ndarray:
                return device.p2p_read_into("grads", subgroup.start,
                                            buffer, subgroup.count)
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
            indices = device.p2p_read_into("comp_indices", 0, idx_stage,
                                           kept)
            values = device.p2p_read_into("comp_values", 0, val_stage, kept)
        except BaseException:
            release()
            raise
        # Subgroups tile [0, shard.count) in order, so one sorted lookup
        # of every boundary yields each subgroup's [lo, hi) stream slice.
        bounds = np.searchsorted(indices, self._edges, side="left")
        decompressor = self.decompressor

        def load_compressed(subgroup: Subgroup,
                            buffer: np.ndarray) -> np.ndarray:
            # The decompressor selects the cached entries belonging to
            # this subgroup, rebases them to subgroup-local positions in
            # the staging block, and scatters into the gradient buffer.
            lo = int(bounds[subgroup.index])
            hi = int(bounds[subgroup.index + 1])
            local_view = local_stage[:hi - lo]
            np.subtract(indices[lo:hi], np.int32(subgroup.start),
                        out=local_view)
            local = CompressedGradient(
                indices=local_view, values=values[lo:hi],
                original_size=subgroup.count)
            return decompressor.run(local, buffer)

        return load_compressed, release

    def _upstream_subgroup(self, subgroup: Subgroup) -> None:
        """Upstream one subgroup's updated parameters to the host.

        Plain flow (Fig. 4b step 4): the host reads the FP32 masters (2M
        total) straight into the sink's buffer, so the FP16 working copy
        can be refreshed immediately and the next forward start early.

        Quantized flow (§VIII-B): the CSD quantizes the masters (still
        resident in FPGA DRAM after the update) to int8 + per-group
        scales, writes them over the internal path, and the host reads
        only the compressed form — ~4x less upstream traffic — then
        dequantizes for the straight-through-estimator forward pass.
        """
        device = self.device
        start, count = subgroup.start, subgroup.count
        with self.sink.destination(subgroup) as buffer:
            if self.quantizer is None:
                device.host_read_into(MASTERS, buffer, start, count)
                return
            # The masters are already in FPGA DRAM after the urgent
            # write-back, so no extra P2P read is needed; we fetch them
            # through the store un-metered to emulate that, staging in
            # the destination until the dequantized values replace them.
            quantized = self.quantizer.run(
                device.store.read_slice_into(MASTERS, start, count, buffer))
            scale_offset = subgroup.index * self._groups_per_sub
            device.p2p_write("masters_q", start, quantized.values)
            device.p2p_write("masters_scales", scale_offset,
                             quantized.scales)
            # Host reads the compressed form only.
            arena = thread_arena()
            with arena.checkout(count, np.int8) as q_values, \
                    arena.checkout(quantized.scales.size) as scales:
                device.host_read_into("masters_q", q_values, start, count)
                device.host_read_into("masters_scales", scales,
                                      scale_offset, scales.size)
                np.copyto(buffer, dequantize_int8(QuantizedTensor(
                    values=q_values, scales=scales,
                    group_size=self.config.quantization_group,
                    original_size=count)))

    # ------------------------------------------------------------------
    # graceful degradation (demotion to the host-CPU update path)
    # ------------------------------------------------------------------
    def _demote(self, cause: BaseException, resp: Dict[str, object],
                step_count: int = 0, in_flight=None) -> None:
        """Permanently take this shard off its device.

        Salvages the shard's masters and optimizer states off the failed
        device's NVMe namespace (the emulated maintenance path — reads
        bypass the fault domain) and recovers any half-finished update
        pass exactly.  The host side adopts :attr:`salvaged` and from
        then on updates the shard like the paper's baseline; training
        output stays bit-identical throughout.
        """
        with telemetry.trace_span("engine.demote", device=self.index,
                                  cause=type(cause).__name__):
            if self.faults is not None:
                # An exhausted retry budget demotes too: mark the device
                # dead so any straggling I/O fails fast instead of
                # burning more backoff time.
                self.faults.fail_device(self.shard.device_id,
                                        reason=str(cause))
            committed_states: Set[Tuple[str, int]] = set()
            if self.handler is not None:
                # Join the lazy write-back worker; its commit log is
                # final only after the join.
                self.handler.abandon()
                committed_states |= self.handler.state_commits
            with fault_bypass(self.faults):
                masters = self.device.store.read_array(MASTERS)
                states = {name: self.device.store.read_array(name)
                          for name in self.state_names}
            if in_flight is not None:
                committed_params, naive_states = in_flight
                committed_states |= naive_states
                recover_in_flight(
                    self.optimizer, self.subgroups, masters, states,
                    dense_shard_grads(self.compressed, self._grads),
                    step_count, committed_params, committed_states)
            self.salvaged = (masters, states)
            self.demoted = True
            self.device.close()
        resp.update(
            demoted_now=True, recovered=in_flight is not None,
            cause=str(cause), cause_type=type(cause).__name__,
            retry_exhausted=isinstance(cause, RetryExhaustedError))

    # ------------------------------------------------------------------
    # checkpointing + teardown (maintenance traffic, outside the fault
    # domain; a demoted shard's masters and states live host-side)
    # ------------------------------------------------------------------
    def read_state(self, out: Dict[str, np.ndarray]) -> None:
        """Copy masters, states and the EF residual into ``out``'s arrays."""
        if not self.demoted:
            with fault_bypass(self.faults):
                for name in (MASTERS, *self.state_names):
                    self.device.store.read_array_into(name, out[name])
        if self.feedback is not None:
            np.copyto(out[RESIDUAL], self.feedback.residual)

    def write_state(self, arrays: Dict[str, np.ndarray],
                    restore_residual: bool) -> None:
        """Adopt ``arrays`` as this shard's masters, states and residual."""
        if not self.demoted:
            with fault_bypass(self.faults):
                for name in (MASTERS, *self.state_names):
                    self.device.store.write_array(name, arrays[name])
        if self.feedback is not None and restore_residual:
            np.copyto(self.feedback.residual, arrays[RESIDUAL])

    def close(self, abandon: bool = False) -> None:
        """Release handler and device; a demotion already did."""
        if self.demoted:
            return
        if self.handler is not None:
            if abandon:
                self.handler.abandon()
            else:
                self.handler.close()
        self.device.close()


class InProcessShardCoordinator:
    """The thread backend: N shard workers in this process.

    ``workers=1`` degenerates to an inline loop on the calling thread,
    so the sequential engine is exactly the per-device loop.  A demotion
    is reported through ``on_demotion`` inline, on the worker's thread,
    right after its ``engine.demote`` span closes; the engine records
    the incident at the step's end.
    """

    def __init__(self, storage_dir: str, shards: Sequence[Shard],
                 config: TrainingConfig, optimizer, faults,
                 masters: np.ndarray, workers: int,
                 make_sink: Callable[[Shard], UpstreamSink],
                 on_demotion: Callable[[Dict[str, object]], None]) -> None:
        self._names = (MASTERS, *optimizer.state_names)
        self._total = masters.size
        self._has_residual = (config.compression_ratio is not None
                              and config.error_feedback)
        self._on_demotion = on_demotion
        self._workers: List[ShardWorker] = []
        self.pool = CSDWorkerPool(workers)
        try:
            for index, shard in enumerate(shards):
                self._workers.append(ShardWorker(
                    index, shard, config, storage_dir, optimizer, faults,
                    masters[shard.start:shard.end], make_sink(shard)))
        except BaseException:
            self.close(abandon=True)
            raise

    def _report(self, resp: Dict[str, object]) -> Dict[str, object]:
        if resp["demoted_now"]:
            self._on_demotion(resp)
        return resp

    # ------------------------------------------------------------------
    # per-step protocol
    # ------------------------------------------------------------------
    def offload(self, flat_grads: np.ndarray,
                overflow: bool) -> List[Dict[str, object]]:
        return self.pool.map_ordered(
            lambda worker: self._report(worker.offload(
                flat_grads[worker.shard.start:worker.shard.end], overflow)),
            self._workers)

    def update(self, step_count: int, lr: float
               ) -> List[Dict[str, object]]:
        return self.pool.map_ordered(
            lambda worker: self._report(worker.update(step_count, lr)),
            self._workers)

    def step(self, flat_grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> List[Dict[str, object]]:
        """Interleaved schedule: each shard's offload+update chain is
        one task, so an early shard's update overlaps a late shard's
        offload."""
        return self.pool.map_ordered(
            lambda worker: self._report(worker.step(
                flat_grads[worker.shard.start:worker.shard.end],
                step_count, lr, do_update)),
            self._workers)

    # ------------------------------------------------------------------
    def compressed_view(self, index: int) -> Optional[CompressedGradient]:
        """This step's compressed stream for one shard (host-CPU path)."""
        return self._workers[index].compressed

    def salvage_arrays(self, index: int
                       ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """A demoted shard's salvaged masters/states, handed over."""
        worker = self._workers[index]
        salvaged, worker.salvaged = worker.salvaged, None
        return salvaged

    def ledgers(self) -> List[Tuple[IOCounters, IOCounters, IOCounters]]:
        """Every shard's live ``(host, internal, device)`` ledgers."""
        return [worker.ledgers() for worker in self._workers]

    def fault_series(self) -> Dict[Series, float]:
        """None of its own: the workers share the engine's injector."""
        return {}

    def resident(self) -> Dict[str, int]:
        """The workers' host-resident bytes, summed per owner."""
        shards = [worker.resident() for worker in self._workers]
        return {key: sum(shard[key] for shard in shards)
                for key in shards[0]}

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def gather_state(self, host_shards: Dict[int, Dict[str, np.ndarray]]
                     ) -> Dict[str, np.ndarray]:
        """Flat arrays for a checkpoint, merging demoted host copies."""
        names = self._names + ((RESIDUAL,) if self._has_residual else ())
        out = {name: np.empty(self._total, dtype=np.float32)
               for name in names}
        for worker in self._workers:
            view = slice(worker.shard.start, worker.shard.end)
            worker.read_state({name: out[name][view] for name in names})
            host = host_shards.get(worker.index)
            if host is not None:
                for name in self._names:
                    out[name][view] = host[name]
        return out

    def scatter_state(self, arrays: Dict[str, np.ndarray],
                      host_shards: Dict[int, Dict[str, np.ndarray]]
                      ) -> None:
        """Distribute flat checkpoint arrays back to every shard."""
        for worker in self._workers:
            view = slice(worker.shard.start, worker.shard.end)
            worker.write_state(
                {name: array[view] for name, array in arrays.items()},
                RESIDUAL in arrays)
            host = host_shards.get(worker.index)
            if host is not None:
                for name in self._names:
                    host[name][:] = arrays[name][view]

    def close(self, abandon: bool = False) -> None:
        """Release the pool, then every handler and device. Idempotent.

        The sinks and the demotion callback are bound methods of the
        engine that owns this coordinator; dropping them here is what
        lets refcounting alone free a closed engine.
        """
        self.pool.close()
        for worker in self._workers:
            worker.close(abandon=abandon)
            worker.sink = None
        self._on_demotion = None


__all__ = ["InProcessShardCoordinator", "ShardWorker", "UpstreamSink"]
