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

Steps 2-4 are one :class:`~repro.runtime.shardworker.ShardWorker` per
CSD — the concurrency structure behind the paper's near-linear Fig. 11
scaling.  This engine is the trainer's offload/update hooks written
against a shard *coordinator*, plus the one thing that is host-side by
nature: the host-CPU path a demoted shard falls back to (the step's
phase order, scaler verdict and traffic meter are the shared trainer's;
a step's traffic is the delta of the CSDs' own ``host_traffic`` /
``internal_traffic`` ledgers, which the coordinator exposes).
The coordinator runs the workers on threads in this process or
in per-CSD worker processes; because shards are disjoint and every
worker owns private storage and buffers, either placement is
bit-identical to the sequential loop.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..compression.topk import CompressedGradient
from ..csd.handler import Subgroup, plan_subgroups
from ..errors import TrainingError
from ..faults.plan import Series
from ..memory import thread_arena
from ..modelcomp.pruning import PruningMask, magnitude_mask
from ..modelcomp.quantization import QuantizerKernel, dequantize_int8
from ..nn.modules import Module
from .engine import (LossFn, MixedPrecisionTrainer, TrainingConfig,
                     make_fault_injector)
from .partition import Shard, distribute_shards
from .shardworker import (MASTERS, InProcessShardCoordinator,
                          dense_shard_grads)
from .stats import IterationTraffic


class _InstallSink:
    """In-process upstream sink of one shard: each subgroup's masters
    are read into a block of the worker thread's arena and installed
    (pruning mask, FP16 cast) from that thread as soon as they land."""

    def __init__(self, install, shard: Shard) -> None:
        self._install = install
        self._start = shard.start

    @contextlib.contextmanager
    def destination(self, subgroup: Subgroup):
        with thread_arena().checkout(subgroup.count) as block:
            yield block
            self._install(self._start + subgroup.start, block)


class SmartInfinityEngine(MixedPrecisionTrainer):
    """Near-storage training engine over multiple functional SmartSSDs."""

    engine_name = "smart"

    def __init__(self, model: Module, loss_fn: LossFn, storage_dir: str,
                 config: Optional[TrainingConfig] = None) -> None:
        config = config or TrainingConfig()
        if config.num_csds < 1:
            raise TrainingError("need at least one CSD")
        # Per-device work is independent (disjoint shards, private
        # files, private handlers), so the base resolves one worker per
        # CSD (workers=1 is exactly the sequential loop) and where they
        # run: on threads in this process (GIL-bound but cheap) or in
        # per-CSD worker processes behind shared-memory shard channels.
        super().__init__(model, loss_fn, config, storage_dir,
                         devices=config.num_csds)
        self.faults = make_fault_injector(config, self.fault_ledger)

        # Graceful-degradation bookkeeping: a demoted device's shard
        # lives host-side in _host_shards (masters + optimizer states)
        # and is updated by the CPU path from then on.
        self.demotions: List[Tuple[int, str]] = []
        self._host_shards: Dict[int, Dict[str, np.ndarray]] = {}

        self.shards: List[Shard] = distribute_shards(
            self.space.total_elements, config.num_csds)
        self._coord = None
        try:
            os.makedirs(storage_dir, exist_ok=True)
            self._state_names = self.optimizer.state_names
            masters = self.space.gather_params()
            # §VIII-B extensions: pruning mask over the flat space, and
            # the quantizer the host-side demotion path replays the
            # upstream round-trip with (pure arithmetic, no device).
            self.pruning_mask: Optional[PruningMask] = None
            if config.pruning_sparsity is not None:
                self.pruning_mask = magnitude_mask(masters,
                                                   config.pruning_sparsity)
            self._quantizer: Optional[QuantizerKernel] = None
            if config.quantized_upstream:
                self._quantizer = QuantizerKernel(config.quantization_group)

            if self.backend == "process":
                from .procworker import ProcessShardCoordinator
                self._coord = ProcessShardCoordinator(
                    storage_dir, self.shards, config, self._state_names,
                    masters, self.workers, self._install_copy,
                    self._absorb_demotion)
            else:
                self._coord = InProcessShardCoordinator(
                    storage_dir, self.shards, config, self.optimizer,
                    self.faults, masters, self.workers,
                    lambda shard: _InstallSink(self._install, shard),
                    self._absorb_demotion)
            # The step metrics count steps, not the placement.
            self._io_snapshot = self._io_totals()

            working = masters.copy()
            if self.pruning_mask is not None:
                self.pruning_mask.apply(working)
            self.space.install_fp16_params(working)
        except BaseException:
            self._shutdown(abandon=True)
            raise

    @property
    def num_csds(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # step hooks, written against the shard coordinator: per-device work
    # runs wherever the backend put the shard workers and the responses
    # carry only scalars.  Demotions are absorbed by _absorb_demotion as
    # the coordinator reports them, so the host-CPU degradation path
    # (and the resulting trajectory) is the same on both backends.
    # ------------------------------------------------------------------
    def _offload(self, flat_grads: np.ndarray, overflow: bool) -> None:
        self._finish(self._coord.offload(flat_grads, overflow),
                     flat_grads, updated=False)

    def _update(self, flat_grads: np.ndarray) -> None:
        self._finish(self._coord.update(self.step_count,
                                        self.optimizer.lr),
                     flat_grads, updated=True)

    def _offload_update(self, flat_grads: np.ndarray,
                        proceed: bool) -> None:
        self._finish(self._coord.step(flat_grads, self.step_count,
                                      self.optimizer.lr, proceed),
                     flat_grads, updated=proceed)

    def _finish(self, responses, flat_grads: np.ndarray,
                updated: bool) -> None:
        """If this round of shard responses ran the update, run it
        host-side for every demoted shard it could not cover."""
        if not updated:
            return
        # A worker that demoted mid-pass replayed it exactly, and
        # absorbing that installed the recovered FP16 too.
        recovered = {resp["index"] for resp in responses
                     if resp["demoted_now"] and resp["recovered"]}
        for index in sorted(self._host_shards):
            if index not in recovered:
                self._host_update_shard(
                    index, self._coord.compressed_view(index), flat_grads)

    def _traffic_totals(self) -> IterationTraffic:
        """The CSDs' host and internal link ledgers, summed."""
        totals = IterationTraffic()
        for host, internal, _ in self._coord.ledgers():
            totals.host_reads += host.bytes_read
            totals.host_writes += host.bytes_written
            totals.internal_reads += internal.bytes_read
            totals.internal_writes += internal.bytes_written
        return totals

    def _io_totals(self) -> Dict[str, Tuple[int, int]]:
        totals = super()._io_totals()
        for shard, (_, _, device) in zip(self.shards, self._coord.ledgers()):
            totals[f"csd{shard.device_id}"] = (device.bytes_read,
                                               device.bytes_written)
        return totals

    def fault_series(self) -> Dict[Series, float]:
        """The ledger's series plus the worker processes' faults (none
        on the thread backend, whose workers count into the ledger)."""
        series = super().fault_series()
        series.update(self._coord.fault_series())  # disjoint families
        return series

    def _resident(self) -> Dict[str, int]:
        if self.backend == "process" or self._host_shards:
            raise TrainingError(
                "host_resident covers the thread backend without "
                "demoted shards (ROADMAP item 5)")
        return self._coord.resident()

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------
    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments (+ EF residuals) for checkpointing.

        Maintenance traffic, outside the fault domain; demoted shards
        are gathered from their host-resident copies, so checkpointing
        keeps working after graceful degradation — exactly when a
        checkpoint matters most.
        """
        return self._coord.gather_state(self._host_shards)

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Write flat masters + moments back into shard storage."""
        self._coord.scatter_state(arrays, self._host_shards)

    # ------------------------------------------------------------------
    # graceful degradation (demotion to the host-CPU update path)
    # ------------------------------------------------------------------
    def _absorb_demotion(self, resp: Dict[str, object]) -> None:
        """Adopt a worker-reported demotion into the host bookkeeping.

        The worker has already marked its device dead and salvaged
        masters + states (exactly replaying any in-flight subgroup
        work); this side takes them into ``_host_shards``, refreshes the
        FP16 working copy when an update was recovered, and raises the
        incident, which the engine records at the step's end.  Runs on
        the worker's thread in-process, on the main thread once the
        response is back from a worker process.
        """
        index = int(resp["index"])
        cause, cause_type = str(resp["cause"]), str(resp["cause_type"])
        masters, states = self._coord.salvage_arrays(index)
        self._host_shards[index] = {MASTERS: masters, **states}
        if resp["recovered"]:
            # Refresh the FP16 working copy for the whole shard: some
            # subgroups never upstreamed, and recovery may have changed
            # masters for partially-written ones.  Re-install is
            # idempotent for the rest.
            for subgroup in self._subgroups(index):
                self._install_host_subgroup(
                    index, subgroup,
                    masters[subgroup.start:subgroup.start + subgroup.count])
        self.demotions.append((index, cause))
        self.fault_ledger.add("faults_demotions_total", device=index)
        kind = ("retry_exhausted" if resp["retry_exhausted"]
                else "device_dropout")
        self._raise_incident(
            kind, key=f"{kind}:device{index}",
            message=(f"device {index} demoted to host-CPU path "
                     f"({cause_type}: {cause})"),
            device=index, cause=cause_type)

    def _subgroups(self, index: int) -> List[Subgroup]:
        count = self.shards[index].count
        return plan_subgroups(
            count, min(self.config.subgroup_elements, count))

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
        masters = host[MASTERS]
        grads = dense_shard_grads(compressed,
                                  flat_grads[shard.start:shard.end])
        subgroups = self._subgroups(index)
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
        self.fault_ledger.add("faults_degraded_steps_total", device=index)

    def _install_host_subgroup(self, index: int, subgroup: Subgroup,
                               masters_slice: np.ndarray) -> None:
        """Host-side twin of a shard worker's upstream transfer.

        Emulates the quantize -> dequantize upstream round-trip (exact:
        the device path stores int8 values and float32 scales verbatim)
        and the pruning mask, then refreshes the FP16 working copy.
        """
        start = self.shards[index].start + subgroup.start
        if self._quantizer is None:
            self._install_copy(start, masters_slice)
        else:
            self._install(start, dequantize_int8(
                self._quantizer.run(masters_slice)))

    def _install(self, start: int, values: np.ndarray) -> None:
        """Install updated FP32 masters at flat offset ``start``;
        ``values`` is scratch the pruning mask may zero in place."""
        if self.pruning_mask is not None:
            self.pruning_mask.slice(start, values.size).apply(values)
        self.space.install_fp16_slice(start, values)

    def _install_copy(self, start: int, values: np.ndarray) -> None:
        """:meth:`_install` for ``values`` that must survive the mask."""
        self._install(start, values if self.pruning_mask is None
                      else values.copy())

    # ------------------------------------------------------------------
    def _release(self, abandon: bool) -> None:
        """Release workers, handlers and devices; demoted devices (and
        their abandoned handlers) are already closed and are skipped."""
        if self._coord is not None:
            self._coord.close(abandon=abandon)
