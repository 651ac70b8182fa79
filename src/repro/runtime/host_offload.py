"""Host-memory offloaded training (the ZeRO-Offload substrate, §II).

Before storage offloading, the intermediate point in the memory hierarchy
is host DRAM: FP32 optimizer states live in pinned host memory and the
CPU executes the update, with no storage involved.  The paper builds on
this lineage ([90], [98]); this engine implements it as the third member
of the engine family, sharing the same mixed-precision forward/backward,
so all three can be compared on identical footing:

* :class:`HostOffloadEngine` — states in host DRAM, CPU update, zero
  storage traffic (but the whole model must fit in host memory);
* :class:`~repro.runtime.engine.BaselineOffloadEngine` — states on
  RAID0 storage, CPU update (ZeRO-Infinity);
* :class:`~repro.runtime.smart.SmartInfinityEngine` — states on CSDs,
  near-storage FPGA update.

Training through this engine is bit-identical to both of the others (the
update arithmetic is the same flat element-wise step), which the tests
assert — the whole engine family computes one trajectory.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .. import telemetry
from ..errors import TrainingError
from ..memory import SEGMENT_ALIGN, SharedMemoryArena, size_class
from ..nn.modules import Module
from ..telemetry import flight
from .engine import (LossFn, MixedPrecisionTrainer, StepResult,
                     TrainingConfig)
from .interleave import InterleavedScheduler
from .parallel import (CSDWorkerPool, ProcessCSDWorkerPool,
                       resolve_backend, resolve_workers)
from .stats import TrafficMeter


class HostOffloadEngine(MixedPrecisionTrainer):
    """ZeRO-Offload-style training: optimizer states in host memory."""

    def __init__(self, model: Module, loss_fn: LossFn,
                 config: Optional[TrainingConfig] = None) -> None:
        config = config or TrainingConfig()
        super().__init__(model, loss_fn, config)
        self._closed = False
        host_memory_bytes = config.host_memory_bytes
        total = self.space.total_elements
        states_bytes = 4 * total * self.optimizer.states_per_param
        if host_memory_bytes is not None and states_bytes > \
                host_memory_bytes:
            self._teardown_flight()
            raise TrainingError(
                f"optimizer states need {states_bytes} B but host memory "
                f"is {host_memory_bytes} B — this is exactly the wall "
                "storage-offloaded training exists to break")
        self.meter = TrafficMeter()
        # No storage directory here: activation_offload=spill is
        # rejected loudly.
        try:
            self._init_activation_offload(None)
        except BaseException:
            self._teardown_flight()
            raise
        # Update blocks are the shard analogue here: disjoint flat
        # slices of host-resident state, so they fan out over the same
        # worker pool the CSD engine uses.
        num_blocks = -(-total // config.subgroup_elements)
        self.workers = resolve_workers(config.parallel_csds, num_blocks)
        self.backend = resolve_backend(config.parallel_backend,
                                       self.workers)
        self._interleave: Optional[InterleavedScheduler] = None
        self._arena: Optional[SharedMemoryArena] = None
        self._layout: Optional[dict] = None
        self._grads_shm: Optional[np.ndarray] = None
        if self.backend == "process":
            # Masters, moments and the per-step gradient vector live in
            # one shared-memory arena, so worker processes update their
            # blocks in place; the pipe carries only (start, stop, step,
            # lr) and the constant layout descriptor.
            names = self.optimizer.state_names
            rows = 3 + len(names)  # masters + grads + states
            capacity = rows * (4 * size_class(total) + 2 * SEGMENT_ALIGN)
            self._arena = SharedMemoryArena(capacity, name="host-shards")
            self._masters = self._arena.acquire(total)
            np.copyto(self._masters, self.space.gather_params())
            init = self.optimizer.init_state(total)
            self._state = {}
            for name in names:
                view = self._arena.acquire(total)
                np.copyto(view, init[name])
                self._state[name] = view
            self._grads_shm = self._arena.acquire(total)
            regions = {"masters": self._masters, "grads": self._grads_shm,
                       **{f"state:{name}": view
                          for name, view in self._state.items()}}
            self._layout = {
                "segment": self._arena.segment.descriptor(),
                "optimizer": config.optimizer,
                "optimizer_kwargs": dict(config.optimizer_kwargs),
                "regions": {
                    name: (self._arena.offset_of(view), int(view.size),
                           view.dtype.str)
                    for name, view in regions.items()},
            }
            self._pool = ProcessCSDWorkerPool(self.workers,
                                              name_prefix="host-proc")
        else:
            self._masters = self.space.gather_params()
            self._state = self.optimizer.init_state(total)
            self._pool = CSDWorkerPool(self.workers,
                                       name_prefix="host-worker")
            if self.schedule == "interleaved":
                self._interleave = InterleavedScheduler(self._pool)
        self.space.install_fp16_params(self._masters)

    def _step_impl(self, batches) -> StepResult:
        with telemetry.trace_span("iteration", engine="host") as span:
            self.meter.begin_iteration()
            with telemetry.trace_span("forward_backward"):
                loss, flat_grads, norm, overflow = \
                    self.forward_backward_many(batches)
            proceed = self.scaler.update(overflow)
            if proceed:
                self.step_count += 1
                self._apply_lr_schedule()
                # There is no offload phase to hide the update inside
                # here; the interleaved schedule routes the blocks
                # through the ready-queue scheduler (submission-ordered
                # with bounded in-flight window) under its own phase
                # span, keeping the two schedules attributable apart.
                span_name = ("interleaved_update"
                             if self.schedule == "interleaved"
                             else "update")
                with telemetry.trace_span(span_name):
                    with telemetry.trace_span("host_update",
                                              resource="host-cpu"):
                        self._cpu_update(flat_grads)
            traffic = self.meter.end_iteration()
            self.loss_history.append(loss)
            span.set(step=self.step_count, loss=loss, overflow=overflow)
        return StepResult(step=self.step_count, loss=loss, grad_norm=norm,
                          overflow=overflow, traffic=traffic)

    def _cpu_update(self, flat_grads: np.ndarray) -> None:
        """Block-wise CPU update over the host-resident states.

        Blocks touch disjoint slices of the masters/state/gradient
        vectors and install disjoint ranges of the parameter space's flat
        working buffer, so they run concurrently on the worker pool —
        bit-identically to the sequential loop, since the update is
        element-wise.

        The fused optimizer stages its temporaries in each worker
        thread's private arena (:func:`repro.memory.thread_arena`), so a
        steady-state update pass allocates no ndarrays at all.
        """
        total = self.space.total_elements
        size = self.config.subgroup_elements
        if self._arena is not None:
            self._cpu_update_process(flat_grads, total, size)
            return

        def update_block(start: int) -> None:
            stop = min(start + size, total)
            chunk_state = {name: buf[start:stop]
                           for name, buf in self._state.items()}
            self.optimizer.step(self._masters[start:stop],
                                flat_grads[start:stop], chunk_state,
                                self.step_count)
            self.space.install_fp16_slice(start,
                                          self._masters[start:stop])

        if self._interleave is not None:
            self._interleave.run(update_block, range(0, total, size))
        else:
            self._pool.map_ordered(update_block, range(0, total, size))

    def _cpu_update_process(self, flat_grads: np.ndarray, total: int,
                            size: int) -> None:
        """Process-backend update: blocks mutate shared memory in place.

        The gradient vector is published through the arena once, each
        worker process updates its disjoint ``[start, stop)`` slices of
        the shared masters/states, and the parent refreshes the FP16
        working copy once at the end — bit-identical to the per-block
        installs, since only the final masters matter.
        """
        from .procworker import _host_update_task, ingest_response

        np.copyto(self._grads_shm, flat_grads)
        spans_on = telemetry.enabled()
        flight_on = flight.active_recorder() is not None
        tasks = [{
            "start": start, "stop": min(start + size, total),
            "step": self.step_count, "lr": float(self.optimizer.lr),
            "layout": self._layout, "spans": spans_on,
            "flight": flight_on,
        } for start in range(0, total, size)]
        for resp in self._pool.map_ordered(_host_update_task, tasks):
            ingest_response(resp)
        self.space.install_fp16_params(self._masters)

    def state_arrays(self) -> Sequence[np.ndarray]:
        """The host-resident optimizer state (for inspection/tests)."""
        return [self._masters] + [self._state[name]
                                  for name in self.optimizer.state_names]

    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments for checkpointing (private copies)."""
        return {"master_params": self._masters.copy(),
                **{name: self._state[name].copy()
                   for name in self.optimizer.state_names}}

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Adopt flat masters + moments from a checkpoint."""
        self._masters[:] = arrays["master_params"]
        for name in self.optimizer.state_names:
            self._state[name][:] = arrays[name]

    def close(self) -> None:
        """Release the worker pool (no storage to close). Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._teardown_flight()
        self._pool.close()
        if self._arena is not None:
            self._arena.close()
