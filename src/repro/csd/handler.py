"""Internal data-transfer handler (§IV-B) — the SU+O optimization.

The naive SmartUpdate loop allocates buffers per subgroup and runs
load -> update -> full write-back strictly sequentially (Fig. 5a).  The
optimized handler (Fig. 5b):

1. **pre-allocates** one device-DRAM buffer per variable, sized for the
   largest subgroup, at initialization (no per-subgroup allocation, no OOM
   from naive double buffering);
2. after the update, **urgently** writes back only the parameters (the
   GPU needs them for the next forward) and immediately lets the next
   subgroup's loads begin reusing the parameter/gradient buffers;
3. **lazily** writes back momentum/variance on a background worker (they
   are only needed at the *next* iteration's update), overlapping those
   writes with the next subgroup's work.

This functional implementation uses a real worker thread, so file I/O for
lazy write-backs genuinely overlaps the caller's next-subgroup work, while
per-variable events enforce the buffer-reuse dependency: a buffer is not
reloaded until its lazy write-back has drained.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..errors import CapacityError, KernelError
from .device import SmartSSDDevice
from .kernels import UpdaterKernel


@dataclass(frozen=True)
class Subgroup:
    """One contiguous slice of a device's flat parameter shard."""

    index: int
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count <= 0:
            raise KernelError(f"invalid subgroup {self}")


def plan_subgroups(total_elements: int,
                   subgroup_elements: int) -> List[Subgroup]:
    """Split ``total_elements`` into DRAM-sized subgroups (the tasklets)."""
    if total_elements <= 0 or subgroup_elements <= 0:
        raise KernelError("element counts must be positive")
    groups = []
    for index, start in enumerate(range(0, total_elements,
                                        subgroup_elements)):
        count = min(subgroup_elements, total_elements - start)
        groups.append(Subgroup(index=index, start=start, count=count))
    return groups


class TransferHandler:
    """The optimized internal data-transfer handler for one CSD."""

    #: Region names: parameters are urgent; the rest are lazy.
    URGENT = "master_params"

    def __init__(self, device: SmartSSDDevice, state_names: Sequence[str],
                 max_subgroup_elements: int) -> None:
        if max_subgroup_elements <= 0:
            raise KernelError("max_subgroup_elements must be positive")
        self.device = device
        self.state_names = tuple(state_names)
        self.max_subgroup_elements = max_subgroup_elements
        self._variables = (self.URGENT, "grads") + self.state_names

        # Buffer pre-allocation (the core of the optimization): one buffer
        # per variable, sized for the largest subgroup, allocated once —
        # the device's ``dram_allocated`` is this footprint, fixed.
        self.buffers: Dict[str, np.ndarray] = {}
        for name in self._variables:
            self.buffers[name] = device.allocate_dram(
                f"handler/{name}", max_subgroup_elements)

        # Per-variable "buffer free" latches for lazy write-back reuse.
        self._buffer_free: Dict[str, threading.Event] = {}
        for name in self.state_names:
            event = threading.Event()
            event.set()
            self._buffer_free[name] = event

        # C-level queue: a put is the whole hand-off (no task accounting).
        self._lazy_queue: "queue.SimpleQueue[Optional[tuple]]" = \
            queue.SimpleQueue()
        # Commit log of lazy state write-backs that actually reached the
        # SSD: (region name, subgroup start).  The engine's demotion path
        # reads it (after abandon() joins the worker) to decide which
        # optimizer-state slices must be recomputed on the host.  Cleared
        # at the start of each update pass.
        self.state_commits: set = set()
        self._writer_error: Optional[BaseException] = None
        self._writer = threading.Thread(
            target=self._drain_lazy, name=f"csd{device.device_id}-lazy",
            daemon=True)
        self._writer.start()
        self._closed = False

    # ------------------------------------------------------------------
    # lazy write-back worker (the paper's "thread 0 defers the remaining
    # variables"; here the deferred writes run on a dedicated worker)
    # ------------------------------------------------------------------
    def _drain_lazy(self) -> None:
        while True:
            item = self._lazy_queue.get()
            if item is None:
                return
            name, subgroup = item
            buffer = self.buffers[name][:subgroup.count]
            # Explicit begin/end: this span opens and closes inside the
            # worker loop, the case the context-manager form cannot cover.
            token = telemetry.span_begin(
                "handler.lazy_writeback", device=self.device.device_id,
                region=name, subgroup=subgroup.index,
                elements=subgroup.count, nbytes=buffer.nbytes,
                queue_depth=self._lazy_queue.qsize(),
                resource=f"ssd{self.device.device_id}-write")
            try:
                if self._writer_error is None:
                    self.device.p2p_write(name, subgroup.start, buffer)
                    self.state_commits.add((name, subgroup.start))
            except BaseException as exc:
                # Record the first failure and keep draining: the buffer
                # latches must keep firing or producers would deadlock.
                # The error surfaces at the next _check_writer() sync.
                self._writer_error = exc
            finally:
                self._buffer_free[name].set()
                telemetry.span_end(token)

    def _check_writer(self) -> None:
        if self._writer_error is not None:
            error, self._writer_error = self._writer_error, None
            raise error

    # ------------------------------------------------------------------
    # the update pass
    # ------------------------------------------------------------------
    def run_update_pass(
            self, subgroups: Sequence[Subgroup], kernel: UpdaterKernel,
            step_num: int,
            load_grads: Callable[[Subgroup, np.ndarray], np.ndarray],
            on_params_written: Optional[Callable[[Subgroup], None]] = None,
    ) -> None:
        """Update every subgroup of this device's shard.

        ``load_grads`` fills the gradient buffer for a subgroup (plain P2P
        read for SmartUpdate; decompress-on-FPGA for SmartComp).
        ``on_params_written`` fires right after the urgent parameter
        write-back — the hook the runtime uses to start the upstream
        host transfer early.
        """
        if self._closed:
            raise KernelError("handler is closed")
        self.state_commits.clear()
        for subgroup in subgroups:
            if subgroup.count > self.max_subgroup_elements:
                raise CapacityError(
                    f"subgroup of {subgroup.count} elements exceeds "
                    f"pre-allocated {self.max_subgroup_elements}")
            self._check_writer()

            with telemetry.trace_span(
                    "handler.subgroup", device=self.device.device_id,
                    subgroup=subgroup.index, elements=subgroup.count):
                # Load phase.  Parameters/gradients can load immediately
                # (their buffers were freed by the urgent write-back); each
                # state buffer must wait for its lazy write-back to drain.
                with telemetry.trace_span(
                        "handler.load",
                        resource=f"ssd{self.device.device_id}-read"):
                    params = self.device.p2p_read_into(
                        self.URGENT, subgroup.start,
                        self.buffers[self.URGENT], subgroup.count)
                    grads = load_grads(subgroup, self.buffers["grads"])
                    state = {}
                    for name in self.state_names:
                        self._buffer_free[name].wait()
                        state[name] = self.device.p2p_read_into(
                            name, subgroup.start, self.buffers[name],
                            subgroup.count)

                # Update phase on the FPGA.  The fault guard fires before
                # the kernel touches DRAM, so a retried (stalled) pass
                # still mutates state exactly once.
                with telemetry.trace_span(
                        "handler.kernel",
                        resource=f"csd{self.device.device_id}-updater"):
                    self.device.fault_guard("kernel")
                    kernel.run(params, grads, state, step_num)

                # Urgent write-back: parameters first, synchronously.
                with telemetry.trace_span(
                        "handler.urgent_writeback",
                        device=self.device.device_id,
                        subgroup=subgroup.index, nbytes=params.nbytes,
                        resource=f"ssd{self.device.device_id}-write"):
                    self.device.p2p_write(self.URGENT, subgroup.start,
                                          params)
                if on_params_written is not None:
                    on_params_written(subgroup)

                # Lazy write-back: defer momentum/variance to the worker.
                for name in self.state_names:
                    self._buffer_free[name].clear()
                    self._lazy_queue.put((name, subgroup))

            # Wait for this subgroup's lazy writes before reusing the state
            # buffers in the next loop iteration (enforced by the events).

        with telemetry.trace_span("handler.synchronize",
                                  device=self.device.device_id):
            self.synchronize()

    def synchronize(self) -> None:
        """Block until every deferred write-back has reached the SSD."""
        for name in self.state_names:
            self._buffer_free[name].wait()
        self._check_writer()

    def close(self) -> None:
        if self._closed:
            return
        self.synchronize()
        self._lazy_queue.put(None)
        self._writer.join(timeout=10.0)
        for name in self._variables:
            self.device.free_dram(f"handler/{name}")
        self._closed = True

    def abandon(self) -> None:
        """Shut down after a device failure, without raising.

        Unlike :meth:`close`, this neither synchronizes (the device is
        gone; pending writes can only fail) nor re-raises the worker's
        recorded error.  It drains the worker so ``state_commits`` is
        final and frees the DRAM buffers.  Used by the engine's demotion
        path before salvaging the shard to the host.
        """
        if self._closed:
            return
        self._lazy_queue.put(None)
        self._writer.join(timeout=10.0)
        self._writer_error = None
        for name in self._variables:
            self.device.free_dram(f"handler/{name}")
        self._closed = True

    def __enter__(self) -> "TransferHandler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def naive_update_pass(
        device: SmartSSDDevice, subgroups: Sequence[Subgroup],
        kernel: UpdaterKernel, step_num: int, state_names: Sequence[str],
        load_grads: Callable[[Subgroup, np.ndarray], np.ndarray],
        on_params_written: Optional[Callable[[Subgroup], None]] = None,
        on_state_written: Optional[Callable[[str, Subgroup], None]] = None,
) -> None:
    """The Fig. 5a baseline: per-subgroup allocation, fully sequential.

    Used by tests to show the optimized handler computes identical results,
    and by the ablation experiments as the plain-SU reference.
    ``on_state_written`` mirrors the optimized handler's commit log: it
    fires after each optimizer-state slice reaches the SSD, letting the
    engine's demotion path track commits on this path too.
    """
    for subgroup in subgroups:
        buffers = {
            name: device.allocate_dram(f"naive{subgroup.index}/{name}",
                                       subgroup.count)
            for name in ("master_params", "grads", *state_names)
        }
        try:
            params = device.p2p_read_into(
                "master_params", subgroup.start, buffers["master_params"],
                subgroup.count)
            grads = load_grads(subgroup, buffers["grads"])
            state = {
                name: device.p2p_read_into(name, subgroup.start,
                                           buffers[name], subgroup.count)
                for name in state_names
            }
            device.fault_guard("kernel")
            with telemetry.trace_span(
                    "naive.kernel",
                    resource=f"csd{device.device_id}-updater"):
                kernel.run(params, grads, state, step_num)
            device.p2p_write("master_params", subgroup.start,
                             buffers["master_params"][:subgroup.count])
            if on_params_written is not None:
                on_params_written(subgroup)
            for name in state_names:
                device.p2p_write(name, subgroup.start,
                                 buffers[name][:subgroup.count])
                if on_state_written is not None:
                    on_state_written(name, subgroup)
        finally:
            for name in buffers:
                device.free_dram(f"naive{subgroup.index}/{name}")
