"""Process-backed CSD shard workers over shared-memory channels.

The thread pool in :mod:`repro.runtime.parallel` gives the Fig. 11
fan-out its structure, but CPython's GIL caps how much of the per-device
work (Top-K selection, optimizer ufuncs, int8 quantization) truly
overlaps.  This module moves each CSD's state machine into a persistent
worker *process*:

* every shard gets a :class:`ShardChannel` — a set of fixed regions
  (gradients down, updated masters up, optimizer-state rows, the
  compressed stream, the error-feedback residual) checked out of one
  :class:`~repro.memory.SharedMemoryArena`, so both sides address the
  same physical pages through ndarray views;
* the task pipe carries **descriptors and scalars only** — region
  offsets at init, ``(step_count, lr)`` per update, byte counts and
  fault snapshots back.  :func:`repro.runtime.parallel._check_payload`
  enforces that no ndarray ever crosses the pipe;
* the child owns everything device-shaped: the emulated SmartSSD and its
  backing file, the transfer handler and its lazy-writeback thread, the
  updater/decompressor/quantizer kernels, the error-feedback residual,
  and its *own* :class:`~repro.faults.FaultInjector` built from the same
  plan — fault streams are seeded per device id, so the injected
  sequence is identical to thread mode and chaos runs stay bit-exact;
* telemetry hops the boundary by forwarding: each task response drains
  the child's span tracer and flight recorder (absolute timestamps,
  rebased on ingest), so parent dumps interleave child fault events with
  host-side alerts in one ordered timeline.

The per-shard arithmetic itself is not duplicated: the child calls the
same module-level helpers (:func:`~repro.runtime.smart.build_shard_device`,
:func:`~repro.runtime.smart.recover_in_flight`, ...) the thread engine
uses, which is what makes ``backend=process`` bit-identical to
``backend=thread`` by construction.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from ..compression.error_feedback import ErrorFeedback, compress_with_feedback
from ..compression.topk import CompressedGradient, keep_count
from ..csd.handler import (Subgroup, TransferHandler, naive_update_pass,
                           plan_subgroups)
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..errors import DeviceFailedError, RetryExhaustedError, TrainingError
from ..memory import (SEGMENT_ALIGN, SharedMemoryArena, SharedSegment,
                      size_class, thread_arena)
from ..modelcomp.quantization import QuantizerKernel, QuantizedTensor, \
    dequantize_int8
from ..optim import make_optimizer
from ..telemetry import flight
from ..telemetry.flight import DEFAULT_CAPACITY, FlightRecorder
from .parallel import ProcessCSDWorkerPool
from .partition import Shard


# ----------------------------------------------------------------------
# the shard channel: one shard's shared-memory regions
# ----------------------------------------------------------------------

class ShardChannel:
    """One CSD shard's fixed shared-memory regions.

    All tensor traffic between parent and child flows through these
    views; the pipe only ever names them.  Regions double up across
    phases — ``upstream`` carries the initial masters down at init, the
    updated masters up each step, and the salvaged masters after a
    demotion — which keeps the footprint at a handful of shard-sized
    rows per device.
    """

    def __init__(self, arena: SharedMemoryArena, shard: Shard, config,
                 state_names: Sequence[str]) -> None:
        count = shard.count
        self.grads = arena.acquire(count, np.float32)
        self.upstream = arena.acquire(count, np.float32)
        self.states = {name: arena.acquire(count, np.float32)
                       for name in state_names}
        self.comp_indices: Optional[np.ndarray] = None
        self.comp_values: Optional[np.ndarray] = None
        self.residual: Optional[np.ndarray] = None
        if config.compression_ratio is not None:
            kept = keep_count(count, config.compression_ratio)
            self.comp_indices = arena.acquire(kept, np.int32)
            self.comp_values = arena.acquire(kept, np.float32)
            if config.error_feedback:
                self.residual = arena.acquire(count, np.float32)

    def _regions(self) -> Dict[str, Optional[np.ndarray]]:
        named: Dict[str, Optional[np.ndarray]] = {
            "grads": self.grads, "upstream": self.upstream,
            "comp_indices": self.comp_indices,
            "comp_values": self.comp_values, "residual": self.residual,
        }
        for name, view in self.states.items():
            named[f"state:{name}"] = view
        return named

    def describe(self, arena: SharedMemoryArena) -> Dict[str, Tuple]:
        """Picklable ``name -> (offset, count, dtype)`` region table."""
        return {name: (arena.offset_of(view), int(view.size),
                       view.dtype.str)
                for name, view in self._regions().items()
                if view is not None}


def _channel_capacity(shards: Sequence[Shard], config,
                      num_states: int) -> int:
    """Segment bytes needed for every shard's channel, with slack for
    the arena's power-of-two size classes and per-block alignment."""
    total = 0
    for shard in shards:
        rows = [(shard.count, 4), (shard.count, 4)]  # grads + upstream
        rows += [(shard.count, 4)] * num_states
        if config.compression_ratio is not None:
            kept = keep_count(shard.count, config.compression_ratio)
            rows += [(kept, 4), (kept, 4)]
            if config.error_feedback:
                rows.append((shard.count, 4))
        for elements, itemsize in rows:
            total += size_class(elements) * itemsize + 2 * SEGMENT_ALIGN
    return total


# ----------------------------------------------------------------------
# child-process side
# ----------------------------------------------------------------------

# Per-process worker registry. Sticky routing in ProcessCSDWorkerPool
# guarantees shard index j always lands on worker j % workers, so each
# child process only ever sees its own indexes.
_STATE: Dict[str, object] = {
    "workers": {},        # index -> _ShardWorker
    "segments": {},       # segment name -> attached SharedSegment
    "flight_cursor": 0,
    "flight_capacity": DEFAULT_CAPACITY,
    "reset": False,
}


def _attach_segment(descriptor: Dict[str, object]) -> SharedSegment:
    segments: Dict[str, SharedSegment] = _STATE["segments"]
    name = str(descriptor["name"])
    segment = segments.get(name)
    if segment is None:
        segment = SharedSegment.attach(descriptor)
        segments[name] = segment
    return segment


def _sync_telemetry(task: Dict[str, object]) -> None:
    """Match this child's telemetry globals to the parent's, per task.

    Forked children inherit the parent's installed recorder/session
    *objects*; the first task sheds them (their contents belong to the
    parent) and from then on the child runs its own, created and torn
    down as the parent's flags flip.
    """
    if not _STATE["reset"]:
        telemetry.disable()
        flight.install(None)
        _STATE["reset"] = True
    spans_on = bool(task.get("spans"))
    if spans_on and not telemetry.enabled():
        telemetry.enable()
    elif not spans_on and telemetry.enabled():
        telemetry.disable()
    flight_on = bool(task.get("flight"))
    recorder = flight.active_recorder()
    if flight_on and recorder is None:
        flight.install(FlightRecorder(
            capacity_per_worker=int(_STATE["flight_capacity"])))
        _STATE["flight_cursor"] = 0
    elif not flight_on and recorder is not None:
        flight.install(None)


def _drain_telemetry(resp: Dict[str, object]) -> None:
    """Attach this child's new events and spans to a task response."""
    recorder = flight.active_recorder()
    if recorder is not None:
        cursor, events = recorder.export_since(
            int(_STATE["flight_cursor"]))
        _STATE["flight_cursor"] = cursor
        if events:
            resp["events"] = events
    session = telemetry.active()
    if session is not None:
        spans = session.tracer.export_drain()
        if spans:
            resp["spans"] = spans


class _ShardWorker:
    """One CSD's complete state machine, resident in a child process."""

    def __init__(self, task: Dict[str, object]) -> None:
        # Deferred import: smart.py imports this module for the
        # coordinator, so the child-side helpers are bound lazily.
        from .smart import build_shard_device

        self.index = int(task["index"])
        self.shard: Shard = task["shard"]
        self.config = task["config"]
        self.state_names = list(task["state_names"])
        self.demoted = False
        config = self.config

        self.optimizer = make_optimizer(config.optimizer,
                                        **config.optimizer_kwargs)
        from .engine import fault_bypass, make_fault_injector
        self._fault_bypass = fault_bypass
        self.faults = make_fault_injector(config)
        site = (self.faults.site(self.shard.device_id)
                if self.faults is not None else None)
        self.device = build_shard_device(
            str(task["storage_dir"]), self.shard, config,
            self.state_names, int(task["states_per_param"]), site)

        segment = _attach_segment(task["segment"])
        views: Dict[str, np.ndarray] = {}
        for name, (offset, count, dtype) in task["regions"].items():
            views[name] = segment.view(int(offset), int(count), dtype)
        self.grads = views["grads"]
        self.upstream = views["upstream"]
        self.states = {name: views[f"state:{name}"]
                       for name in self.state_names}
        self.comp_indices = views.get("comp_indices")
        self.comp_values = views.get("comp_values")
        self.residual = views.get("residual")

        self.kernel = UpdaterKernel(
            self.optimizer, chunk_elements=config.kernel_chunk_elements)
        self.decompressor = DecompressorKernel(
            chunk_elements=config.kernel_chunk_elements)
        max_sub = min(config.subgroup_elements, self.shard.count)
        self.handler: Optional[TransferHandler] = None
        if config.use_transfer_handler:
            self.handler = TransferHandler(self.device, self.state_names,
                                           max_sub)
        self.feedback: Optional[ErrorFeedback] = None
        if config.compression_ratio is not None and config.error_feedback:
            self.feedback = ErrorFeedback(self.shard.count)
        self.quantizer: Optional[QuantizerKernel] = None
        if config.quantized_upstream:
            group = config.quantization_group
            chunk = max(group,
                        (config.kernel_chunk_elements // group) * group)
            self.quantizer = QuantizerKernel(group_size=group,
                                             chunk_elements=chunk)
        self._compressed: Optional[CompressedGradient] = None

        # Initial placement, exactly as the thread engine does it: the
        # parent handed this shard's masters down through the upstream
        # region (setup traffic, outside the fault domain).
        with self._fault_bypass(self.faults):
            self.device.store.write_array("master_params", self.upstream)
            zero = np.zeros(self.shard.count, dtype=np.float32)
            for name in self.state_names:
                self.device.store.write_array(name, zero)

    # ------------------------------------------------------------------
    def _base_resp(self) -> Dict[str, object]:
        return {"index": self.index, "host_write": 0, "host_read": 0,
                "internal_read": 0, "internal_write": 0,
                "demoted_now": False}

    def _traffic_snapshot(self) -> Tuple[int, int]:
        traffic = self.device.internal_traffic
        return traffic.bytes_read, traffic.bytes_written

    def _finish_traffic(self, resp: Dict[str, object],
                        snapshot: Tuple[int, int]) -> None:
        traffic = self.device.internal_traffic
        resp["internal_read"] = traffic.bytes_read - snapshot[0]
        resp["internal_write"] = traffic.bytes_written - snapshot[1]

    # ------------------------------------------------------------------
    # the two per-step tasks
    # ------------------------------------------------------------------
    def offload(self, overflow: bool) -> Dict[str, object]:
        """Mirror of the thread engine's ``_offload_device`` (this shard).

        Compression (which mutates the child-resident error-feedback
        residual, except on an ``overflow`` step) runs exactly once and
        the stream is published to the channel *before* any device I/O,
        so the parent's host-CPU path can consume it after a demotion at
        any point of the step.
        """
        resp = self._base_resp()
        snapshot = self._traffic_snapshot()
        ratio = self.config.compression_ratio
        with telemetry.trace_span(
                "offload_device", device=self.index,
                resource="host-link-down",
                worker=threading.current_thread().name):
            compressed = None
            if ratio is not None:
                with thread_arena().checkout(self.shard.count) as scratch:
                    compressed = compress_with_feedback(
                        self.grads,
                        None if overflow else self.feedback, ratio,
                        abs_scratch=scratch)
                np.copyto(self.comp_indices, compressed.indices)
                np.copyto(self.comp_values, compressed.values)
            self._compressed = compressed
            if self.demoted:
                return resp
            try:
                if compressed is None:
                    self.device.host_write("grads", self.grads)
                    resp["host_write"] = 4 * self.shard.count
                else:
                    self.device.host_write("comp_indices",
                                           compressed.indices)
                    self.device.host_write("comp_values",
                                           compressed.values)
                    resp["host_write"] = compressed.nbytes
            except (DeviceFailedError, RetryExhaustedError) as exc:
                self._finish_traffic(resp, snapshot)
                self._demote(exc, resp)
                return resp
        self._finish_traffic(resp, snapshot)
        return resp

    def step(self, step_count: int, lr: float,
             do_update: bool) -> Dict[str, object]:
        """Fused offload+update for the interleaved schedule.

        Runs this shard's offload and (when the parent's scaler verdict
        allows) its near-storage update back-to-back in one task, so
        shard chains overlap freely across worker processes with no
        offload barrier.  The per-device operation sequence is exactly
        offload-then-update — identical to the phased two-task protocol
        — so results and fault streams are bit-identical.  The parent
        withholds the update exactly on an overflow step.
        """
        resp = self.offload(overflow=not do_update)
        if not do_update or self.demoted:
            return resp
        upd = self.update(step_count, lr)
        for key in ("host_write", "host_read", "internal_read",
                    "internal_write"):
            resp[key] = int(resp.get(key, 0)) + int(upd.get(key, 0))
        if upd.get("demoted_now"):
            for key in ("demoted_now", "recovered", "cause",
                        "cause_type", "retry_exhausted"):
                resp[key] = upd[key]
        return resp

    def update(self, step_count: int, lr: float) -> Dict[str, object]:
        """Near-storage update + upstream transfer for this shard."""
        resp = self._base_resp()
        if self.demoted:
            return resp
        snapshot = self._traffic_snapshot()
        self.optimizer.lr = lr
        committed_params: Set[int] = set()
        committed_states: Set[Tuple[str, int]] = set()
        try:
            self._update_pass(step_count, resp, committed_params,
                              committed_states)
            self._finish_traffic(resp, snapshot)
        except (DeviceFailedError, RetryExhaustedError) as exc:
            self._finish_traffic(resp, snapshot)
            self._demote(exc, resp, step_count=step_count,
                         in_flight=(committed_params, committed_states))
        return resp

    def _update_pass(self, step_count: int, resp: Dict[str, object],
                     committed_params: Set[int],
                     committed_states: Set[Tuple[str, int]]) -> None:
        from .smart import make_grad_loader

        config = self.config
        max_sub = min(config.subgroup_elements, self.shard.count)
        subgroups = plan_subgroups(self.shard.count, max_sub)
        load_grads, release_grads = make_grad_loader(
            self.device, self.decompressor, self._compressed, subgroups)

        def on_params_written(subgroup: Subgroup) -> None:
            committed_params.add(subgroup.start)
            with telemetry.trace_span("upstream_subgroup",
                                      device=self.index,
                                      subgroup=subgroup.index,
                                      resource="host-link-up"):
                self._upstream_subgroup(subgroup, resp)

        def on_state_written(name: str, subgroup: Subgroup) -> None:
            committed_states.add((name, subgroup.start))

        with telemetry.trace_span("device_update", device=self.index,
                                  subgroups=len(subgroups),
                                  worker=threading.current_thread().name):
            try:
                if self.handler is not None:
                    self.handler.run_update_pass(subgroups, self.kernel,
                                                 step_count, load_grads,
                                                 on_params_written)
                else:
                    naive_update_pass(self.device, subgroups, self.kernel,
                                      step_count, self.state_names,
                                      load_grads, on_params_written,
                                      on_state_written)
            finally:
                release_grads()

    def _upstream_subgroup(self, subgroup: Subgroup,
                           resp: Dict[str, object]) -> None:
        """Upstream one subgroup's masters into the channel.

        Same transfer arithmetic as the thread engine's
        ``_upstream_subgroup``, but the destination is the shared
        ``upstream`` region instead of the flat parameter space — the
        parent applies pruning and the FP16 install on its side.
        """
        sl = slice(subgroup.start, subgroup.start + subgroup.count)
        device = self.device
        if self.quantizer is None:
            device.host_read_into("master_params", self.upstream[sl],
                                  subgroup.start, subgroup.count)
            resp["host_read"] += 4 * subgroup.count
            return
        with thread_arena().checkout(subgroup.count) as scratch:
            masters = device.store.read_slice_into(
                "master_params", subgroup.start, subgroup.count, scratch)
            quantized = self.quantizer.run(masters)
        config = self.config
        max_sub = min(config.subgroup_elements, self.shard.count)
        groups_per_sub = -(-max_sub // config.quantization_group)
        scale_offset = subgroup.index * groups_per_sub
        device.p2p_write("masters_q", subgroup.start, quantized.values)
        device.p2p_write("masters_scales", scale_offset, quantized.scales)
        q_values = device.host_read("masters_q", subgroup.start,
                                    subgroup.count)
        scales = device.host_read("masters_scales", scale_offset,
                                  quantized.scales.size)
        resp["host_read"] += subgroup.count + 4 * scales.size
        self.upstream[sl] = dequantize_int8(QuantizedTensor(
            values=q_values.astype(np.int8), scales=scales,
            group_size=config.quantization_group,
            original_size=subgroup.count))

    # ------------------------------------------------------------------
    # demotion (child half of graceful degradation)
    # ------------------------------------------------------------------
    def _demote(self, cause: BaseException, resp: Dict[str, object],
                step_count: int = 0, in_flight=None) -> None:
        """Salvage this shard into the channel and mark the device dead.

        The child does everything device-local — abandoning the lazy
        writer, the maintenance-path salvage reads, the exact in-flight
        recovery — then publishes masters through ``upstream`` and the
        optimizer states through their rows.  The parent absorbs those
        into its host-shard bookkeeping and records the incident.
        """
        from .smart import dense_shard_grads, recover_in_flight

        with telemetry.trace_span("engine.demote", device=self.index,
                                  cause=type(cause).__name__):
            if self.faults is not None:
                self.faults.fail_device(self.shard.device_id,
                                        reason=str(cause))
            committed_states: Set[Tuple[str, int]] = set()
            if self.handler is not None:
                self.handler.abandon()
                committed_states |= self.handler.state_commits
            with self._fault_bypass(self.faults):
                masters = self.device.store.read_array("master_params")
                states = {name: self.device.store.read_array(name)
                          for name in self.state_names}
            if in_flight is not None:
                committed_params, naive_states = in_flight
                committed_states |= naive_states
                grads = dense_shard_grads(self._compressed, self.grads)
                recover_in_flight(self.optimizer, self.state_names,
                                  self.config.subgroup_elements, masters,
                                  states, grads, step_count,
                                  committed_params, committed_states)
            np.copyto(self.upstream, masters)
            for name in self.state_names:
                np.copyto(self.states[name], states[name])
            self.demoted = True
            self.device.close()
        resp.update(
            demoted_now=True, recovered=in_flight is not None,
            cause=str(cause), cause_type=type(cause).__name__,
            retry_exhausted=isinstance(cause, RetryExhaustedError))

    # ------------------------------------------------------------------
    # checkpoint + teardown tasks
    # ------------------------------------------------------------------
    def read_state(self) -> Dict[str, object]:
        """Publish masters/states (and the EF residual) to the channel."""
        resp = {"index": self.index, "valid": not self.demoted}
        if not self.demoted:
            with self._fault_bypass(self.faults):
                np.copyto(self.upstream,
                          self.device.store.read_array("master_params"))
                for name in self.state_names:
                    np.copyto(self.states[name],
                              self.device.store.read_array(name))
        if self.feedback is not None:
            np.copyto(self.residual, self.feedback.residual)
        return resp

    def write_state(self, restore_residual: bool) -> Dict[str, object]:
        """Adopt channel contents as this shard's state (scatter half)."""
        if not self.demoted:
            with self._fault_bypass(self.faults):
                self.device.store.write_array("master_params",
                                              self.upstream)
                for name in self.state_names:
                    self.device.store.write_array(name, self.states[name])
        if self.feedback is not None and restore_residual:
            np.copyto(self.feedback.residual, self.residual)
        return {"index": self.index}

    def close_worker(self, abandon: bool) -> Dict[str, object]:
        if not self.demoted:
            if self.handler is not None:
                if abandon:
                    self.handler.abandon()
                else:
                    self.handler.close()
            self.device.close()
        return {"index": self.index}

    def fault_snapshot(self) -> Optional[Dict[str, object]]:
        if self.faults is None:
            return None
        return self.faults.stats.snapshot()


def _shard_task(task: Dict[str, object]) -> Dict[str, object]:
    """The single task entry point the pool ships to child processes."""
    _sync_telemetry(task)
    op = str(task["op"])
    index = int(task["index"])
    if op == "init":
        _STATE["flight_capacity"] = int(
            task.get("flight_capacity", DEFAULT_CAPACITY))
        worker = _ShardWorker(task)
        _STATE["workers"][index] = worker
        resp: Dict[str, object] = {"index": index}
    else:
        worker = _STATE["workers"].get(index)
        if worker is None:
            raise TrainingError(
                f"no shard worker for index {index} in this process "
                f"(init task missing or routed elsewhere)")
        if op == "offload":
            resp = worker.offload(bool(task["overflow"]))
        elif op == "step":
            resp = worker.step(int(task["step_count"]),
                               float(task["lr"]),
                               bool(task["do_update"]))
        elif op == "update":
            resp = worker.update(int(task["step_count"]),
                                 float(task["lr"]))
        elif op == "read_state":
            resp = worker.read_state()
        elif op == "write_state":
            resp = worker.write_state(bool(task.get("residual")))
        elif op == "close":
            resp = worker.close_worker(bool(task.get("abandon")))
        else:
            raise TrainingError(f"unknown shard task op {op!r}")
    resp["worker"] = threading.current_thread().name
    resp["faults"] = worker.fault_snapshot()
    _drain_telemetry(resp)
    return resp


# ----------------------------------------------------------------------
# host-offload blocks (the ZeRO-Offload engine's process backend)
# ----------------------------------------------------------------------

def _host_context(layout: Dict[str, object]) -> Dict[str, object]:
    """This process's cached views + optimizer for one host layout.

    The layout dict is constant for an engine's lifetime, so the child
    resolves it once (attach segment, build views, construct the
    optimizer) and every later block task is just a slice-and-update.
    """
    contexts: Dict[str, Dict[str, object]] = _STATE.setdefault(
        "host_contexts", {})
    key = str(layout["segment"]["name"])
    context = contexts.get(key)
    if context is None:
        segment = _attach_segment(layout["segment"])
        views = {name: segment.view(int(offset), int(count), dtype)
                 for name, (offset, count, dtype)
                 in layout["regions"].items()}
        context = {
            "views": views,
            "optimizer": make_optimizer(str(layout["optimizer"]),
                                        **layout["optimizer_kwargs"]),
        }
        contexts[key] = context
    return context


def _host_update_task(task: Dict[str, object]) -> Dict[str, object]:
    """Update one flat block of host-resident state, in place in shm."""
    _sync_telemetry(task)
    context = _host_context(task["layout"])
    views: Dict[str, np.ndarray] = context["views"]
    optimizer = context["optimizer"]
    optimizer.lr = float(task["lr"])
    start, stop = int(task["start"]), int(task["stop"])
    state = {name[len("state:"):]: view[start:stop]
             for name, view in views.items()
             if name.startswith("state:")}
    optimizer.step(views["masters"][start:stop],
                   views["grads"][start:stop], state, int(task["step"]))
    resp: Dict[str, object] = {"start": start,
                               "worker": threading.current_thread().name}
    _drain_telemetry(resp)
    return resp


def ingest_response(resp: Dict[str, object]) -> None:
    """Fold a child response's forwarded telemetry into this process.

    Shared by the shard coordinator and the host-offload engine: events
    land in the installed flight recorder under the child's worker
    label, spans in the active tracer (rebased to its epoch).
    """
    events = resp.pop("events", None)
    recorder = flight.active_recorder()
    if recorder is not None and events:
        recorder.ingest(str(resp.get("worker", "csd-proc")), events)
    spans = resp.pop("spans", None)
    session = telemetry.active()
    if session is not None and spans:
        session.tracer.ingest(spans)


# ----------------------------------------------------------------------
# parent-process side
# ----------------------------------------------------------------------

class ProcessShardCoordinator:
    """Parent-side handle on the per-CSD worker processes.

    Owns the shared arena, one :class:`ShardChannel` per shard, and the
    :class:`~repro.runtime.parallel.ProcessCSDWorkerPool`.  Every method
    that runs tasks also ingests the children's forwarded telemetry
    (events, spans, fault snapshots) *before* returning, so callers can
    record incidents knowing the triggering child events are already in
    the parent's flight ring.
    """

    def __init__(self, storage_dir: str, shards: Sequence[Shard], config,
                 state_names: Sequence[str], states_per_param: int,
                 masters: np.ndarray, workers: int) -> None:
        self.shards = list(shards)
        self.config = config
        self.state_names = list(state_names)
        self.has_residual = (config.compression_ratio is not None
                             and config.error_feedback)
        self._fault_snapshots: Dict[int, Dict[str, object]] = {}
        self._closed = False
        self.pool: Optional[ProcessCSDWorkerPool] = None
        self.arena = SharedMemoryArena(
            _channel_capacity(self.shards, config, len(self.state_names)),
            name="csd-shards")
        try:
            self.channels = [
                ShardChannel(self.arena, shard, config, self.state_names)
                for shard in self.shards]
            for shard, channel in zip(self.shards, self.channels):
                np.copyto(channel.upstream,
                          masters[shard.start:shard.end])
            self.pool = ProcessCSDWorkerPool(workers)
            descriptor = self.arena.segment.descriptor()
            inits = [{
                "op": "init", "index": index,
                "storage_dir": storage_dir, "shard": shard,
                "config": config,
                "state_names": tuple(self.state_names),
                "states_per_param": int(states_per_param),
                "segment": descriptor,
                "regions": channel.describe(self.arena),
                "flight_capacity": int(config.flight_capacity),
            } for index, (shard, channel) in enumerate(
                zip(self.shards, self.channels))]
            for resp in self.pool.map_ordered(_shard_task, inits):
                self._ingest(resp)
        except BaseException:
            self.close(abandon=True)
            raise

    # ------------------------------------------------------------------
    def _run(self, op: str, **extra: object) -> List[Dict[str, object]]:
        tasks = [{
            "op": op, "index": index,
            "spans": telemetry.enabled(),
            "flight": flight.active_recorder() is not None,
            **extra,
        } for index in range(len(self.shards))]
        responses = self.pool.map_ordered(_shard_task, tasks)
        for resp in responses:
            self._ingest(resp)
        return responses

    def _ingest(self, resp: Dict[str, object]) -> None:
        """Fold one child response's telemetry into the parent's."""
        ingest_response(resp)
        faults = resp.pop("faults", None)
        if faults:
            self._fault_snapshots[int(resp["index"])] = faults

    # ------------------------------------------------------------------
    # per-step protocol
    # ------------------------------------------------------------------
    def offload(self, flat_grads: np.ndarray,
                overflow: bool) -> List[Dict[str, object]]:
        """Phase 1: gradients down through the channels, then the
        children compress (if configured) and write to their devices."""
        for shard, channel in zip(self.shards, self.channels):
            np.copyto(channel.grads, flat_grads[shard.start:shard.end])
        return self._run("offload", overflow=bool(overflow))

    def update(self, step_count: int, lr: float
               ) -> List[Dict[str, object]]:
        """Phase 2: near-storage updates; masters come back upstream."""
        return self._run("update", step_count=int(step_count),
                         lr=float(lr))

    def step(self, flat_grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> List[Dict[str, object]]:
        """Interleaved schedule: one fused offload+update task per shard.

        Gradients go down through the channels once, then each child
        runs its whole chain; the pool pipelines the per-shard tasks, so
        an early shard's update overlaps a late shard's offload.
        """
        for shard, channel in zip(self.shards, self.channels):
            np.copyto(channel.grads, flat_grads[shard.start:shard.end])
        return self._run("step", step_count=int(step_count),
                         lr=float(lr), do_update=bool(do_update))

    # ------------------------------------------------------------------
    # views the engine reads after a step
    # ------------------------------------------------------------------
    def upstream_view(self, index: int) -> np.ndarray:
        return self.channels[index].upstream

    def compressed_view(self, index: int) -> Optional[CompressedGradient]:
        """This step's compressed stream for one shard (host-CPU path)."""
        channel = self.channels[index]
        if channel.comp_indices is None:
            return None
        return CompressedGradient(indices=channel.comp_indices,
                                  values=channel.comp_values,
                                  original_size=self.shards[index].count)

    def salvage_arrays(self, index: int
                       ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Private copies of a demoted shard's salvaged masters/states."""
        channel = self.channels[index]
        return channel.upstream.copy(), {
            name: view.copy() for name, view in channel.states.items()}

    def merge_fault_stats(self, stats: Dict[str, object]) -> None:
        """Add the children's cumulative fault accounting into ``stats``."""
        injected = dict(stats.get("injected") or {})
        for snap in self._fault_snapshots.values():
            for kind, count in (snap.get("injected") or {}).items():
                injected[kind] = injected.get(kind, 0) + int(count)
            stats["retries"] = int(stats["retries"]) + int(snap["retries"])
            stats["retries_exhausted"] = (int(stats["retries_exhausted"])
                                          + int(snap["retries_exhausted"]))
            stats["backoff_seconds"] = (float(stats["backoff_seconds"])
                                        + float(snap["backoff_seconds"]))
            stats["latency_seconds"] = (float(stats["latency_seconds"])
                                        + float(snap["latency_seconds"]))
            stats["dropouts"] = (int(stats["dropouts"])
                                 + int(snap["dropouts"]))
        stats["injected"] = injected

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def gather_state(self, host_shards: Dict[int, Dict[str, np.ndarray]]
                     ) -> Dict[str, np.ndarray]:
        """Flat arrays for a checkpoint, merging demoted host copies."""
        self._run("read_state")
        arrays: Dict[str, List[np.ndarray]] = {
            "master_params": [], **{n: [] for n in self.state_names}}
        for index in range(len(self.shards)):
            host = host_shards.get(index)
            channel = self.channels[index]
            source = host if host is not None else {
                "master_params": channel.upstream, **channel.states}
            arrays["master_params"].append(source["master_params"])
            for name in self.state_names:
                arrays[name].append(source[name])
        out = {name: np.concatenate(parts)
               for name, parts in arrays.items()}
        if self.has_residual:
            out["ef_residual"] = np.concatenate(
                [channel.residual for channel in self.channels])
        return out

    def scatter_state(self, arrays: Dict[str, np.ndarray],
                      host_shards: Dict[int, Dict[str, np.ndarray]]
                      ) -> None:
        """Distribute flat checkpoint arrays back to every shard."""
        restore_residual = self.has_residual and "ef_residual" in arrays
        for index, shard in enumerate(self.shards):
            view = slice(shard.start, shard.end)
            host = host_shards.get(index)
            channel = self.channels[index]
            if host is not None:
                host["master_params"][:] = arrays["master_params"][view]
                for name in self.state_names:
                    host[name][:] = arrays[name][view]
            else:
                np.copyto(channel.upstream, arrays["master_params"][view])
                for name in self.state_names:
                    np.copyto(channel.states[name], arrays[name][view])
            if restore_residual:
                np.copyto(channel.residual, arrays["ef_residual"][view])
        self._run("write_state", residual=restore_residual)

    # ------------------------------------------------------------------
    def close(self, abandon: bool = False) -> None:
        """Tear down workers, pool and the shared arena. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            try:
                self.pool.map_ordered(_shard_task, [
                    {"op": "close", "index": index, "abandon": abandon}
                    for index in range(len(self.shards))])
            except Exception:
                pass  # teardown must not mask the original error
            self.pool.close()
        self.arena.close()


__all__ = [
    "ProcessShardCoordinator",
    "ShardChannel",
    "ingest_response",
]
