"""Process-backed CSD shard workers over shared-memory channels.

The thread pool in :mod:`repro.runtime.parallel` gives the Fig. 11
fan-out its structure, but CPython's GIL caps how much of the per-device
work (Top-K selection, optimizer ufuncs, int8 quantization) truly
overlaps.  This module is the *process transport* for the per-CSD state
machine (:class:`~repro.runtime.shardworker.ShardWorker`): the same
object the thread backend runs in-process lives in a persistent worker
process here, and :class:`ProcessShardCoordinator` ships its method
calls over the task pipe.

* every shard gets a channel — a set of fixed regions (gradients down,
  updated masters up, optimizer-state rows, the compressed stream, the
  error-feedback residual) checked out of one
  :class:`~repro.memory.SharedMemoryArena`, so both sides address the
  same physical pages through ndarray views;
* the task pipe carries **descriptors and scalars only** — region
  offsets at init, ``(step_count, lr)`` per update, and back the
  device's cumulative ledger totals and fault-ledger series after every
  task.  :func:`repro.runtime.parallel._check_payload`
  enforces that no ndarray ever crosses the pipe;
* the child builds what the thread backend shares with its engine: its
  own optimizer and its *own* :class:`~repro.faults.FaultInjector` from
  the same plan — fault streams are seeded per device id, so the
  injected sequence is identical to thread mode and chaos runs stay
  bit-exact;
* spans hop the boundary as a plain list: while the parent traces, the
  child runs a session on epoch 0 and each task response carries the
  spans its tracer finished since the last one, which the parent's
  tracer adopts (rebased) — one object in the parent session, which the
  engine's flight record then refers to.  Faults travel only as the
  child's ledger series.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from ..compression.topk import CompressedGradient, keep_count
from ..csd.handler import Subgroup
from ..errors import TrainingError
from ..faults.plan import Series
from ..memory import (SEGMENT_ALIGN, SharedMemoryArena, SharedSegment,
                      size_class)
from ..optim import make_optimizer
from ..storage.blockdev import IOCounters
from ..telemetry import SpanTracer, TelemetrySession
from .engine import make_fault_injector
from .parallel import ProcessCSDWorkerPool
from .partition import Shard
from .shardworker import MASTERS, RESIDUAL, ShardWorker


# ----------------------------------------------------------------------
# the shard channel: one shard's shared-memory regions
# ----------------------------------------------------------------------

def _channel_rows(shard: Shard, config, state_names: Sequence[str]
                  ) -> Dict[str, Tuple[int, type]]:
    """``name -> (elements, dtype)`` of one shard's channel regions.

    All tensor traffic between parent and child flows through these
    regions; the pipe only ever names them.  Regions double up across
    phases — the masters row carries the initial masters down at init,
    the updated masters up each step, the salvaged masters after a
    demotion and the checkpointed ones on gather/scatter — which keeps
    the footprint at a handful of shard-sized rows per device.
    """
    count = shard.count
    rows = {name: (count, np.float32)
            for name in ("grads", MASTERS, *state_names)}
    if config.compression_ratio is not None:
        kept = keep_count(count, config.compression_ratio)
        rows["comp_indices"] = (kept, np.int32)
        rows["comp_values"] = (kept, np.float32)
        if config.error_feedback:
            rows[RESIDUAL] = (count, np.float32)
    return rows


def _channel_capacity(shards: Sequence[Shard], config,
                      state_names: Sequence[str]) -> int:
    """Segment bytes needed for every shard's channel, with slack for
    the arena's power-of-two size classes and per-block alignment."""
    return sum(
        size_class(elements) * np.dtype(dtype).itemsize + 2 * SEGMENT_ALIGN
        for shard in shards
        for elements, dtype in _channel_rows(shard, config,
                                             state_names).values())


# ----------------------------------------------------------------------
# child-process side
# ----------------------------------------------------------------------

# Per-process worker registry. Sticky routing in ProcessCSDWorkerPool
# guarantees shard index j always lands on worker j % workers, so each
# child process only ever sees its own indexes.
_STATE: Dict[str, object] = {
    "workers": {},        # index -> _ChildShard
    "segments": {},       # segment name -> attached SharedSegment
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


def _sync_telemetry(spans_on: bool) -> None:
    """Match this child's telemetry session to the parent's, per task.

    A forked child inherits the parent's session *object*; the first
    task sheds it (its contents belong to the parent).  From then on the
    child runs a session on epoch 0 while the parent traces spans, so
    the parent can rebase what it is sent.
    """
    if not spans_on or not _STATE["reset"]:
        telemetry.disable()
        _STATE["reset"] = True
    if spans_on and not telemetry.enabled():
        telemetry.enable(TelemetrySession(SpanTracer(epoch=0.0)))


class _ChannelSink:
    """Upstream sink of a child-resident worker: the channel itself.

    Masters land subgroup by subgroup in the shared ``upstream`` region;
    the parent applies pruning and the FP16 install once the task is
    back, so there is nothing to deliver on this side.
    """

    def __init__(self, upstream: np.ndarray) -> None:
        self.upstream = upstream

    def destination(self, subgroup: Subgroup):
        return contextlib.nullcontext(
            self.upstream[subgroup.start:subgroup.start + subgroup.count])


class _ChildShard:
    """A :class:`ShardWorker` resident in this child process, plus the
    channel views that carry its bytes to and from the parent."""

    def __init__(self, task: Dict[str, object]) -> None:
        segment = _attach_segment(task["segment"])
        views = {name: segment.view(int(offset), int(count), dtype)
                 for name, (offset, count, dtype)
                 in task["regions"].items()}
        self.grads = views.pop("grads")
        self.stream = (views.pop("comp_indices", None),
                       views.pop("comp_values", None))
        #: The checkpointed rows, under their checkpoint names.
        self.rows = views
        config = task["config"]
        # The parent handed this shard's initial masters down through
        # the upstream region; the child builds its *own* optimizer and
        # fault injector from the same config.
        self.worker = ShardWorker(
            int(task["index"]), task["shard"], config,
            str(task["storage_dir"]),
            make_optimizer(config.optimizer, **config.optimizer_kwargs),
            make_fault_injector(config), views[MASTERS],
            _ChannelSink(views[MASTERS]))

    def run(self, op: str, task: Dict[str, object]) -> Dict[str, object]:
        worker = self.worker
        if op == "offload":
            resp = worker.offload(self.grads, bool(task["overflow"]))
        elif op == "update":
            resp = worker.update(int(task["step_count"]),
                                 float(task["lr"]))
        elif op == "step":
            resp = worker.step(self.grads, int(task["step_count"]),
                               float(task["lr"]), bool(task["do_update"]))
        elif op == "read_state":
            worker.read_state(self.rows)
            return {"index": worker.index}
        elif op == "write_state":
            worker.write_state(self.rows, bool(task.get("residual")))
            return {"index": worker.index}
        elif op == "close":
            worker.close(abandon=bool(task.get("abandon")))
            return {"index": worker.index}
        else:
            raise TrainingError(f"unknown shard task op {op!r}")
        # Publish what the parent's host-CPU path may need before it can
        # see this response: the step's compressed stream, and after a
        # demotion the salvaged masters and optimizer states, through
        # their rows.
        if op != "update" and worker.compressed is not None:
            np.copyto(self.stream[0], worker.compressed.indices)
            np.copyto(self.stream[1], worker.compressed.values)
        if resp["demoted_now"]:
            masters, states = worker.salvaged
            worker.salvaged = None
            np.copyto(self.rows[MASTERS], masters)
            for name, values in states.items():
                np.copyto(self.rows[name], values)
        return resp


def _shard_task(task: Dict[str, object]) -> Dict[str, object]:
    """The single task entry point the pool ships to child processes."""
    _sync_telemetry(bool(task.get("trace")))
    op = str(task["op"])
    index = int(task["index"])
    if op == "init":
        child = _STATE["workers"][index] = _ChildShard(task)
        resp: Dict[str, object] = {"index": index}
    else:
        child = _STATE["workers"].get(index)
        if child is None:
            raise TrainingError(
                f"no shard worker for index {index} in this process "
                f"(init task missing or routed elsewhere)")
        resp = child.run(op, task)
    resp["worker"] = threading.current_thread().name
    faults = child.worker.faults
    resp["faults"] = {} if faults is None else faults.ledger.series()
    resp["ledgers"] = [
        (io.bytes_read, io.bytes_written, io.read_ops, io.write_ops)
        for io in child.worker.ledgers()]
    session = telemetry.active()
    if session is not None:
        resp["spans"] = session.tracer.spans
        session.tracer.clear()
    return resp


# ----------------------------------------------------------------------
# parent-process side
# ----------------------------------------------------------------------

class ProcessShardCoordinator:
    """Parent-side handle on the per-CSD worker processes.

    Owns the shared arena, one channel (``name -> view``) per shard, and
    the :class:`~repro.runtime.parallel.ProcessCSDWorkerPool`.  Every
    method that runs tasks ingests the children's spans, fault and I/O
    ledgers, and only then reports demotions through ``on_demotion``.
    ``install(start, masters)`` is the parent half of the upstream path.
    """

    def __init__(self, storage_dir: str, shards: Sequence[Shard], config,
                 state_names: Sequence[str], masters: np.ndarray,
                 workers: int,
                 install: Callable[[int, np.ndarray], None],
                 on_demotion: Callable[[Dict[str, object]], None]) -> None:
        self.shards = list(shards)
        self.state_names = list(state_names)
        self.has_residual = (config.compression_ratio is not None
                             and config.error_feedback)
        self._install = install
        self._on_demotion = on_demotion
        self._demoted: Set[int] = set()
        #: Each child's fault ledger as of its last response.
        self._fault_series: Dict[int, Dict[Series, float]] = {}
        #: Each shard's ledgers as of its child's last response.
        self._ledgers: Dict[int, Tuple[IOCounters, ...]] = {}
        self._closed = False
        self.pool: Optional[ProcessCSDWorkerPool] = None
        arena = self.arena = SharedMemoryArena(
            _channel_capacity(self.shards, config, self.state_names),
            name="csd-shards")
        try:
            self.channels = [
                {name: arena.acquire(elements, dtype)
                 for name, (elements, dtype) in _channel_rows(
                     shard, config, self.state_names).items()}
                for shard in self.shards]
            for shard, channel in zip(self.shards, self.channels):
                np.copyto(channel[MASTERS], masters[shard.start:shard.end])
            self.pool = ProcessCSDWorkerPool(workers)
            descriptor = arena.segment.descriptor()
            inits = [{
                "op": "init", "index": index,
                "storage_dir": storage_dir, "shard": shard,
                "config": config,
                "segment": descriptor,
                "regions": {name: (arena.offset_of(view), int(view.size),
                                   view.dtype.str)
                            for name, view in channel.items()},
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
            "trace": telemetry.enabled(),
            **extra,
        } for index in range(len(self.shards))]
        responses = self.pool.map_ordered(_shard_task, tasks)
        for resp in responses:
            self._ingest(resp)
        for resp in responses:
            if resp.get("demoted_now"):
                self._demoted.add(int(resp["index"]))
                self._on_demotion(resp)
        return responses

    def _ingest(self, resp: Dict[str, object]) -> None:
        """Fold one child response into the parent: its spans into the
        active tracer (rebased to its epoch), and its fault ledger and
        I/O ledger totals in place of the last."""
        spans = resp.pop("spans", ())
        session = telemetry.active()
        if session is not None:
            for span in spans:
                session.tracer.adopt(span)
        self._fault_series[int(resp["index"])] = resp.pop("faults")
        self._ledgers[int(resp["index"])] = tuple(
            IOCounters(*totals) for totals in resp.pop("ledgers"))

    def _send_grads(self, flat_grads: np.ndarray) -> None:
        for shard, channel in zip(self.shards, self.channels):
            np.copyto(channel["grads"], flat_grads[shard.start:shard.end])

    def _install_healthy(self) -> None:
        """Install every healthy shard's updated masters from its channel.

        The child wrote final (already dequantized, for §VIII-B runs)
        FP32 masters into the masters row subgroup by subgroup; by end
        of step only the final values matter, so one whole-shard install
        is bit-identical to the thread backend's per-subgroup installs.
        """
        for index, (shard, channel) in enumerate(
                zip(self.shards, self.channels)):
            if index not in self._demoted:
                self._install(shard.start, channel[MASTERS])

    # ------------------------------------------------------------------
    # per-step protocol
    # ------------------------------------------------------------------
    def offload(self, flat_grads: np.ndarray,
                overflow: bool) -> List[Dict[str, object]]:
        """Phase 1: gradients down through the channels, then the
        children compress (if configured) and write to their devices."""
        self._send_grads(flat_grads)
        return self._run("offload", overflow=bool(overflow))

    def update(self, step_count: int, lr: float
               ) -> List[Dict[str, object]]:
        """Phase 2: near-storage updates; masters come back upstream."""
        responses = self._run("update", step_count=int(step_count),
                              lr=float(lr))
        self._install_healthy()
        return responses

    def step(self, flat_grads: np.ndarray, step_count: int, lr: float,
             do_update: bool) -> List[Dict[str, object]]:
        """Interleaved schedule: one fused offload+update task per shard.

        Gradients go down through the channels once, then each child
        runs its whole chain; the pool pipelines the per-shard tasks, so
        an early shard's update overlaps a late shard's offload.
        """
        self._send_grads(flat_grads)
        responses = self._run("step", step_count=int(step_count),
                              lr=float(lr), do_update=bool(do_update))
        if do_update:
            self._install_healthy()
        return responses

    # ------------------------------------------------------------------
    # views the engine reads after a step
    # ------------------------------------------------------------------
    def compressed_view(self, index: int) -> Optional[CompressedGradient]:
        """This step's compressed stream for one shard (host-CPU path)."""
        channel = self.channels[index]
        if "comp_indices" not in channel:
            return None
        return CompressedGradient(indices=channel["comp_indices"],
                                  values=channel["comp_values"],
                                  original_size=self.shards[index].count)

    def salvage_arrays(self, index: int
                       ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Private copies of a demoted shard's salvaged masters/states."""
        channel = self.channels[index]
        return channel[MASTERS].copy(), {
            name: channel[name].copy() for name in self.state_names}

    def ledgers(self) -> List[Tuple[IOCounters, ...]]:
        """Every shard's ``(host, internal, device)`` ledgers, as its
        child last reported them."""
        return [self._ledgers[index] for index in range(len(self.shards))]

    def fault_series(self) -> Dict[Series, float]:
        """The children's fault ledgers, merged (each counts only its
        own devices, so no series appears twice)."""
        merged: Dict[Series, float] = {}
        for series in self._fault_series.values():
            merged.update(series)
        return merged

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def gather_state(self, host_shards: Dict[int, Dict[str, np.ndarray]]
                     ) -> Dict[str, np.ndarray]:
        """Flat arrays for a checkpoint, merging demoted host copies."""
        self._run("read_state")
        names = (MASTERS, *self.state_names)
        out = {name: np.concatenate(
            [host_shards.get(index, channel)[name]
             for index, channel in enumerate(self.channels)])
            for name in names}
        # SmartComp's error-feedback residuals are training state too:
        # without them a resumed compressed run diverges.
        if self.has_residual:
            out[RESIDUAL] = np.concatenate(
                [channel[RESIDUAL] for channel in self.channels])
        return out

    def scatter_state(self, arrays: Dict[str, np.ndarray],
                      host_shards: Dict[int, Dict[str, np.ndarray]]
                      ) -> None:
        """Distribute flat checkpoint arrays back to every shard."""
        restore_residual = self.has_residual and RESIDUAL in arrays
        names = (MASTERS, *self.state_names)
        for index, shard in enumerate(self.shards):
            view = slice(shard.start, shard.end)
            target = host_shards.get(index, self.channels[index])
            for name in names:
                np.copyto(target[name], arrays[name][view])
            if restore_residual:
                np.copyto(self.channels[index][RESIDUAL],
                          arrays[RESIDUAL][view])
        self._run("write_state", residual=restore_residual)

    # ------------------------------------------------------------------
    def close(self, abandon: bool = False) -> None:
        """Tear down workers, pool and the shared arena. Idempotent.

        Drops the engine's bound methods too, so refcounting alone
        frees a closed engine (see the in-process coordinator).
        """
        if self._closed:
            return
        self._closed = True
        self._install = self._on_demotion = None
        if self.pool is not None:
            try:
                self.pool.map_ordered(_shard_task, [
                    {"op": "close", "index": index, "abandon": abandon}
                    for index in range(len(self.shards))])
            except Exception:
                pass  # teardown must not mask the original error
            self.pool.close()
        self.arena.close()


__all__ = ["ProcessShardCoordinator"]
