"""Interleaved optimizer pipeline: block-granular ready-queue scheduling.

The phased step runs ``forward -> backward -> offload barrier -> update
barrier``: every device's gradients must land on storage before *any*
device may start updating.  The paper's overlap argument (and the Deep
Optimizer States follow-up in PAPERS.md) is that per-shard work is
independent, so a shard whose gradients are ready can begin its
offload+update chain immediately while other shards are still
offloading — the update phase rides inside the backward/offload span
instead of serializing after it.

This module is the host-side machinery for that schedule:

* :func:`resolve_schedule` / :func:`resolve_activation_offload` turn the
  :class:`~repro.runtime.engine.TrainingConfig` knobs into validated
  concrete modes;
* :class:`InterleavedScheduler` is the ready-queue: work is submitted
  per block/device the moment its inputs exist, a bounded in-flight
  window applies backpressure on the shared host link (submitting past
  the window blocks the producer), and :meth:`InterleavedScheduler.drain`
  awaits completion in submission order so error handling and telemetry
  match the phased barrier exactly.

Bit-identity: interleaving never reorders the operations *of one
shard* — each shard still runs offload-then-update on a single worker
chain — and shards touch disjoint state, so the trained model is
bit-identical to the phased schedule (property-tested, including under
chaos: fault streams are seeded per device id and each device sees the
same I/O op sequence in both schedules).
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import Future
from typing import Callable, Iterable, List, Optional, TypeVar

from ..errors import TrainingError

T = TypeVar("T")
R = TypeVar("R")

#: Execution schedules for the optimizer pipeline.
SCHEDULES = ("phased", "interleaved")

#: Boundary-activation handling during checkpointed training.
ACTIVATION_MODES = ("recompute", "spill")


def resolve_schedule(config) -> str:
    """Validate ``config.schedule`` and return the concrete schedule."""
    schedule = getattr(config, "schedule", "phased")
    if schedule not in SCHEDULES:
        raise TrainingError(
            f"unknown schedule {schedule!r}; expected one of "
            f"{', '.join(SCHEDULES)}")
    return schedule


def resolve_activation_offload(config, has_spill_device: bool = True) -> str:
    """Validate ``config.activation_offload`` (``recompute`` | ``spill``).

    ``spill`` on an engine without a storage directory is a
    configuration error, not a silent fallback.
    """
    mode = getattr(config, "activation_offload", "recompute")
    if mode not in ACTIVATION_MODES:
        raise TrainingError(
            f"unknown activation_offload mode {mode!r}; expected one of "
            f"{', '.join(ACTIVATION_MODES)}")
    if mode == "spill" and not has_spill_device:
        raise TrainingError(
            "activation_offload='spill' needs a storage-backed engine "
            "(baseline or smart); the host-offload engine has no spill "
            "device")
    return mode


class InterleavedScheduler:
    """Ready-queue scheduler with a bounded in-flight window.

    Wraps a worker pool (:class:`~repro.runtime.parallel.CSDWorkerPool`
    duck type: ``submit(fn, *args) -> Future``).  ``submit`` enqueues one
    block's offload+update chain the moment its gradients exist;
    at most ``window`` chains are in flight at once — the producer
    blocks on the shared-link backpressure semaphore until a slot frees.
    ``drain`` awaits every chain in submission order and re-raises the
    first failure only after all submitted work has finished (per-device
    work must never be abandoned mid-write, same contract as
    ``map_ordered``).

    With a sequential pool (``workers=1``) submission executes inline on
    the calling thread, so the interleaved schedule degenerates to
    exactly the phased per-device loop — bit-identity for free.
    """

    def __init__(self, pool, window: Optional[int] = None) -> None:
        self.pool = pool
        workers = max(1, int(getattr(pool, "workers", 1)))
        if window is None:
            # Two chains per worker: one running, one queued behind it —
            # enough to hide scheduling gaps without unbounded queueing
            # on the shared host link.
            window = 2 * workers
        if window < 1:
            raise TrainingError(
                f"in-flight window must be positive, got {window}")
        self.window = window
        self._backpressure = threading.BoundedSemaphore(window)
        self._pending: List[Future] = []

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Enqueue one chain; blocks while the window is full."""
        self._backpressure.acquire()
        try:
            future = self.pool.submit(fn, *args)
        except BaseException:
            self._backpressure.release()
            raise
        future.add_done_callback(lambda _f: self._backpressure.release())
        self._pending.append(future)
        return future

    def drain(self) -> List:
        """Await all submitted chains in order; re-raise the first error
        only after every chain has finished."""
        pending, self._pending = self._pending, []
        results: List = []
        first_error: Optional[BaseException] = None
        for future in pending:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def run(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Submit ``fn`` per item as the items arrive, then drain."""
        if self._pending:
            raise TrainingError(
                "scheduler already has in-flight work; drain() first")
        try:
            for item in items:
                self.submit(fn, item)
        except BaseException:
            # Await the chains already submitted before propagating the
            # submission failure — never abandon in-flight work.
            try:
                self.drain()
            except BaseException:
                pass
            raise
        return self.drain()


def activation_scope(spill_store):
    """Context activating a spill store for checkpointed forwards.

    ``None`` yields a no-op context, so trainers can wrap every
    forward/backward unconditionally.
    """
    if spill_store is None:
        return contextlib.nullcontext()
    from ..nn.offload import activation_spill_scope
    return activation_spill_scope(spill_store)


__all__ = [
    "ACTIVATION_MODES",
    "InterleavedScheduler",
    "SCHEDULES",
    "activation_scope",
    "resolve_activation_offload",
    "resolve_schedule",
]
