"""SSD-backed activation spill with async prefetch (the SSDTrain idea).

Block-wise activation checkpointing (:mod:`repro.nn.checkpoint`) keeps
every block-boundary activation in host memory between forward and
backward.  For the storage-offloaded regime that is exactly the memory
the hierarchy is short of: SSDTrain (PAPERS.md) shows boundary
activations can instead be *spilled* to NVMe during forward and
async-prefetched back just ahead of the backward pass that consumes
them, at negligible overhead — the read of boundary ``i-1`` overlaps the
recomputation+backward of block ``i``.

:class:`ActivationSpillStore` implements that spill device:

* writes go through a :class:`~repro.storage.tensor_store.TensorStore`
  region per (block, size) on a private
  :class:`~repro.storage.blockdev.FileBlockDevice` — the same storage
  substrate the optimizer-state offload uses;
* reads stage into blocks checked out of a dedicated
  :class:`~repro.memory.BufferArena`; all arena traffic is confined to
  the single prefetch worker thread, so the arena needs no locking and
  steady-state training allocates nothing;
* ``float32`` round-trips through the file bit-exactly, so spilled
  training is **bit-identical** to recompute-mode training (tested).

The forward/backward hook points live in
:func:`repro.nn.checkpoint.checkpointed_loss`; engines activate a store
for their steps with :func:`activation_spill_scope` (installed via
``TrainingConfig.activation_offload``).
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import TrainingError
from ..memory import BufferArena
from ..storage.blockdev import FileBlockDevice
from ..storage.tensor_store import TensorStore

#: Default spill-file capacity.  The backing file is sparse, so this is
#: an address-space bound, not an up-front disk cost.
DEFAULT_CAPACITY_BYTES = 512 << 20

#: Telemetry resource label for spill-device busy windows.
SPILL_RESOURCE = "act-spill"


class ActivationSpillStore:
    """Spill device for block-boundary activations, with async prefetch.

    Usage per step (driven by ``checkpointed_loss``):

    1. ``begin_step()`` — reclaim any stragglers from a skipped step;
    2. forward: ``put(i, array)`` per block boundary (synchronous write;
       the array is not retained);
    3. backward: ``prefetch(i)`` hints the next boundary, ``get(i)``
       returns boundary ``i`` (blocking only if its read hasn't
       finished), ``release(i)`` returns the staging block once the
       block's backward is done.

    One prefetch worker serves reads in submission order, so issuing
    ``prefetch(i-1)`` right after ``get(i)`` overlaps the next read with
    the current block's recompute+backward.
    """

    def __init__(self, directory: str,
                 capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
                 name: str = "actspill") -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"{name}.img")
        self.device = FileBlockDevice(self.path, capacity_bytes,
                                      name=name)
        self._store = TensorStore(self.device)
        # (index, nelems) -> region name; a boundary whose shape changes
        # across steps simply gets a fresh region.
        self._regions: Dict[Tuple[int, int], str] = {}
        # index -> (region name, shape, nelems) for the current step.
        self._live: Dict[int, Tuple[str, Tuple[int, ...], int]] = {}
        self._inflight: Dict[int, "Future[np.ndarray]"] = {}
        self._held: Dict[int, np.ndarray] = {}
        # All arena traffic runs on this one worker thread, so the
        # arena needs no lock and its blocks are reused every step.
        self._arena = BufferArena(name="act-spill")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="act-prefetch")
        self._lock = threading.Lock()
        self._closed = False
        self.spilled_bytes = 0
        self.fetched_bytes = 0
        self.writes = 0
        self.reads = 0

    # ------------------------------------------------------------------
    def _region_for(self, index: int, nelems: int) -> str:
        key = (index, nelems)
        name = self._regions.get(key)
        if name is None:
            name = f"act{index}_{nelems}"
            self._store.allocate(name, nelems)
            self._regions[key] = name
        return name

    def begin_step(self) -> None:
        """Reclaim staging blocks left by an aborted/skipped backward."""
        if self._closed:
            raise TrainingError("activation spill store is closed")
        leftovers, self._inflight = dict(self._inflight), {}
        held, self._held = dict(self._held), {}
        for future in leftovers.values():
            try:
                block = future.result()
            except Exception:
                continue
            self._executor.submit(self._arena.release, block)
        for block in held.values():
            self._executor.submit(self._arena.release, block)
        self._live.clear()

    def put(self, index: int, array: np.ndarray) -> None:
        """Spill one boundary activation (synchronous device write)."""
        if self._closed:
            raise TrainingError("activation spill store is closed")
        array = np.asarray(array)
        if array.dtype != np.float32:
            raise TrainingError(
                f"activation spill expects float32 boundaries, got "
                f"{array.dtype} for block {index} (other dtypes would "
                f"not round-trip bit-exactly)")
        flat = np.ascontiguousarray(array).reshape(-1)
        name = self._region_for(index, flat.size)
        with telemetry.trace_span("act_spill.write", block=index,
                                  resource=SPILL_RESOURCE,
                                  nbytes=4 * flat.size):
            self._store.write_slice(name, 0, flat)
        self._live[index] = (name, array.shape, flat.size)
        self.spilled_bytes += 4 * flat.size
        self.writes += 1

    def _read(self, index: int) -> np.ndarray:
        name, _shape, nelems = self._live[index]
        block = self._arena.acquire(nelems)
        with telemetry.trace_span("act_spill.read", block=index,
                                  resource=SPILL_RESOURCE,
                                  nbytes=4 * nelems):
            self._store.read_slice_into(name, 0, nelems, block)
        return block

    def prefetch(self, index: int) -> None:
        """Hint that boundary ``index`` is needed soon (no-op if unknown,
        already in flight, or already fetched)."""
        if self._closed or index < 0:
            return
        with self._lock:
            if index in self._inflight or index in self._held \
                    or index not in self._live:
                return
            self._inflight[index] = self._executor.submit(
                self._read, index)

    def get(self, index: int) -> np.ndarray:
        """Fetch boundary ``index``, blocking until its read completes.

        The returned array is a view of an arena staging block — valid
        until :meth:`release` of the same index.
        """
        if index not in self._live:
            raise TrainingError(
                f"no spilled activation for block {index} this step")
        with self._lock:
            future = self._inflight.pop(index, None)
            if future is None and index not in self._held:
                future = self._executor.submit(self._read, index)
        if future is not None:
            block = future.result()
            self._held[index] = block
        name, shape, nelems = self._live[index]
        self.fetched_bytes += 4 * nelems
        self.reads += 1
        return self._held[index][:nelems].reshape(shape)

    def release(self, index: int) -> None:
        """Return boundary ``index``'s staging block to the arena."""
        block = self._held.pop(index, None)
        if block is not None:
            self._executor.submit(self._arena.release, block)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cumulative spill counters (bytes and operations)."""
        return {
            "spilled_bytes": self.spilled_bytes,
            "fetched_bytes": self.fetched_bytes,
            "writes": self.writes,
            "reads": self.reads,
            "regions": len(self._regions),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self.device.close()

    def __enter__(self) -> "ActivationSpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the active-store scope consumed by checkpointed_loss
# ----------------------------------------------------------------------

_ACTIVE = threading.local()


def active_spill_store() -> Optional[ActivationSpillStore]:
    """The spill store active on this thread, or None (recompute mode)."""
    return getattr(_ACTIVE, "store", None)


@contextlib.contextmanager
def activation_spill_scope(store: ActivationSpillStore):
    """Activate ``store`` for checkpointed forwards on this thread.

    Entered by the engines around each forward/backward;
    :func:`repro.nn.checkpoint.checkpointed_loss` picks the store up via
    :func:`active_spill_store` and routes boundary activations through
    it instead of holding them in host memory.
    """
    previous = getattr(_ACTIVE, "store", None)
    store.begin_step()
    _ACTIVE.store = store
    try:
        yield store
    finally:
        _ACTIVE.store = previous


__all__ = [
    "ActivationSpillStore",
    "DEFAULT_CAPACITY_BYTES",
    "activation_spill_scope",
    "active_spill_store",
]
