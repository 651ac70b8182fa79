"""Buffer-pool arenas: preallocated, size-classed scratch memory.

The paper's transfer handler (§IV-B) exists because per-subgroup buffer
allocation both risks device OOM and wastes time; its fix is a fixed set
of pre-allocated buffers reused for every subgroup.  This module applies
the same discipline to the *host* side of the reproduction: every scratch
ndarray the hot path needs (optimizer temporaries, compression staging,
upstream transfer buffers, CPU-update blocks) is checked out of a
:class:`BufferArena` and returned, so a warm training step allocates no
arena block — the allocation counter is flat — and nothing model-sized
anywhere else: what one step allocates and frees again is under 1.5 x
the fp32 model, all of it autograd's per-layer temporaries
(``tests/test_host_memory.py`` traces a step to check both).  What the
arenas end up holding is therefore a closed form
(:func:`repro.runtime.stats.expected_host_resident`), not just a
speedup.

Design:

* buffers are **size-classed** (next power of two, 256-element floor), so
  a request stream with mixed sizes still reuses a small set of blocks;
* arenas are **per-worker**: :func:`thread_arena` hands each thread its
  own arena, so the engines' CSD worker pools never contend on a shared
  freelist and checkout/release stay same-thread (enforced);
* stats are first-class: per-arena counters plus a process-wide
  :func:`aggregate_arena_stats` view that survives arena death, which the
  steady-state tests and the benchmark harness read.

:class:`ArenaStats` is the arena's only ledger: checkout and release
touch no telemetry.  The training engines sample every live arena at
step end into the ``arena_bytes_in_use`` / ``arena_high_water_bytes``
gauges and ``arena_checkouts_total`` / ``arena_alloc_total`` counters,
labelled by arena name.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import ArenaError

#: Smallest size class, in elements: sub-256-element checkouts share one
#: class so tiny requests do not fragment the pool.
MIN_CLASS_ELEMENTS = 256


def size_class(num_elements: int) -> int:
    """Round a request up to its size class (next power of two)."""
    if num_elements <= 0:
        raise ArenaError(f"checkout size must be positive, got "
                         f"{num_elements}")
    return max(MIN_CLASS_ELEMENTS, 1 << (num_elements - 1).bit_length())


@dataclass(frozen=True)
class ArenaStats:
    """Point-in-time view of one arena (or the process aggregate)."""

    #: Fresh ndarray allocations ever performed (cold path only).
    allocations: int
    #: Total checkouts served (warm + cold).
    checkouts: int
    releases: int
    #: Bytes currently checked out.
    bytes_in_use: int
    #: Peak of ``bytes_in_use`` — the fixed-footprint invariant.
    high_water_bytes: int
    #: Bytes parked in freelists, ready for reuse.
    pooled_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of checkouts served without allocating."""
        if self.checkouts == 0:
            return 1.0
        return 1.0 - self.allocations / self.checkouts


# Process-wide cumulative counters (survive arena garbage collection, so
# "allocations stopped growing" stays assertable across engine lifetimes).
_totals_lock = threading.Lock()
_total_allocations = 0
_total_checkouts = 0
_total_releases = 0
_arenas: "weakref.WeakSet[BufferArena]" = weakref.WeakSet()


class BufferArena:
    """A pool of reusable, size-classed scratch buffers.

    ``acquire`` returns a length-exact ndarray view of a pooled block;
    ``release`` returns the block to its freelist.  ``checkout`` wraps
    the pair as a context manager.  Blocks never shrink: at steady state
    every checkout is served from a freelist and the allocation counter
    is flat — the invariant the zero-copy tests assert.
    """

    def __init__(self, name: str = "arena") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._free: Dict[Tuple[str, int], List[np.ndarray]] = {}
        # id(base) -> (base block, freelist key) for every live checkout.
        self._live: Dict[int, Tuple[np.ndarray, Tuple[str, int]]] = {}
        self._allocations = 0
        self._checkouts = 0
        self._releases = 0
        self._bytes_in_use = 0
        self._high_water = 0
        self._pooled_bytes = 0
        with _totals_lock:
            _arenas.add(self)

    # ------------------------------------------------------------------
    def _new_block(self, num_elements: int, dtype: np.dtype) -> np.ndarray:
        """Allocate a fresh size-class block (cold path).

        Subclasses override this to change where block memory lives —
        :class:`SharedMemoryArena` carves blocks out of a shared-memory
        segment so checked-out views are visible across processes.
        Called with :attr:`_lock` held.
        """
        return np.empty(num_elements, dtype=dtype)

    # ------------------------------------------------------------------
    def acquire(self, num_elements: int, dtype=np.float32) -> np.ndarray:
        """Check out a flat C-contiguous buffer of ``num_elements``.

        The returned array is an exact-length view of a (possibly larger)
        size-class block; its contents are undefined, exactly like
        ``np.empty``.  Pass any view of it back to :meth:`release`.
        """
        dt = np.dtype(dtype)
        cls = size_class(num_elements)
        key = (dt.str, cls)
        allocated = False
        with self._lock:
            freelist = self._free.get(key)
            if freelist:
                base = freelist.pop()
                self._pooled_bytes -= base.nbytes
            else:
                base = self._new_block(cls, dt)
                self._allocations += 1
                allocated = True
            self._live[id(base)] = (base, key)
            self._checkouts += 1
            self._bytes_in_use += base.nbytes
            self._high_water = max(self._high_water, self._bytes_in_use)
        global _total_allocations, _total_checkouts
        with _totals_lock:
            _total_checkouts += 1
            if allocated:
                _total_allocations += 1
        return base[:num_elements]

    def release(self, view: np.ndarray) -> None:
        """Return a checked-out buffer (or any view of it) to the pool."""
        base = view if view.base is None else view.base
        if not isinstance(base, np.ndarray):
            raise ArenaError(
                f"buffer does not come from arena {self.name!r}")
        with self._lock:
            entry = self._live.pop(id(base), None)
            if entry is None:
                raise ArenaError(
                    f"buffer was not checked out of arena {self.name!r} "
                    f"(foreign block or double release)")
            block, key = entry
            self._free.setdefault(key, []).append(block)
            self._releases += 1
            self._bytes_in_use -= block.nbytes
            self._pooled_bytes += block.nbytes
        global _total_releases
        with _totals_lock:
            _total_releases += 1

    @contextlib.contextmanager
    def checkout(self, num_elements: int,
                 dtype=np.float32) -> Iterator[np.ndarray]:
        """``with arena.checkout(n) as buf:`` acquire/release pairing."""
        buffer = self.acquire(num_elements, dtype)
        try:
            yield buffer
        finally:
            self.release(buffer)

    # ------------------------------------------------------------------
    def stats(self) -> ArenaStats:
        with self._lock:
            return ArenaStats(
                allocations=self._allocations,
                checkouts=self._checkouts,
                releases=self._releases,
                bytes_in_use=self._bytes_in_use,
                high_water_bytes=self._high_water,
                pooled_bytes=self._pooled_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (f"BufferArena({self.name!r}, in_use={stats.bytes_in_use}, "
                f"pooled={stats.pooled_bytes}, "
                f"high_water={stats.high_water_bytes})")


# ----------------------------------------------------------------------
# shared-memory segments (the cross-process arena substrate)
# ----------------------------------------------------------------------

#: Block alignment inside a shared segment, in bytes.  64 matches cache
#: lines, so concurrently updated neighbouring blocks never false-share.
SEGMENT_ALIGN = 64


def _align_up(nbytes: int, align: int = SEGMENT_ALIGN) -> int:
    return (nbytes + align - 1) & ~(align - 1)


class SharedSegment:
    """A named block of OS shared memory with ndarray views over it.

    This is the process-boundary analogue of a pooled arena block: the
    parent creates a segment, ships its :meth:`descriptor` (name + size —
    scalars, never bytes) over a pipe, and the child :meth:`attach`-es to
    the same physical pages.  Both sides then read and write through
    :meth:`view` ndarrays with zero serialization — the shard bytes only
    ever live in the segment.

    The creating side owns the segment: its :meth:`close` also unlinks
    the name from the OS.  Attached sides just unmap.  On CPython ≤ 3.12
    an attach implicitly registers the segment with the process-global
    ``resource_tracker``, which would unlink it when the *child* exits;
    :meth:`attach` unregisters to keep ownership with the creator.
    """

    def __init__(self, nbytes: int, *, _shm=None, _owner: bool = True) -> None:
        if _shm is None:
            if nbytes <= 0:
                raise ArenaError(
                    f"segment size must be positive, got {nbytes}")
            from multiprocessing import shared_memory
            _shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._shm = _shm
        self._owner = _owner
        self.nbytes = nbytes
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def descriptor(self) -> Dict[str, object]:
        """A picklable handle: ship this over a pipe, not the bytes."""
        return {"name": self._shm.name, "nbytes": int(self.nbytes)}

    @classmethod
    def attach(cls, descriptor: Dict[str, object]) -> "SharedSegment":
        """Map an existing segment created by another process."""
        from multiprocessing import shared_memory
        try:
            shm = shared_memory.SharedMemory(
                name=str(descriptor["name"]), create=False)
        except FileNotFoundError as exc:
            raise ArenaError(
                f"shared segment {descriptor['name']!r} does not exist "
                f"(creator gone?)") from exc
        # Attaching registers the name with the resource tracker a second
        # time; because multiprocessing children share the parent's
        # tracker process this is a set-level no-op, and the owner's
        # unlink() performs the single matching unregister.
        return cls(int(descriptor["nbytes"]), _shm=shm, _owner=False)

    def view(self, offset: int, num_elements: int,
             dtype=np.float32) -> np.ndarray:
        """A flat ndarray over ``[offset, offset + n*itemsize)`` bytes."""
        dt = np.dtype(dtype)
        end = offset + num_elements * dt.itemsize
        if offset < 0 or end > self.nbytes:
            raise ArenaError(
                f"view [{offset}, {end}) exceeds segment of "
                f"{self.nbytes} B")
        return np.ndarray(num_elements, dtype=dt, buffer=self._shm.buf,
                          offset=offset)

    def close(self) -> None:
        """Unmap (and, on the owning side, unlink). Idempotent.

        Live ndarray views pin the mapping; closing with views still
        outstanding is deferred to interpreter exit rather than raised.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # views still alive; OS cleans at exit
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self._owner else "attached"
        return f"SharedSegment({self.name!r}, {self.nbytes} B, {role})"


class SharedMemoryArena(BufferArena):
    """A :class:`BufferArena` whose blocks live in OS shared memory.

    Same checkout/release discipline, same size classes and stats — but
    cold-path blocks are carved (bump-allocated, cache-line aligned) out
    of one :class:`SharedSegment`, so any view checked out of this arena
    is visible to a worker process that attaches the segment.  The
    process-backend engines use this for optimizer/gradient shards: the
    parent checks buffers out exactly like a private arena, children
    attach and index by ``(offset, count)`` descriptors.

    ``capacity_bytes`` bounds the segment; exceeding it raises
    :class:`~repro.errors.ArenaError` (shared arenas must be sized up
    front — they exist to *prevent* unplanned allocation).
    """

    def __init__(self, capacity_bytes: int, name: str = "shm-arena") -> None:
        self.segment = SharedSegment(capacity_bytes)
        self._cursor = 0
        # id(block) -> byte offset inside the segment, for descriptors.
        self._block_offsets: Dict[int, int] = {}
        super().__init__(name=name)

    def _new_block(self, num_elements: int, dtype: np.dtype) -> np.ndarray:
        nbytes = num_elements * dtype.itemsize
        offset = _align_up(self._cursor)
        if offset + nbytes > self.segment.nbytes:
            raise ArenaError(
                f"shared arena {self.name!r} exhausted: need {nbytes} B "
                f"at offset {offset} but capacity is "
                f"{self.segment.nbytes} B")
        self._cursor = offset + nbytes
        block = self.segment.view(offset, num_elements, dtype)
        self._block_offsets[id(block)] = offset
        return block

    def offset_of(self, view: np.ndarray) -> int:
        """Byte offset of a checked-out view inside the segment.

        Pair with ``view.size``/``view.dtype`` to build the descriptor a
        worker process needs to re-view the same bytes after
        :meth:`SharedSegment.attach`.
        """
        base = view if view.base is None else view.base
        offset = self._block_offsets.get(id(base))
        if offset is None:
            raise ArenaError(
                f"buffer does not come from shared arena {self.name!r}")
        view_addr = view.__array_interface__["data"][0]
        base_addr = base.__array_interface__["data"][0]
        return offset + int(view_addr - base_addr)

    def close(self) -> None:
        """Release the backing segment (owner side unlinks)."""
        with self._lock:
            self._free.clear()
            self._live.clear()
            self._block_offsets.clear()
        self.segment.close()


# ----------------------------------------------------------------------
# per-worker arenas
# ----------------------------------------------------------------------
_thread_state = threading.local()


def thread_arena() -> BufferArena:
    """The calling thread's private arena (created on first use).

    Per-worker arenas mean the engines' CSD worker pools never share a
    freelist: checkout and release happen on the same thread with zero
    cross-thread contention, mirroring the paper's per-device buffers.
    """
    arena = getattr(_thread_state, "arena", None)
    if arena is None:
        arena = BufferArena(
            name=f"thread/{threading.current_thread().name}")
        _thread_state.arena = arena
    return arena


def live_arenas() -> List[BufferArena]:
    """Every arena of this process that is still alive."""
    with _totals_lock:
        return list(_arenas)


def aggregate_arena_stats() -> ArenaStats:
    """Process-wide arena view: live arenas plus cumulative counters.

    ``allocations``/``checkouts``/``releases`` are monotonic across the
    whole process (they survive arena death), so a flat ``allocations``
    delta across training steps proves zero steady-state allocation.
    """
    with _totals_lock:
        allocations = _total_allocations
        checkouts = _total_checkouts
        releases = _total_releases
    stats = [arena.stats() for arena in live_arenas()]
    return ArenaStats(
        allocations=allocations, checkouts=checkouts, releases=releases,
        bytes_in_use=sum(stat.bytes_in_use for stat in stats),
        high_water_bytes=sum(stat.high_water_bytes for stat in stats),
        pooled_bytes=sum(stat.pooled_bytes for stat in stats))


__all__ = [
    "ArenaStats",
    "BufferArena",
    "MIN_CLASS_ELEMENTS",
    "SEGMENT_ALIGN",
    "SharedMemoryArena",
    "SharedSegment",
    "aggregate_arena_stats",
    "live_arenas",
    "size_class",
    "thread_arena",
]
