"""File-backed block devices.

The functional runtime stores optimizer state and gradients on *real files*,
exercising the same pread/pwrite dataflow the paper's system issues against
NVMe namespaces (§VI: "We use pread/pwrite system call to the P2P buffer").
Every device keeps I/O counters, which the traffic experiments read to
verify the Table I byte accounting against actual I/O performed.

Thread model: each CSD owns its *own* backing file, so when the runtime
fans per-device update passes across a worker pool, no two threads ever
issue I/O against the same :class:`FileBlockDevice` — storage I/O across
devices is embarrassingly parallel, exactly like the hardware's private
per-SmartSSD P2P paths.  *Within* one device, two threads do overlap: the
update worker and the device's lazy write-back thread (the transfer
handler's deferred optimizer-state writes).  ``os.pread``/``os.pwrite``
are positioned I/O — no shared file offset — so the data path needs no
lock; the byte/op counters take a small lock so concurrent increments
never lose updates (traffic accounting must stay exact).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..errors import StorageError


@dataclass
class IOCounters:
    """Cumulative I/O statistics of one device.

    Increments go through :meth:`add_read`/:meth:`add_write`, which hold a
    lock: counters are shared between an update worker and the device's
    lazy write-back thread, and a lost ``+=`` would silently corrupt the
    Table I accounting the tests assert byte-exactly.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def add_read(self, nbytes: int, ops: int = 1) -> None:
        with self._lock:
            self.bytes_read += nbytes
            self.read_ops += ops

    def add_write(self, nbytes: int, ops: int = 1) -> None:
        with self._lock:
            self.bytes_written += nbytes
            self.write_ops += ops

    def snapshot(self) -> "IOCounters":
        with self._lock:
            return IOCounters(self.bytes_read, self.bytes_written,
                              self.read_ops, self.write_ops)

    def delta(self, earlier: "IOCounters") -> "IOCounters":
        return IOCounters(
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
        )


class FileBlockDevice:
    """A fixed-capacity block device backed by one file.

    Offsets are byte addresses; reads of never-written ranges return zeros
    (as a fresh SSD namespace does).
    """

    def __init__(self, path: str, capacity_bytes: int,
                 name: Optional[str] = None, fault_site=None) -> None:
        if capacity_bytes <= 0:
            raise StorageError("capacity must be positive")
        self.path = path
        self.capacity_bytes = capacity_bytes
        self.name = name or os.path.basename(path)
        self.counters = IOCounters()
        # Optional FaultSite (see repro.faults): consulted before every
        # pread/pwrite so an injected fault never leaves a partial write.
        self.fault_site = fault_site
        self._closed = False
        # O_CREAT semantics: open existing or create sparse.
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        os.ftruncate(self._fd, capacity_bytes)

    def _check_range(self, offset: int, length: int) -> None:
        if self._closed:
            raise StorageError(f"device {self.name} is closed")
        if offset < 0 or length < 0:
            raise StorageError(
                f"negative offset/length: {offset}/{length}")
        if offset + length > self.capacity_bytes:
            raise StorageError(
                f"I/O beyond device end: offset={offset} length={length} "
                f"capacity={self.capacity_bytes}")

    def pread_into(self, offset: int, out) -> int:
        """Read directly into a writable buffer (ndarray/memoryview).

        ``os.preadv`` scatters the file bytes straight into ``out``, so
        no intermediate ``bytes`` object is ever materialized.  ``out`` must be C-contiguous and
        writable; its whole byte extent is filled (sparse tails read as
        zeros).  Returns the number of bytes filled, always
        ``out.nbytes``.
        """
        view = self._byte_view(out, writable=True)
        length = view.nbytes
        self._check_range(offset, length)
        if self.fault_site is not None:
            self.fault_site.guard("read")
        got = os.preadv(self._fd, [view], offset)
        if got < length:
            # Sparse tail: the missing range reads as zeros.
            view[got:] = bytes(length - got)
        self.counters.add_read(length)
        return length

    def pwrite(self, offset: int, data) -> int:
        """Write ``data`` at ``offset``; returns bytes written.

        ``data`` is any C-contiguous buffer (ndarray, memoryview,
        ``bytes``), written through the buffer protocol without an
        intermediate ``tobytes()`` serialization.
        """
        buf = self._byte_view(data, writable=False)
        length = len(buf)
        self._check_range(offset, length)
        if self.fault_site is not None:
            self.fault_site.guard("write")
        written = os.pwrite(self._fd, buf, offset)
        if written != length:
            raise StorageError(
                f"short write on {self.name}: {written}/{length}")
        self.counters.add_write(written)
        return written

    @staticmethod
    def _byte_view(buffer, writable: bool) -> memoryview:
        """Flat byte view of a buffer, validating contiguity/writability."""
        view = memoryview(buffer)
        if writable and view.readonly:
            raise StorageError("buffer for pread_into must be writable")
        try:
            return view.cast("B")
        except TypeError:
            raise StorageError(
                "buffer must be C-contiguous for zero-copy I/O")

    def flush(self) -> None:
        os.fsync(self._fd)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "FileBlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FileBlockDevice({self.name!r}, "
                f"capacity={self.capacity_bytes})")
