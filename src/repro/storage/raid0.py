"""Functional software RAID0 (mdadm-style striping) over block devices.

The baseline configuration of the paper runs ZeRO-Infinity over a software
RAID0 of the SmartSSDs' plain NVMe namespaces.  This module implements the
striping arithmetic over :class:`FileBlockDevice` members so the functional
baseline reads/writes through the same address-splitting path.

Failure model: RAID0 has no redundancy, so a *permanent* member failure is
unrecoverable in-place — exactly like a real mdadm stripe.  When a member
raises :class:`~repro.errors.DeviceFailedError` (or exhausts its transient
retry budget), the volume enters *degraded mode*: the failed member is
recorded, and every subsequent I/O fails fast with a
:class:`~repro.errors.DeviceFailedError` that names the member and the
recovery story (restore from checkpoint onto a rebuilt volume).  Transient
member faults are already retried inside the member's own fault guard and
never surface here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import DeviceFailedError, RetryExhaustedError, StorageError
from .blockdev import FileBlockDevice, IOCounters


class RAID0Volume:
    """Striped volume presenting the union of its members' capacity."""

    def __init__(self, members: Sequence[FileBlockDevice],
                 chunk_bytes: int = 1 << 20) -> None:
        if not members:
            raise StorageError("RAID0 needs at least one member")
        if chunk_bytes <= 0:
            raise StorageError("chunk size must be positive")
        capacities = {member.capacity_bytes for member in members}
        if len(capacities) != 1:
            raise StorageError("RAID0 members must have equal capacity")
        self.members: List[FileBlockDevice] = list(members)
        self.chunk_bytes = chunk_bytes
        self.capacity_bytes = members[0].capacity_bytes * len(members)
        self.name = f"raid0[{len(members)}]"
        self._failed_member: Optional[int] = None
        self._failed_cause: Optional[BaseException] = None

    @property
    def degraded(self) -> bool:
        """True once a member has permanently failed (fail-stop mode)."""
        return self._failed_member is not None

    @property
    def failed_members(self) -> Tuple[int, ...]:
        if self._failed_member is None:
            return ()
        return (self._failed_member,)

    def _check_degraded(self) -> None:
        if self._failed_member is not None:
            member = self.members[self._failed_member]
            raise DeviceFailedError(
                f"{self.name} is degraded: member {member.name} "
                f"(index {self._failed_member}) failed permanently "
                f"({self._failed_cause}). RAID0 stripes without redundancy, "
                f"so the volume cannot serve I/O; replace the member, "
                f"rebuild the volume, and restore from the latest "
                f"checkpoint (repro.runtime.checkpoint).",
                device=self._failed_member)

    def _member_failed(self, index: int, cause: BaseException) -> None:
        if self._failed_member is None:
            self._failed_member = index
            self._failed_cause = cause

    def _map(self, offset: int) -> Tuple[int, int, int]:
        """Map a volume offset to (member index, member offset, bytes left
        in this stripe chunk)."""
        chunk_index, within = divmod(offset, self.chunk_bytes)
        member_index = chunk_index % len(self.members)
        member_chunk = chunk_index // len(self.members)
        member_offset = member_chunk * self.chunk_bytes + within
        remaining = self.chunk_bytes - within
        return member_index, member_offset, remaining

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise StorageError("negative offset/length")
        if offset + length > self.capacity_bytes:
            raise StorageError("I/O beyond RAID0 volume end")

    def pread_into(self, offset: int, out) -> int:
        """Zero-copy gather across stripe chunks into ``out``.

        Each stripe chunk is read by its member directly into the
        corresponding slice of ``out`` (memoryview slicing is zero-copy),
        so a striped read costs exactly one data movement per chunk —
        no per-chunk ``bytes`` objects, no final join.
        """
        view = FileBlockDevice._byte_view(out, writable=True)
        length = view.nbytes
        self._check(offset, length)
        self._check_degraded()
        position = offset
        cursor = 0
        while cursor < length:
            member_index, member_offset, in_chunk = self._map(position)
            take = min(length - cursor, in_chunk)
            try:
                self.members[member_index].pread_into(
                    member_offset, view[cursor:cursor + take])
            except (DeviceFailedError, RetryExhaustedError) as exc:
                self._member_failed(member_index, exc)
                self._check_degraded()
            position += take
            cursor += take
        return length

    def pwrite(self, offset: int, data) -> int:
        """Write ``data``, scattering across stripe chunks.

        ``data`` is any C-contiguous buffer (``bytes`` included),
        scattered through zero-copy memoryview slices.
        """
        data = FileBlockDevice._byte_view(data, writable=False)
        length = len(data)
        self._check(offset, length)
        self._check_degraded()
        position = offset
        cursor = 0
        while cursor < length:
            member_index, member_offset, in_chunk = self._map(position)
            take = min(length - cursor, in_chunk)
            try:
                self.members[member_index].pwrite(
                    member_offset, data[cursor:cursor + take])
            except (DeviceFailedError, RetryExhaustedError) as exc:
                self._member_failed(member_index, exc)
                self._check_degraded()
            position += take
            cursor += take
        return length

    def counters(self) -> IOCounters:
        """Aggregate I/O counters across members."""
        total = IOCounters()
        for member in self.members:
            snap = member.counters.snapshot()
            total.bytes_read += snap.bytes_read
            total.bytes_written += snap.bytes_written
            total.read_ops += snap.read_ops
            total.write_ops += snap.write_ops
        return total

    def close(self) -> None:
        for member in self.members:
            member.close()

    def __enter__(self) -> "RAID0Volume":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
