"""Typed array regions on top of a block device.

The offload runtime persists flat float32 arrays (optimizer state slices,
gradient buffers) at named regions of a device.  A bump allocator assigns
offsets; regions are fixed-size once allocated, mirroring how the paper's
system pre-computes per-subgroup storage layout before training starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..errors import StorageError
from .blockdev import FileBlockDevice
from .raid0 import RAID0Volume

Device = Union[FileBlockDevice, RAID0Volume]


@dataclass(frozen=True)
class Region:
    """One named, fixed-size array region on a device."""

    name: str
    offset: int
    num_elements: int
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return self.num_elements * np.dtype(self.dtype).itemsize


class TensorStore:
    """Named float array storage with explicit allocation."""

    def __init__(self, device: Device, alignment: int = 4096) -> None:
        if alignment <= 0:
            raise StorageError("alignment must be positive")
        self.device = device
        self.alignment = alignment
        self._regions: Dict[str, Region] = {}
        self._next_offset = 0

    def allocate(self, name: str, num_elements: int,
                 dtype=np.float32) -> Region:
        """Reserve a region; offsets are aligned like direct-I/O buffers."""
        if name in self._regions:
            raise StorageError(f"region {name!r} already allocated")
        if num_elements <= 0:
            raise StorageError("num_elements must be positive")
        dtype = np.dtype(dtype)
        nbytes = num_elements * dtype.itemsize
        offset = self._next_offset
        if offset + nbytes > self.device.capacity_bytes:
            raise StorageError(
                f"device full: need {nbytes} bytes at {offset}, capacity "
                f"{self.device.capacity_bytes}")
        region = Region(name=name, offset=offset, num_elements=num_elements,
                        dtype=dtype)
        self._regions[name] = region
        padded = ((nbytes + self.alignment - 1)
                  // self.alignment) * self.alignment
        self._next_offset += padded
        return region

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise StorageError(f"unknown region {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def write_array(self, name: str, array: np.ndarray) -> None:
        """Persist ``array`` into its region (shape/dtype must match).

        Contiguous arrays are written through the buffer protocol — no
        ``tobytes()`` serialization, no intermediate copy.
        """
        region = self.region(name)
        array = np.ascontiguousarray(array)
        if array.dtype != region.dtype or array.size != region.num_elements:
            raise StorageError(
                f"region {name!r} expects {region.num_elements} x "
                f"{region.dtype}, got {array.size} x {array.dtype}")
        self.device.pwrite(region.offset, array)

    def read_array(self, name: str) -> np.ndarray:
        """Load the region's contents as a fresh (writable) array.

        One copy total: the device reads straight into the returned
        array (the old path materialized ``bytes`` and then copied them
        out of the read-only ``frombuffer`` view — two copies).
        """
        region = self.region(name)
        out = np.empty(region.num_elements, dtype=region.dtype)
        self.read_array_into(name, out)
        return out

    def read_array_into(self, name: str, out: np.ndarray) -> np.ndarray:
        """Zero-copy load of a whole region into a caller-owned buffer."""
        region = self.region(name)
        return self.read_slice_into(name, 0, region.num_elements, out)

    def write_slice(self, name: str, start: int, array: np.ndarray) -> None:
        """Write ``array`` into the region starting at element ``start``.

        Contiguous arrays (the hot path hands in flat buffer views) are
        written without any intermediate ``bytes`` copy; like
        :meth:`write_array` and :meth:`read_slice_into`, a dtype other
        than the region's is an error, never a silent conversion.
        """
        region = self.region(name)
        array = np.ascontiguousarray(array)
        if array.dtype != region.dtype:
            raise StorageError(
                f"region {name!r} holds {region.dtype}, got a slice of "
                f"{array.dtype}")
        if start < 0 or start + array.size > region.num_elements:
            raise StorageError(
                f"slice [{start}, {start + array.size}) outside region "
                f"{name!r} of {region.num_elements} elements")
        byte_offset = region.offset + start * region.dtype.itemsize
        self.device.pwrite(byte_offset, array)

    def read_slice_into(self, name: str, start: int, count: int,
                        out: np.ndarray) -> np.ndarray:
        """Read ``count`` elements at ``start`` into ``out[:count]``.

        The zero-copy hot path: the device scatters file bytes directly
        into the caller-owned buffer (e.g. FPGA DRAM or an arena block).
        ``out`` must be flat, C-contiguous, writable, of the region's
        dtype, and hold at least ``count`` elements.  Returns the
        ``out[:count]`` view.
        """
        region = self.region(name)
        if start < 0 or count < 0 or start + count > region.num_elements:
            raise StorageError(
                f"slice [{start}, {start + count}) outside region {name!r}")
        if not isinstance(out, np.ndarray) or out.ndim != 1:
            raise StorageError("destination buffer must be a flat ndarray")
        if out.dtype != region.dtype:
            raise StorageError(
                f"region {name!r} holds {region.dtype}, destination "
                f"buffer is {out.dtype}")
        if out.size < count:
            raise StorageError(
                f"destination buffer of {out.size} elements cannot hold "
                f"{count}")
        view = out[:count]
        byte_offset = region.offset + start * region.dtype.itemsize
        self.device.pread_into(byte_offset, view)
        return view
