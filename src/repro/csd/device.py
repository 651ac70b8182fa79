"""Functional SmartSSD device: SSD + FPGA emulator + internal P2P path.

A :class:`SmartSSDDevice` owns a real file-backed block device (its NVMe
namespace) and tracks two separate traffic ledgers:

* **host traffic** — bytes moved between the host and the SSD over the
  shared system interconnect (what Table I measures);
* **internal traffic** — bytes moved between the SSD and the FPGA over the
  device's private PCIe switch (invisible to the host link).

The distinction is the entire point of the paper: SmartUpdate converts
host traffic into internal traffic, which aggregates linearly with the
number of devices.  FPGA DRAM allocations are checked against the device's
capacity, so over-subscribing accelerator memory (the OOM problem of §IV-B)
fails here the same way it does on hardware.

Each device owns a private backing file and private traffic ledgers, so
devices can be driven by different worker threads with no cross-device
sharing (see :mod:`repro.runtime.parallel`).  Within one device, the
update worker and the transfer handler's lazy write-back thread overlap;
the :class:`~repro.storage.blockdev.IOCounters` ledgers are internally
locked so that overlap never loses a metered byte.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import CapacityError, KernelError
from ..hw.csd import CSDSpec, smartssd
from ..storage.blockdev import FileBlockDevice, IOCounters
from ..storage.tensor_store import TensorStore


class SmartSSDDevice:
    """One functional CSD with separate host/internal traffic accounting."""

    def __init__(self, path: str, capacity_bytes: int,
                 spec: Optional[CSDSpec] = None,
                 device_id: int = 0, fault_site=None) -> None:
        self.spec = spec or smartssd()
        self.device_id = device_id
        # The same FaultSite covers the NVMe namespace (read/write ops,
        # guarded inside FileBlockDevice) and the FPGA (op="kernel",
        # guarded via fault_guard before each kernel pass).
        self.fault_site = fault_site
        self.ssd = FileBlockDevice(path, capacity_bytes,
                                   name=f"csd{device_id}",
                                   fault_site=fault_site)
        self.store = TensorStore(self.ssd)
        self.host_traffic = IOCounters()
        self.internal_traffic = IOCounters()
        self._dram_allocated = 0
        self._dram_buffers: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # accelerator DRAM management
    # ------------------------------------------------------------------
    @property
    def dram_allocated(self) -> int:
        return self._dram_allocated

    @property
    def dram_capacity(self) -> int:
        return int(self.spec.fpga.dram_bytes)

    def allocate_dram(self, name: str, num_elements: int) -> np.ndarray:
        """Pre-allocate a named float32 buffer in accelerator DRAM.

        Raises :class:`CapacityError` when the device memory would be
        oversubscribed — the failure mode the transfer handler's buffer
        reuse exists to avoid.
        """
        if name in self._dram_buffers:
            raise KernelError(f"DRAM buffer {name!r} already allocated")
        nbytes = 4 * num_elements
        if self._dram_allocated + nbytes > self.dram_capacity:
            raise CapacityError(
                f"csd{self.device_id}: DRAM OOM allocating {name!r} "
                f"({nbytes} B; {self._dram_allocated} of "
                f"{self.dram_capacity} B in use)")
        buffer = np.zeros(num_elements, dtype=np.float32)
        self._dram_buffers[name] = buffer
        self._dram_allocated += nbytes
        return buffer

    def free_dram(self, name: str) -> None:
        buffer = self._dram_buffers.pop(name, None)
        if buffer is None:
            raise KernelError(f"DRAM buffer {name!r} not allocated")
        self._dram_allocated -= 4 * buffer.size

    def dram_buffer(self, name: str) -> np.ndarray:
        try:
            return self._dram_buffers[name]
        except KeyError:
            raise KernelError(f"DRAM buffer {name!r} not allocated")

    # ------------------------------------------------------------------
    # host path (crosses the shared system interconnect)
    # ------------------------------------------------------------------
    def host_write(self, region: str, array: np.ndarray,
                   start: int = 0) -> None:
        """Host -> SSD write (e.g. gradient offload during backward)."""
        self.store.write_slice(region, start, array)
        self.host_traffic.add_write(array.size * array.itemsize)

    def host_read_into(self, region: str, out: np.ndarray, start: int = 0,
                       count: Optional[int] = None) -> np.ndarray:
        """SSD -> host read straight into a caller-owned (arena) buffer."""
        if count is None:
            count = self.store.region(region).num_elements - start
        array = self.store.read_slice_into(region, start, count, out)
        self.host_traffic.add_read(array.size * array.itemsize)
        return array

    # ------------------------------------------------------------------
    # internal P2P path (SSD <-> FPGA through the private switch)
    # ------------------------------------------------------------------
    def p2p_read_into(self, region: str, start: int,
                      buffer: np.ndarray, count: int) -> np.ndarray:
        """SSD -> FPGA DRAM read into a pre-allocated buffer slice.

        Zero-copy: the SSD's file bytes land directly in the DRAM
        buffer, with no intermediate ``bytes`` or staging array — the
        functional analogue of the hardware's P2P DMA.  The buffer's
        dtype must match the region's.
        """
        if count > buffer.size:
            raise CapacityError(
                f"p2p read of {count} elements exceeds buffer of "
                f"{buffer.size}")
        view = self.store.read_slice_into(region, start, count, buffer)
        self.internal_traffic.add_read(view.size * view.itemsize)
        return view

    def p2p_write(self, region: str, start: int,
                  array: np.ndarray) -> None:
        """FPGA DRAM -> SSD write of ``array`` (a DRAM buffer slice, or
        e.g. the quantized int8 masters of the §VIII-B extension)."""
        self.store.write_slice(region, start, array)
        self.internal_traffic.add_write(array.size * array.itemsize)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def fault_guard(self, op: str) -> None:
        """Consult the fault plan before a device-side operation.

        The transfer handler calls this with ``op="kernel"`` before each
        FPGA pass; a ``kernel_stall`` fault therefore fires *before* the
        kernel mutates DRAM, so a retried pass still runs exactly once.
        """
        if self.fault_site is not None:
            self.fault_site.guard(op)

    def close(self) -> None:
        self.ssd.close()

    def __enter__(self) -> "SmartSSDDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
