"""Simulation fabric: instantiate channels from a system topology.

One :class:`Fabric` owns every contended resource of a machine:

* ``link_up`` / ``link_down`` — the shared host interconnect (PCIe is full
  duplex, so each direction is its own channel).  Every storage<->host byte
  crosses one of these; this pair is what saturates in Fig. 3b and what
  SmartUpdate bypasses.
* per-device SSD read/write channels (external path) and internal P2P
  read/write channels (SSD<->FPGA through the device's private switch).
* per-device FPGA updater and decompressor engines (bytes/s pipelines).
* the host CPU's AVX update engine.

The baseline's software-RAID path additionally pays a filesystem/md-layer
efficiency factor; the CSD P2P path issues raw pread/pwrite against the
namespace and runs at full device speed (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..errors import HardwareConfigError
from ..hw.topology import SystemSpec
from ..sim.core import Simulator
from ..sim.resources import Channel

#: Software RAID + filesystem overhead on the baseline's storage path.
RAID_EFFICIENCY = 0.97

#: Host-side software overhead per iteration for driving the CSDs
#: (OpenCL command queues, device synchronization) — the reason a single
#: CSD shows a slight slowdown in Fig. 11a.
CSD_BASE_OVERHEAD = 0.05

#: Extra per-subgroup overhead of the *naive* SmartUpdate implementation
#: (per-tasklet OpenCL buffer allocation/free and blocking transfers);
#: removed by the transfer handler's buffer pre-allocation (SU+O).
NAIVE_SUBGROUP_OVERHEAD = 0.04

#: Host mediation cost per subgroup for every SmartUpdate variant: the
#: host threads that drive each tasklet (pread/pwrite submission into the
#: P2P buffer, OpenCL kernel dispatch) serialize per device.
HANDLER_SUBGROUP_OVERHEAD = 0.02

#: Host bounce-buffer bandwidth for gradient offload (GPU -> pinned host
#: memory copy + submission), which serializes with backward compute.
BOUNCE_BANDWIDTH = 28e9

#: Efficiency of the CSD-internal P2P path relative to raw flash bandwidth
#: (chunked pread/pwrite system calls into the OpenCL P2P buffer plus XRT
#: bookkeeping cost a slice of the raw device rate).
P2P_EFFICIENCY = 0.85


@dataclass
class DeviceChannels:
    """Channels of one storage device / CSD.

    ``nand_read``/``nand_write`` model the SSD's flash bandwidth, which is
    shared between the external host path and the internal P2P path — the
    FPGA reading optimizer states contends with the host reading updated
    masters from the *same* NAND array.  The internal PCIe switch link is
    at least as fast as the flash, so it adds no separate constraint.
    """

    nand_read: Channel
    nand_write: Channel
    fpga_updater: Channel
    fpga_decompressor: Channel


class Fabric:
    """All contended resources of one simulated machine."""

    def __init__(self, sim: Simulator, system: SystemSpec,
                 raid_efficiency: float = RAID_EFFICIENCY,
                 p2p_efficiency: float = P2P_EFFICIENCY,
                 channel_scales: Optional[Mapping[str, float]] = None
                 ) -> None:
        if not 0 < raid_efficiency <= 1:
            raise HardwareConfigError("raid efficiency must be in (0, 1]")
        if not 0 < p2p_efficiency <= 1:
            raise HardwareConfigError("p2p efficiency must be in (0, 1]")
        self.sim = sim
        self.system = system
        self.raid_efficiency = raid_efficiency
        self.p2p_efficiency = p2p_efficiency
        # Counterfactual bandwidth multipliers, keyed by channel name —
        # the hook ``repro whatif --scale`` uses to re-run a scenario
        # with one link faster or slower.  Command latency is
        # unaffected.
        scales = dict(channel_scales or {})
        for name, value in scales.items():
            if value <= 0:
                raise HardwareConfigError(
                    f"channel scale for {name!r} must be positive, "
                    f"got {value}")

        def scaled(name: str, bandwidth: float) -> float:
            return bandwidth * scales.pop(name, 1.0)

        link_bw = system.host_link.bandwidth
        link_lat = system.host_link.latency
        self.link_up = Channel(sim, "host-link-up",
                               scaled("host-link-up", link_bw),
                               latency=link_lat)
        self.link_down = Channel(sim, "host-link-down",
                                 scaled("host-link-down", link_bw),
                                 latency=link_lat)
        self.cpu = Channel(sim, "cpu-updater",
                           scaled("cpu-updater",
                                  system.cpu.update_bandwidth))
        self.bounce = Channel(sim, "host-bounce",
                              scaled("host-bounce", BOUNCE_BANDWIDTH))

        self.devices: List[DeviceChannels] = []
        for index, csd in enumerate(system.csds):
            ssd = csd.ssd
            fpga = csd.fpga
            self.devices.append(DeviceChannels(
                nand_read=Channel(sim, f"ssd{index}-read",
                                  scaled(f"ssd{index}-read",
                                         ssd.read_bandwidth),
                                  latency=ssd.latency),
                nand_write=Channel(sim, f"ssd{index}-write",
                                   scaled(f"ssd{index}-write",
                                          ssd.write_bandwidth),
                                   latency=ssd.latency),
                fpga_updater=Channel(sim, f"csd{index}-updater",
                                     scaled(f"csd{index}-updater",
                                            fpga.updater_bandwidth),
                                     latency=fpga.kernel_launch_latency),
                fpga_decompressor=Channel(
                    sim, f"csd{index}-decompressor",
                    scaled(f"csd{index}-decompressor",
                           fpga.decompressor_bandwidth),
                    latency=fpga.kernel_launch_latency),
            ))
        if scales:
            raise HardwareConfigError(
                f"channel_scales names no channel of this system: "
                f"{sorted(scales)}")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------
    # composite transfers: every leg reserves its channel's FIFO slot and
    # each form returns the latest leg's instant, which a caller waits on
    # as one event (``Simulator._timeout_at``) or one ``Simulator.deferred``
    # leg
    # ------------------------------------------------------------------
    def _raid_read(self, nbytes: float, tag: str) -> float:
        """Reserve a striped read to the host: all members + the shared
        up-link; returns its finish.

        The md/fs layer costs :attr:`raid_efficiency` on the member side.
        Completion is when every leg finishes (store-and-forward pipelining
        is approximated by running the legs concurrently).
        """
        per_member = nbytes / self.num_devices / self.raid_efficiency
        legs = [device.nand_read._reserve(per_member, tag)
                for device in self.devices]
        legs.append(self.link_up._reserve(nbytes, tag))
        return max(legs)

    def _raid_write(self, nbytes: float, tag: str) -> float:
        """Reserve a striped write from the host: shared down-link + all
        members; returns its finish."""
        per_member = nbytes / self.num_devices / self.raid_efficiency
        legs = [device.nand_write._reserve(per_member, tag)
                for device in self.devices]
        legs.append(self.link_down._reserve(nbytes, tag))
        return max(legs)

    def _host_to_device(self, index: int, nbytes: float, tag: str) -> float:
        """Reserve host -> one device's SSD (e.g. gradient offload to the
        owner CSD): shared down-link + that device's write channel;
        returns its finish."""
        link = self.link_down._reserve(nbytes, tag)
        return max(link, self.devices[index].nand_write._reserve(nbytes, tag))

    def _device_to_host(self, index: int, nbytes: float, tag: str) -> float:
        """Reserve one device's SSD -> host (e.g. updated masters
        upstream); returns its finish."""
        flash = self.devices[index].nand_read._reserve(nbytes, tag)
        return max(flash, self.link_up._reserve(nbytes, tag))

    def all_channels(self) -> List[Channel]:
        """Every channel of the machine (for export and attribution)."""
        channels = [self.link_up, self.link_down, self.cpu, self.bounce]
        for device in self.devices:
            channels.extend([device.nand_read, device.nand_write,
                             device.fpga_updater,
                             device.fpga_decompressor])
        return channels
