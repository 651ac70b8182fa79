"""Computational storage device (SmartSSD) composition.

A CSD packages an NVMe SSD, a lightweight FPGA, and an *internal* PCIe
switch behind a single external PCIe Gen3 x4 connector.  The internal switch
gives the SSD and FPGA a private peer-to-peer path: traffic between them
never crosses the shared host interconnect.  This is the property the whole
system exploits — per-device internal bandwidth aggregates linearly with the
number of CSDs while the host link stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fpga import FPGASpec, ku15p
from .pcie import PCIeLink, gen3_x4
from .ssd import SSDSpec, smartssd_nand


@dataclass(frozen=True)
class CSDSpec:
    """One computational storage device."""

    name: str
    ssd: SSDSpec
    fpga: FPGASpec
    #: SSD <-> FPGA path through the device-internal PCIe switch.
    internal_link: PCIeLink
    #: Device <-> host path (shares the host interconnect with siblings).
    external_link: PCIeLink
    cost_usd: float = 2400.0

    @property
    def p2p_read_bandwidth(self) -> float:
        """SSD -> FPGA effective bandwidth over the internal path."""
        return min(self.ssd.read_bandwidth, self.internal_link.bandwidth)


def smartssd() -> CSDSpec:
    """Samsung SmartSSD: 4TB NVMe + KU15P behind a Gen3 x4 switch.

    The paper quotes ~$2,400 per device, 6x the cost of the same-capacity
    plain SSD — the input to the cost-efficiency analysis (Fig. 15).
    """
    return CSDSpec(
        name="SmartSSD",
        ssd=smartssd_nand(),
        fpga=ku15p(),
        internal_link=gen3_x4(),
        external_link=gen3_x4(),
        cost_usd=2400.0,
    )
