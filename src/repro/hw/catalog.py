"""Extended parts catalog: alternative CSD products.

The paper targets SmartSSD but notes its approach "is not limited to
certain products" and cites other commercial CSDs ([22] ScaleFlux
CSD 3000, [86] Eideticom NoLoad, [85] NGD Newport).  Public specs for the
compute engines of these parts are sparse; the entries below are
*representative* configurations used by the sensitivity study (the
`ext_csd_sensitivity` sweep in `repro.experiments.paper`) to show how
Smart-Infinity's speedup responds to internal bandwidth and engine
throughput — the design dimensions a CSD vendor controls.
"""

from __future__ import annotations

from .csd import CSDSpec
from .fpga import FPGAResources, FPGASpec
from .pcie import PCIeGen, PCIeLink
from .ssd import SSDSpec

GB = 1e9
TB = 1e12


def scaleflux_csd3000() -> CSDSpec:
    """A ScaleFlux CSD-3000-style device: Gen4 NVMe with a beefier
    internal path and an ASIC compute engine."""
    ssd = SSDSpec(name="CSD3000-NAND-8TB", capacity_bytes=8 * TB,
                  read_bandwidth=6.5 * GB, write_bandwidth=5.0 * GB,
                  cost_usd=900.0)
    engine = FPGASpec(
        name="CSD3000-engine",
        resources=FPGAResources(luts=300_000, brams=600, urams=96,
                                dsps=1200),
        dram_bytes=8 * GB,
        updater_bandwidth=12.0 * GB,
        decompressor_bandwidth=7.0 * GB,
    )
    link = PCIeLink(PCIeGen.GEN4, 4)
    return CSDSpec(name="CSD3000", ssd=ssd, fpga=engine,
                   internal_link=link, external_link=link,
                   cost_usd=3600.0)


def noload_csp() -> CSDSpec:
    """An Eideticom NoLoad-style computational storage processor:
    modest flash, strong accelerator."""
    ssd = SSDSpec(name="NoLoad-NAND-4TB", capacity_bytes=4 * TB,
                  read_bandwidth=3.0 * GB, write_bandwidth=2.2 * GB,
                  cost_usd=500.0)
    engine = FPGASpec(
        name="NoLoad-U2",
        resources=FPGAResources(luts=400_000, brams=800, urams=128,
                                dsps=1500),
        dram_bytes=8 * GB,
        updater_bandwidth=9.0 * GB,
        decompressor_bandwidth=4.5 * GB,
    )
    link = PCIeLink(PCIeGen.GEN3, 4)
    return CSDSpec(name="NoLoad", ssd=ssd, fpga=engine,
                   internal_link=link, external_link=link,
                   cost_usd=2800.0)


def hypothetical_gen5_csd() -> CSDSpec:
    """A forward-looking Gen5 CSD (the §VIII-C storage-pooling trend):
    faster flash and internal path, same shared-host-link pressure."""
    ssd = SSDSpec(name="Gen5-NAND-8TB", capacity_bytes=8 * TB,
                  read_bandwidth=12.0 * GB, write_bandwidth=10.0 * GB,
                  cost_usd=1200.0)
    engine = FPGASpec(
        name="Gen5-engine",
        resources=FPGAResources(luts=800_000, brams=1600, urams=256,
                                dsps=3000),
        dram_bytes=16 * GB,
        updater_bandwidth=25.0 * GB,
        decompressor_bandwidth=14.0 * GB,
    )
    link = PCIeLink(PCIeGen.GEN5, 4)
    return CSDSpec(name="Gen5-CSD", ssd=ssd, fpga=engine,
                   internal_link=link, external_link=link,
                   cost_usd=4500.0)


#: All alternative devices, by name.
ALTERNATIVE_CSDS = {
    "smartssd": None,  # filled lazily to avoid an import cycle
    "csd3000": scaleflux_csd3000,
    "noload": noload_csp,
    "gen5": hypothetical_gen5_csd,
}


def get_csd(name: str) -> CSDSpec:
    """Look up a CSD product by catalog name."""
    if name == "smartssd":
        from .csd import smartssd
        return smartssd()
    try:
        return ALTERNATIVE_CSDS[name]()
    except KeyError:
        known = ", ".join(sorted(ALTERNATIVE_CSDS))
        raise KeyError(f"unknown CSD {name!r}; known: {known}")
