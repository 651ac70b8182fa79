"""Per-channel summaries over simulated channels.

The experiments mostly report phase totals; this module answers the
next question an architect asks: *which channel is the bottleneck?*
It aggregates the per-transfer records every :class:`Channel` keeps into
utilization and byte summaries, busiest first — the numbers behind the
bottleneck statements in the paper's narrative (shared link for the
baseline, NAND write for SmartUpdate, upstream for SmartComp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .resources import Channel


@dataclass(frozen=True)
class ChannelSummary:
    """Aggregated activity of one channel over a simulation run."""

    name: str
    bandwidth: float
    busy_time: float
    bytes_total: float
    ops_total: int
    utilization: float

    @property
    def achieved_bandwidth(self) -> float:
        """Average delivered bytes/s while busy."""
        if self.busy_time <= 0:
            return 0.0
        return self.bytes_total / self.busy_time


def summarize_channels(channels: Iterable[Channel],
                       horizon: Optional[float] = None
                       ) -> List[ChannelSummary]:
    """Summaries for every channel, sorted by busy time (descending)."""
    summaries = []
    for channel in channels:
        busy = channel.busy_time()
        end = horizon if horizon is not None else channel.sim.now
        summaries.append(ChannelSummary(
            name=channel.name,
            bandwidth=channel.bandwidth,
            busy_time=busy,
            bytes_total=channel.bytes_total,
            ops_total=channel.ops_total,
            utilization=min(1.0, busy / end) if end > 0 else 0.0,
        ))
    summaries.sort(key=lambda s: s.busy_time, reverse=True)
    return summaries


def traffic_by_tag(channels: Iterable[Channel]) -> Dict[str, float]:
    """Total bytes per transfer tag across all channels."""
    totals: Dict[str, float] = {}
    for channel in channels:
        for record in channel.records:
            totals[record.tag] = totals.get(record.tag, 0.0) + record.nbytes
    return totals
