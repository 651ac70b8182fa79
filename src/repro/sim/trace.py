"""Timeline and bottleneck analysis over simulated channels.

The experiments mostly report phase totals; this module answers the
next question an architect asks: *which channel is the bottleneck?*
It aggregates the per-transfer records every :class:`Channel` keeps into
utilization and byte summaries, finds the busiest resource, and can render
a coarse ASCII timeline — the tooling behind the bottleneck statements in
the paper's narrative (shared link for the baseline, NAND write for
SmartUpdate, upstream for SmartComp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .resources import Channel, TransferRecord


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


def bottleneck(channels: Iterable[Channel],
               horizon: Optional[float] = None) -> ChannelSummary:
    """The channel with the most cumulative busy time."""
    summaries = summarize_channels(channels, horizon=horizon)
    if not summaries:
        raise ValueError("no channels to analyse")
    return summaries[0]


def busy_in_window(records: Sequence[TransferRecord], start: float,
                   end: float) -> float:
    """Seconds of the window [start, end) covered by transfers."""
    if end <= start:
        return 0.0
    total = 0.0
    for record in records:
        lo = max(record.start, start)
        hi = min(record.end, end)
        if hi > lo:
            total += hi - lo
    return total


def render_timeline(channels: Sequence[Channel], horizon: float,
                    width: int = 60) -> str:
    """A coarse ASCII Gantt view: one row per channel, ``width`` buckets.

    Bucket glyphs: ``' '`` idle, ``'.'`` <50% busy, ``'#'`` >=50% busy.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    bucket = horizon / width
    label_width = max((len(c.name) for c in channels), default=0)
    lines = [f"timeline over {horizon:.3f}s "
             f"({bucket * 1000:.1f} ms/char)"]
    for channel in channels:
        cells = []
        for index in range(width):
            start = index * bucket
            busy = busy_in_window(channel.records, start, start + bucket)
            fraction = busy / bucket
            if fraction < 1e-9:
                cells.append(" ")
            elif fraction < 0.5:
                cells.append(".")
            else:
                cells.append("#")
        lines.append(f"{channel.name.ljust(label_width)} |"
                     + "".join(cells) + "|")
    return "\n".join(lines)


def traffic_by_tag(channels: Iterable[Channel]) -> Dict[str, float]:
    """Total bytes per transfer tag across all channels."""
    totals: Dict[str, float] = {}
    for channel in channels:
        for record in channel.records:
            totals[record.tag] = totals.get(record.tag, 0.0) + record.nbytes
    return totals


def phase_channel_matrix(channels: Iterable[Channel],
                         phases: Dict[str, Tuple[float, float]]
                         ) -> Dict[str, Dict[str, float]]:
    """Busy seconds per (phase, channel) — who is loaded when."""
    matrix: Dict[str, Dict[str, float]] = {}
    for phase, (start, end) in phases.items():
        row = {}
        for channel in channels:
            row[channel.name] = busy_in_window(channel.records, start, end)
        matrix[phase] = row
    return matrix
