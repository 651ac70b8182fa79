"""Discrete-event simulation kernel used by the performance model."""

from .core import AllOf, Event, Process, Simulator, Timeout
from .resources import Channel, PhaseClock, Semaphore, Store, TransferRecord
from .trace import ChannelSummary, summarize_channels, traffic_by_tag

__all__ = [
    "AllOf",
    "Channel",
    "ChannelSummary",
    "Event",
    "PhaseClock",
    "Process",
    "Semaphore",
    "Simulator",
    "Store",
    "Timeout",
    "TransferRecord",
    "summarize_channels",
    "traffic_by_tag",
]
