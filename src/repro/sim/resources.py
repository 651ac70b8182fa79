"""Shared resources for the simulation kernel: channels, semaphores, stores.

The central abstraction is :class:`Channel`, a bandwidth-limited link that
serializes transfers (FIFO).  Every PCIe link, SSD interface, and compute
engine in the Smart-Infinity performance model is a channel; contention on
the shared host interconnect versus the private CSD-internal switches — the
phenomenon the whole paper is about — falls directly out of which channel a
transfer is enqueued on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, NamedTuple, Optional, Tuple

from ..errors import SimulationError
from .core import Event, Simulator


class TransferRecord(NamedTuple):
    """One completed channel operation, kept for breakdown analysis."""

    channel: str
    tag: str
    nbytes: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Channel:
    """A bandwidth-limited, FIFO-serialized link.

    A transfer of ``nbytes`` occupies the channel for ``latency +
    nbytes / bandwidth`` seconds.  Concurrent requests queue behind each
    other, which is the first-order model of a PCIe link or an SSD interface:
    aggregate throughput never exceeds the channel bandwidth, and transfers
    on *different* channels overlap freely.

    Channels also double as compute engines (e.g. the FPGA updater): a
    "transfer" is then the number of bytes the engine streams through at its
    processing throughput.
    """

    def __init__(self, sim: Simulator, name: str, bandwidth: float,
                 latency: float = 0.0, record: bool = True) -> None:
        if bandwidth <= 0:
            raise SimulationError(
                f"channel {name!r} needs positive bandwidth, got {bandwidth}")
        if latency < 0:
            raise SimulationError(
                f"channel {name!r} needs non-negative latency, got {latency}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self._free_at = 0.0
        self._record = record
        self.records: List[TransferRecord] = []
        self.bytes_total = 0.0
        self.ops_total = 0

    def busy_time(self) -> float:
        """Total time this channel has spent occupied by transfers."""
        return sum(rec.duration for rec in self.records)

    def transfer(self, nbytes: float, tag: str = "") -> Event:
        """Enqueue a transfer; returns the event of its completion.

        Zero-byte transfers still pay the channel latency, which models
        command overhead (e.g. an NVMe doorbell) without moving data.
        """
        return self.sim._timeout_at(self._reserve(nbytes, tag), nbytes)

    def _reserve(self, nbytes: float, tag: str = "") -> float:
        """Take the next FIFO slot for ``nbytes`` and record it; returns
        the instant the transfer completes.

        A composite transfer reserves every leg this way and waits on one
        event at the latest instant, instead of one event per leg.
        """
        if nbytes < 0:
            raise SimulationError(
                f"negative transfer size {nbytes} on channel {self.name!r}")
        now = self.sim._now
        start = max(now, self._free_at)
        end = start + (self.latency + nbytes / self.bandwidth)
        self._free_at = end
        self.bytes_total += nbytes
        self.ops_total += 1
        if self._record:
            self.records.append(
                TransferRecord(self.name, tag, nbytes, start, end))
        # Where a timeout of ``end - now`` fires, which can differ from
        # ``end`` in the last bit.
        return now + (end - now)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of ``horizon`` (default: now) the channel was busy."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time() / horizon)


class Semaphore:
    """Counted resource with FIFO acquisition order.

    Used to model exclusive engines (a CPU update thread, a DMA engine) or
    bounded buffer pools (the transfer handler's pre-allocated buffers).
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(
                f"semaphore {name!r} needs capacity >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self.max_in_use = 0
        self._event_name = f"{name}/acquire"

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        """Request a slot; the returned event triggers when granted."""
        event = Event(self.sim, self._event_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            self.max_in_use = max(self.max_in_use, self._in_use)
            self.sim._schedule(self.sim.now, event, None)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(
                f"semaphore {self.name!r} released more than acquired")
        if self._waiters:
            event = self._waiters.popleft()
            self.sim._schedule(self.sim.now, event, None)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO hand-off queue between processes."""

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._event_name = f"{name}/get"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            event = self._getters.popleft()
            self.sim._schedule(self.sim.now, event, item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Request the next item; the returned event carries it."""
        event = Event(self.sim, self._event_name)
        if self._items:
            self.sim._schedule(self.sim.now, event, self._items.popleft())
        else:
            self._getters.append(event)
        return event


@dataclass
class PhaseClock:
    """Accumulates wall-clock time per named phase of a simulated run.

    The experiments report per-phase breakdowns (FW / BW+grad-offload /
    update+optimizer-traffic); model code brackets each phase with
    :meth:`begin`/:meth:`end` and the clock sums durations per label.
    """

    sim: Simulator
    totals: dict = field(default_factory=dict)
    #: Every closed (phase, start, end) interval, in completion order —
    #: the phase windows the Chrome-trace exporter renders as a lane.
    windows: List[Tuple[str, float, float]] = field(default_factory=list)
    _open: dict = field(default_factory=dict)

    def begin(self, phase: str) -> None:
        if phase in self._open:
            raise SimulationError(f"phase {phase!r} already open")
        self._open[phase] = self.sim.now

    def end(self, phase: str) -> None:
        if phase not in self._open:
            raise SimulationError(f"phase {phase!r} was not begun")
        start = self._open.pop(phase)
        self.windows.append((phase, start, self.sim.now))
        self.totals[phase] = self.totals.get(phase, 0.0) + (
            self.sim.now - start)

    def total(self) -> float:
        return sum(self.totals.values())
