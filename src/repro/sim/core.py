"""Generator-based discrete-event simulation kernel.

This is the substrate under every performance experiment in the paper
reproduction.  The design follows the classic coroutine style (as in SimPy):
model code is written as Python generators that ``yield`` *events*; the
simulator advances virtual time by popping a time-ordered heap of scheduled
events and resuming the processes waiting on them.

Only the features the Smart-Infinity performance model needs are implemented:

* :class:`Event` — one-shot triggerable with a value and callbacks.
* :class:`Timeout` — an event scheduled ``delay`` seconds in the future.
* :class:`Process` — wraps a generator; is itself an event that triggers when
  the generator returns (so processes can ``yield`` other processes to join).
* :class:`Deferred` — a process that only runs fixed legs, as one event.
* :class:`AllOf` — barrier over several events.
* :class:`Simulator` — the event loop with deterministic FIFO tie-breaking.

Determinism matters: two events scheduled for the same instant fire in the
order they were scheduled, so simulated breakdowns are exactly reproducible.

A *composite* transfer — a striped RAID read, a host -> device copy over
the shared link and the device's flash — is one completion event, not one
event per leg plus a barrier: every leg reserves its channel's FIFO slot
inside one call (:meth:`repro.sim.resources.Channel._reserve`), and one
heap entry fires at the latest leg's instant
(:meth:`Simulator._timeout_at`).  No other event can take a sequence
number between the legs, so the waiter resumes in exactly the order the
per-leg barrier resumed it.  A process likewise starts from one heap
entry, with no bootstrap event.

A *deferred* task (:meth:`Simulator.deferred`) is a process whose body
only waits on a fixed sequence of transfers or delays and then acts (a
CSD subgroup tasklet, a baseline update block, the gradient offload,
the lazy state write-back, the upstream master copy), without the
process: one :class:`Deferred` event takes the heap entry the process
took at spawn (same instant, same sequence number), reserves each leg
when the entry at the previous leg's finish (or the spawn entry) is
dispatched, as the process's next step did, and at the last leg's
finish runs the completion action and triggers.  Reserving a leg any
earlier would take FIFO slots ahead of same-instant entries queued in
between (a semaphore wake, for one).  One heap entry per leg plus the
spawn either way, so the dispatch count, the sequence numbers and every
resume order are the process's.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from ..errors import SimulationError

#: Type of the generators that implement simulation processes.
ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* exactly once via
    :meth:`succeed` (or :meth:`fail`), and then invokes its callbacks in
    registration order.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "name", "triggered", "value", "failed",
                 "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self.failed = False
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and run its callbacks."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        # No fresh list: add_callback runs late callbacks at once.
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.failed = True
        return self.succeed(exception)

    #: What the dispatch loop calls for this event's heap entry.
    _fire = succeed

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when triggered (immediately if already)."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "timeout") -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # The most-created event by far: Event.__init__ and
        # Simulator._schedule inlined (a non-negative delay cannot land
        # before now, so the schedule-in-the-past check has no case).
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value = None
        self.failed = False
        self._callbacks = []
        heapq.heappush(sim._heap, (sim._now + delay, next(sim._sequence),
                                   self, value))


class Deferred(Event):
    """A straight-line process as one event: ``legs`` are zero-argument
    callables, each reserving one transfer or delay and returning the
    instant it finishes.  Leg k+1 is reserved when leg k's heap entry is
    dispatched (the first when the spawn entry is); at the last leg's
    finish ``then()`` runs, if given, and the event triggers with value
    ``None``."""

    __slots__ = ("_legs", "_next", "_then")

    def __init__(self, sim: "Simulator",
                 legs: Sequence[Callable[[], float]],
                 then: Optional[Callable[[], Any]]) -> None:
        # Event.__init__ and Simulator._schedule inlined, as in Timeout.
        self.sim = sim
        self.name = "deferred"
        self.triggered = False
        self.value = None
        self.failed = False
        self._callbacks = []
        self._legs = legs
        self._next = 0
        self._then = then
        heapq.heappush(sim._heap, (sim._now, next(sim._sequence), self,
                                   None))

    def _fire(self, value: Any) -> None:
        index, legs = self._next, self._legs
        if index < len(legs):
            self._next = index + 1
            sim = self.sim
            heapq.heappush(sim._heap, (legs[index](), next(sim._sequence),
                                       self, None))
            return
        if self._then is not None:
            self._then()
        self.succeed(value)


class AllOf(Event):
    """Barrier event: triggers once every child event has triggered.

    The value is the list of child values in the order the children were
    given.  An empty iterable triggers immediately.  If any child failed,
    the barrier fails with the first failed child's exception (in child
    order), so a waiter catches it like any other failed event.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "all_of") -> None:
        super().__init__(sim, name=name)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            sim._schedule(sim.now, self, [])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            for child in self._children:
                if child.failed:
                    self.fail(child.value)
                    return
            self.succeed([child.value for child in self._children])


class _Started:
    """What a fresh process resumes from: a succeeded event, no value."""

    __slots__ = ()
    failed = False
    value = None


_STARTED = _Started()


class Process(Event):
    """A running simulation coroutine.

    Wraps a generator: each yielded :class:`Event` suspends the process until
    that event triggers, at which point the event's value is sent back into
    the generator.  When the generator returns, the process (itself an event)
    triggers with the return value, so other processes can join it with
    ``yield process``.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "process") -> None:
        super().__init__(sim, name=name)
        self._generator = generator
        # Start on the next simulator dispatch at the current time so that
        # process creation order, not generator body order, stays the only
        # source of interleaving.  The heap entry is the process itself:
        # the dispatch loop calls :meth:`_fire`, which runs the generator
        # to its first yield.
        sim._schedule(sim._now, self, None)

    def _fire(self, _value: Any) -> None:
        self._resume(_STARTED)

    def _resume(self, event: Event) -> None:
        if event.failed:
            try:
                target = self._generator.throw(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                raise
        else:
            try:
                target = self._generator.send(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # Model-code bug: mark the process failed (so joiners are
                # notified) and surface the error to the caller of run().
                self.fail(exc)
                raise
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances")
        # target.add_callback(self._resume), inlined.
        if target.triggered:
            self._resume(target)
        else:
            target._callbacks.append(self._resume)


class Simulator:
    """The discrete-event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Any] = []
        self._sequence = itertools.count()
        self._processed = 0

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (useful for budget checks)."""
        return self._processed

    def _schedule(self, when: float, event: Event, value: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self._now}")
        heapq.heappush(self._heap, (when, next(self._sequence), event, value))

    def _timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the absolute instant ``when``, which
        the caller guarantees is not before now: the one completion of
        a transfer whose legs were reserved with ``Channel._reserve``."""
        # Event.__init__ inlined: one of these per transfer.
        event = object.__new__(Event)
        event.sim = self
        event.name = "timeout"
        event.triggered = False
        event.value = None
        event.failed = False
        event._callbacks = []
        heapq.heappush(self._heap, (when, next(self._sequence), event, value))
        return event

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self, name: str = "event") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value=value)

    def process(self, generator: ProcessGenerator,
                name: str = "process") -> Process:
        """Start ``generator`` as a process and return its handle."""
        return Process(self, generator, name=name)

    def deferred(self, legs: Sequence[Callable[[], float]],
                 then: Optional[Callable[[], Any]] = None) -> Deferred:
        """A process that runs ``legs`` one after another (``yield``ing
        the transfer or delay each reserves, see :class:`Deferred`) and
        then calls ``then()``, as one :class:`Deferred` event."""
        return Deferred(self, legs, then)

    def _after(self, delay: float) -> float:
        """A delay leg for :meth:`deferred`: the instant a timeout of
        ``delay`` created now fires."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return self._now + delay

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a barrier that triggers once all ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: int = 50_000_000) -> float:
        """Dispatch events until the heap drains (or ``until`` is reached).

        Returns the final simulated time.  ``max_events`` guards against
        accidental infinite event loops in model code.
        """
        budget = max_events
        heap, pop = self._heap, heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self._now = until
                return self._now
            when, _seq, event, value = pop(heap)
            self._now = when
            self._processed += 1
            budget -= 1
            if budget < 0:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a runaway "
                    "simulation loop")
            if not event.triggered:
                event._fire(value)
        if until is not None and until > self._now:
            self._now = until
        return self._now
