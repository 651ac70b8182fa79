"""Flight recorder: an always-on black box for training runs.

The rest of the telemetry stack explains a run *after* it ends — trace
export, attribution, the bench gate.  The flight recorder answers the
production question those leave open: *what were the last few hundred
things that happened before a device dropped out / a step crashed?*

Design, in the order the requirements force it:

* **per-worker ring segments** — every thread that records gets its own
  fixed-size ring (:class:`_RingSegment`).  Appends are lock-free-ish:
  the owning thread is the only writer, so an append is two slot/index
  stores with no lock taken (snapshots tolerate the resulting benign
  races).  Memory is bounded by ``workers x capacity`` events, ever.
* **global sequence numbers** — each event draws from one atomic
  ``itertools.count``, so :meth:`FlightRecorder.dump` can merge the
  per-worker segments into a single totally-ordered timeline without
  trusting cross-thread clock comparisons.
* **merge-on-dump** — segments are only reconciled when someone asks.
  The per-worker-segment + merge design is deliberately process-agnostic:
  a multiprocessing backend can ship each worker's segment over a pipe
  and feed the same merge.
* **once-per-incident dumps** — :class:`IncidentDumper` writes the
  ``smart-infinity/flightrec/v1`` JSONL snapshot at most once per
  incident key, so a dropout that degrades every subsequent step does
  not bury the interesting dump under 500 identical ones.

Event sources (all cheap, all optional):

* span ends (:mod:`~repro.telemetry.spans`, when a telemetry session is
  active), including the error status of spans that exited via exception;
* fault injections, retries, backoffs and dropouts (:mod:`repro.faults`,
  recorded even without a telemetry session);
* arena cold-path allocations (:mod:`repro.memory`);
* per-step health beacons and alerts (:mod:`~repro.telemetry.health`
  via the engines).

The module-level :func:`record_event` is the only hook call sites need;
it reduces to one global ``None`` check when no recorder is installed.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Schema marker of the flight-recorder JSONL snapshot.
FLIGHT_SCHEMA = "smart-infinity/flightrec/v1"

#: Default ring capacity per worker thread (events, not bytes).
DEFAULT_CAPACITY = 512

#: Event kinds the recorder understands (free-form names within a kind).
EVENT_KINDS = ("span", "fault", "arena", "step", "alert")

# One event is a tuple — cheaper than a dataclass on the hot path:
#   (seq, ts, kind, name, payload)
# ``payload`` is the attrs dict (or None); for a span end it is the
# finished :class:`~repro.telemetry.spans.Span` itself, rendered through
# its ``event_attrs()`` only when somebody dumps.
_Event = Tuple[int, float, str, str, object]


class _RingSegment:
    """One worker thread's fixed-size event ring.

    Single-writer by construction (only the owning thread appends), so
    :meth:`append` takes no lock.  :meth:`tail` may run on another
    thread; it tolerates the benign race of an append landing mid-read
    (at worst one event is seen twice or not yet — never a torn event,
    since slot stores are atomic).  Slots are allocated as they are
    first written, so a roomy capacity costs nothing until it is used.
    """

    __slots__ = ("capacity", "thread_id", "thread_name", "_slots",
                 "written")

    def __init__(self, capacity: int, thread_id: int,
                 thread_name: str) -> None:
        self.capacity = capacity
        self.thread_id = thread_id
        self.thread_name = thread_name
        self._slots: List[_Event] = []
        self.written = 0

    def append(self, event: _Event) -> None:
        if self.written < self.capacity:
            self._slots.append(event)
        else:
            self._slots[self.written % self.capacity] = event
        self.written += 1

    def tail(self, count: int) -> List[_Event]:
        """The newest ``count`` retained events, oldest first."""
        written, slots, capacity = self.written, self._slots, self.capacity
        count = min(count, written, capacity)
        return [slots[index % capacity]
                for index in range(written - count, written)]


class FlightRecorder:
    """Fixed-footprint recorder of recent events, per worker thread.

    ``clock`` is injectable for deterministic tests (monotonic float
    seconds); timestamps are relative to ``epoch`` (default: the
    recorder's creation; a worker process's forwarding recorder uses
    0.0 and so ships absolute clock values).
    """

    def __init__(self, capacity_per_worker: int = DEFAULT_CAPACITY,
                 clock=time.perf_counter,
                 epoch: Optional[float] = None) -> None:
        if capacity_per_worker < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got "
                f"{capacity_per_worker}")
        self.capacity_per_worker = capacity_per_worker
        self._clock = clock
        self._epoch = clock() if epoch is None else epoch
        self._seq = itertools.count()  # next() is atomic in CPython
        self._local = threading.local()
        self._segments: List[_RingSegment] = []
        self._segments_lock = threading.Lock()
        # Foreign segments hold events forwarded from other processes'
        # recorders (one ring per worker/thread label, merged like any
        # local worker segment).
        self._foreign: Dict[str, _RingSegment] = {}

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def _segment(self) -> _RingSegment:
        segment = getattr(self._local, "segment", None)
        if segment is None:
            thread = threading.current_thread()
            segment = _RingSegment(self.capacity_per_worker,
                                   thread.ident or 0, thread.name)
            with self._segments_lock:
                self._segments.append(segment)
            self._local.segment = segment
        return segment

    def record(self, kind: str, name: str, payload: object = None) -> None:
        """Append one event to the calling thread's ring segment.

        ``payload`` is the event's attrs dict (whose keys therefore
        cannot collide with this signature), or the finished span of a
        ``"span"`` event — stored by reference, not copied.
        """
        self._segment().append(
            (next(self._seq), self._clock() - self._epoch, kind, name,
             payload or None))

    # ------------------------------------------------------------------
    # cross-process forwarding
    # ------------------------------------------------------------------
    def export_since(self, cursors: Dict[int, int]):
        """Events appended since ``cursors``, as picklable tuples.

        The child-process half of event forwarding: a worker reads its
        own recorder with this after every task and ships the tuples
        (``(abs_ts, kind, name, payload, thread)``, in recording order)
        over the pipe.  ``cursors`` maps a segment's position to how many
        of its events were already shipped, so the work is proportional
        to the new events, not to the ring.  Returns ``(new_cursors,
        tuples)``; start from ``{}``.
        """
        with self._segments_lock:
            segments = list(self._segments)
        fresh: List[Tuple[_Event, str]] = []
        after: Dict[int, int] = {}
        for index, segment in enumerate(segments):
            after[index] = written = segment.written
            fresh.extend((event, segment.thread_name) for event in
                         segment.tail(written - cursors.get(index, 0)))
        fresh.sort(key=lambda pair: pair[0][0])
        return after, [(ts + self._epoch, kind, name, payload, thread)
                       for (_seq, ts, kind, name, payload), thread in fresh]

    def ingest(self, worker: str, events) -> None:
        """Merge events forwarded from another process's recorder.

        The parent half: each forwarded tuple lands in a dedicated
        foreign ring segment (keyed ``worker/thread``) with a *fresh*
        parent sequence number, so the merged timeline stays totally
        ordered and a chatty child still cannot evict the parent's own
        events.  Timestamps are rebased from absolute clock values to
        this recorder's epoch.
        """
        for ts_abs, kind, name, payload, thread in events:
            key = f"{worker}/{thread}" if thread else worker
            segment = self._foreign.get(key)
            if segment is None:
                with self._segments_lock:
                    segment = self._foreign.get(key)
                    if segment is None:
                        segment = _RingSegment(self.capacity_per_worker,
                                               0, key)
                        self._foreign[key] = segment
                        self._segments.append(segment)
            segment.append((next(self._seq), float(ts_abs) - self._epoch,
                            kind, name, payload))

    # ------------------------------------------------------------------
    # merge-on-dump
    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, object]]:
        """Merged snapshot of every worker's segment, totally ordered.

        Ordering is by global sequence number — the one total order that
        is consistent across worker threads regardless of clock skew
        between the timestamp read and the append.
        """
        with self._segments_lock:
            segments = list(self._segments)
        merged: List[Tuple[_Event, _RingSegment]] = []
        for segment in segments:
            for event in segment.tail(segment.capacity):
                merged.append((event, segment))
        merged.sort(key=lambda pair: pair[0][0])
        return [{
            "type": "event",
            "seq": seq, "ts": ts, "kind": kind, "name": name,
            "thread": segment.thread_name,
            "attrs": (payload.event_attrs()
                      if hasattr(payload, "event_attrs") else payload or {}),
        } for (seq, ts, kind, name, payload), segment in merged]

    def stats(self) -> Dict[str, object]:
        with self._segments_lock:
            segments = list(self._segments)
        return {
            "workers": len(segments),
            "capacity_per_worker": self.capacity_per_worker,
            "events_recorded": sum(s.written for s in segments),
            "events_retained": sum(min(s.written, s.capacity)
                                   for s in segments),
            "events_dropped": sum(max(0, s.written - s.capacity)
                                  for s in segments),
        }

    def dump_jsonl(self, path: str, reason: str = "manual",
                   **meta: object) -> str:
        """Write the ``smart-infinity/flightrec/v1`` snapshot — a meta
        record, then the merged events; returns path."""
        head: Dict[str, object] = {
            "type": "meta", "schema": FLIGHT_SCHEMA, "reason": reason,
            **self.stats(), **meta,
        }
        with open(path, "w") as handle:
            for record in [head, *self.events()]:
                handle.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
        return path


def _slug(text: str) -> str:
    """Filesystem-safe fragment of an incident key."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text).strip("-") or "incident"


class IncidentDumper:
    """Writes at most one flight-recorder dump per incident key.

    A dropped-out device degrades every later step; without dedup the
    interesting snapshot (the seconds *around* the dropout) would be
    rewritten hundreds of times.  ``limit`` bounds the files one dumper
    writes per run: distinct incident keys beyond it are dropped, not
    rotated — the *first* occurrences are the interesting ones.
    """

    def __init__(self, recorder: FlightRecorder, directory: str,
                 limit: int = 16) -> None:
        if limit < 1:
            raise ValueError(f"dump limit must be positive, got {limit}")
        self.recorder = recorder
        self.directory = directory
        self.limit = limit
        self._lock = threading.Lock()
        self._paths: Dict[str, str] = {}

    @property
    def paths(self) -> List[str]:
        with self._lock:
            return list(self._paths.values())

    def dump_once(self, key: str, reason: str,
                  **meta: object) -> Optional[str]:
        """Dump for ``key`` unless it already fired; returns the path."""
        with self._lock:
            if key in self._paths or len(self._paths) >= self.limit:
                return None
            index = len(self._paths)
            path = os.path.join(self.directory,
                                f"flightrec-{index:03d}-{_slug(key)}.jsonl")
            # Reserve before the (slow) write so a racing second incident
            # with the same key sees it as already handled.
            self._paths[key] = path
        os.makedirs(self.directory, exist_ok=True)
        return self.recorder.dump_jsonl(path, reason=reason,
                                        incident=key, **meta)


# ----------------------------------------------------------------------
# the installed recorder — the one global every hook checks
# ----------------------------------------------------------------------
_recorder: Optional[FlightRecorder] = None


def install(recorder: Optional[FlightRecorder]
            ) -> Optional[FlightRecorder]:
    """Make ``recorder`` the process's active recorder; returns previous."""
    global _recorder
    previous, _recorder = _recorder, recorder
    return previous


def replace(current: Optional[FlightRecorder],
            previous: Optional[FlightRecorder]) -> None:
    """Restore ``previous`` iff ``current`` is still installed.

    The engines' close() path: an engine only tears down the recorder it
    installed, so overlapping engine lifetimes never clobber each other.
    """
    global _recorder
    if _recorder is current:
        _recorder = previous


def active_recorder() -> Optional[FlightRecorder]:
    return _recorder


def record_event(kind: str, name: str, **attrs: object) -> None:
    """Record into the installed recorder (one global check when off)."""
    if _recorder is not None:
        _recorder.record(kind, name, attrs or None)


__all__ = [
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "IncidentDumper",
    "active_recorder",
    "install",
    "record_event",
    "replace",
]
