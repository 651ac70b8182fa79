"""Flight recorder: the engine's black box, one record per training step.

The rest of the telemetry stack explains a run *after* it ends.  The
flight recorder answers the production question those leave open:
*what happened in the steps before a device dropped out / a step
crashed?*  It keeps no event stream of its own.  :class:`FlightRecorder`
is a bounded deque of :class:`StepRecord` s that the engine appends at
the end of every step (a step that raised too), on the thread that ran
it.  A record holds what the engine's books already say about the step:
its number and loss (or the error that escaped it), its fault-ledger
delta (the one the health signals and the registry read), its arena
cold-allocation delta (process-wide: a health input, not a dump line),
the alerts raised at its end and, under a telemetry session, the
session's own spans of the step — worker-process spans included.

:meth:`FlightRecorder.dump_jsonl` renders the deque as the
``smart-infinity/flightrec/v1`` JSONL snapshot.  Within a step the order
is fixed: spans (completion order), the ``step`` event, the fault deltas
in ledger order (injected, retries, ..., dropouts, demotions, degraded),
then the alerts.  :class:`IncidentDumper` writes at most one dump per
incident key, right after its alert joins the newest record, so each
dump ends at the alert that triggered it.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

#: Schema marker of the flight-recorder JSONL snapshot.
FLIGHT_SCHEMA = "smart-infinity/flightrec/v1"

#: Default number of step records an engine retains.
DEFAULT_CAPACITY = 64


@dataclass
class StepRecord:
    """One step as the flight recorder keeps it (see the module doc).

    ``ts`` and ``span_epoch`` are absolute ``perf_counter`` seconds: the
    step's end, and the epoch its spans are relative to.  ``faults`` is
    ``((family, labels), amount)`` in ledger order; ``alerts`` is
    ``(name, attrs)`` and grows while the engine raises them.
    """

    step: int
    loss: Optional[float]
    overflow: bool = False
    error: Optional[str] = None
    faults: List[Tuple[tuple, float]] = field(default_factory=list)
    arena_allocs: int = 0
    spans: Sequence[object] = ()
    span_epoch: float = 0.0
    ts: float = 0.0
    alerts: List[Tuple[str, Dict]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.spans) + 1 + len(self.faults) + len(self.alerts)

    def events(self) -> Iterator[tuple]:
        """``(ts, kind, name, attrs, thread)`` in render order."""
        for span in self.spans:
            yield (self.span_epoch + span.end, "span", span.name,
                   span.event_attrs(), span.thread_name)
        step: Dict[str, object] = {"step": self.step, "loss": self.loss,
                                   "overflow": self.overflow}
        if self.error is not None:
            step["error"] = self.error
        yield self.ts, "step", "train_step", step, None
        for (family, labels), amount in self.faults:
            yield self.ts, "fault", family, dict(labels, amount=amount), None
        for name, attrs in self.alerts:
            yield self.ts, "alert", name, attrs, None


class FlightRecorder:
    """The last ``capacity`` step records of one engine."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.records: Deque[StepRecord] = deque(maxlen=capacity)
        self._epoch = time.perf_counter()
        self._dropped = 0  # events of the records the deque evicted

    def append(self, record: StepRecord) -> None:
        if len(self.records) == self.records.maxlen:
            self._dropped += len(self.records[0])
        self.records.append(record)

    def events(self) -> List[Dict[str, object]]:
        """Every retained event in render order; ``seq`` counts from the
        first event this recorder ever held, ``ts`` from its creation."""
        out: List[Dict[str, object]] = []
        for record in self.records:
            for ts, kind, name, attrs, thread in record.events():
                event = {"type": "event", "seq": self._dropped + len(out),
                         "ts": ts - self._epoch, "kind": kind, "name": name,
                         "attrs": attrs}
                if thread is not None:
                    event["thread"] = thread
                out.append(event)
        return out

    def stats(self) -> Dict[str, object]:
        retained = sum(len(record) for record in self.records)
        return {"capacity": self.records.maxlen,
                "steps_retained": len(self.records),
                "events_recorded": self._dropped + retained,
                "events_retained": retained, "events_dropped": self._dropped}

    def dump_jsonl(self, path: str, reason: str = "manual",
                   **meta: object) -> str:
        """Write the ``smart-infinity/flightrec/v1`` snapshot — a meta
        record, then the events; returns path."""
        head = {"type": "meta", "schema": FLIGHT_SCHEMA, "reason": reason,
                **self.stats(), **meta}
        with open(path, "w") as handle:
            for record in [head, *self.events()]:
                handle.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
        return path


class IncidentDumper:
    """Writes at most one flight-recorder dump per incident key.

    A dropped-out device degrades every later step; ``limit`` bounds the
    files one dumper writes (the *first* incidents are the interesting
    ones).  A failed write is kept in ``errors``, never raised: the
    black box must not kill a step the engine would survive.
    """

    def __init__(self, recorder: FlightRecorder, directory: str,
                 limit: int = 16) -> None:
        if limit < 1:
            raise ValueError(f"dump limit must be positive, got {limit}")
        self.recorder = recorder
        self.directory = directory
        self.limit = limit
        self.paths: List[str] = []
        self.errors: List[str] = []
        self._fired: set = set()

    def dump_once(self, key: str, reason: str,
                  **meta: object) -> Optional[str]:
        """Dump for ``key`` unless it already fired; returns the path
        written (None when skipped or when the write failed)."""
        if key in self._fired or len(self.paths) >= self.limit:
            return None
        self._fired.add(key)
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", key).strip("-") or "incident"
        path = os.path.join(self.directory, f"flightrec-"
                            f"{len(self.paths):03d}-{slug}.jsonl")
        try:
            os.makedirs(self.directory, exist_ok=True)
            self.recorder.dump_jsonl(path, reason=reason, incident=key,
                                     **meta)
        except OSError as exc:
            self.errors.append(f"{path}: {type(exc).__name__}: {exc}")
            return None
        self.paths.append(path)
        return path


__all__ = ["DEFAULT_CAPACITY", "FLIGHT_SCHEMA", "FlightRecorder",
           "IncidentDumper", "StepRecord"]
