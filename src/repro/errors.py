"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Type


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulation kernel."""


class HardwareConfigError(ReproError):
    """An invalid hardware description (bandwidths, topology, resources)."""


class CapacityError(ReproError):
    """A device buffer or memory capacity was exceeded."""


class StorageError(ReproError):
    """A failure in the functional storage substrate (block devices, RAID)."""


class KernelError(ReproError):
    """A CSD kernel was misconfigured or failed its sanity check."""


class PartitionError(ReproError):
    """Parameter flattening/partitioning produced an inconsistent layout."""


class TelemetryError(ReproError):
    """Telemetry misuse (metric kind clash, double-ended span, bad buckets)."""


class ArenaError(ReproError):
    """Buffer-arena misuse (bad checkout size, foreign/double release)."""


class FaultError(ReproError):
    """Base class for injected-fault conditions (see :mod:`repro.faults`)."""


class FaultInjectionError(FaultError):
    """A *transient* injected fault (I/O error, stuck kernel pass).

    Transient faults are retryable: the storage and CSD layers wrap the
    faulted operation in an exponential-backoff retry loop, so a
    transient fault that clears is invisible to training semantics.
    """

    def __init__(self, message: str, kind: str = "io_error",
                 device: object = None, op: str = "*") -> None:
        super().__init__(message)
        self.kind = kind
        self.device = device
        self.op = op


class DeviceFailedError(FaultError):
    """A device dropped out *permanently* (dead CSD, failed RAID member).

    Not retryable.  The Smart-Infinity engine responds by demoting the
    device's shard to the host-CPU update path; RAID0 responds by
    entering degraded mode (fail-stop, restore from checkpoint).
    """

    def __init__(self, message: str, device: object = None) -> None:
        super().__init__(message)
        self.device = device


class RetryExhaustedError(FaultError):
    """Transient faults persisted beyond the retry budget.

    Carries the last transient fault as ``last_fault``; the engines treat
    an exhausted device like a failed one (next rung of the degradation
    ladder).
    """

    def __init__(self, message: str, attempts: int = 0,
                 last_fault: object = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_fault = last_fault


class WorkerCrashError(FaultError):
    """A pool worker process died unexpectedly (crash, OOM-kill, signal).

    Raised by :class:`~repro.runtime.parallel.ProcessCSDWorkerPool` when a
    child process exits without answering an outstanding task.  It is a
    :class:`FaultError` on purpose: a dead worker process is the software
    analogue of a dead CSD, and the engines treat it with the same
    degradation ladder instead of hanging on a silent pipe.
    """

    def __init__(self, message: str, worker: object = None) -> None:
        super().__init__(message)
        self.worker = worker


class TrainingError(ReproError):
    """A failure inside the training runtime (engine misuse, divergence)."""


class ScenarioError(ReproError):
    """A malformed or failed chaos/workload campaign (see :mod:`repro.scenarios`)."""


def reject_unknown_keys(what: str, data: object, known: Iterable[str],
                        error: Type[ReproError]) -> None:
    """Raise ``error`` unless ``data`` is a dict whose keys are all in
    ``known``.

    The one validator of every JSON surface (configs, SLO rules, fault
    plans, scenarios): a typo such as ``compression_ration`` fails as
    ``unknown config keys: 'compression_ration' (did you mean
    'compression_ratio'?); known keys: [...]`` instead of running with
    a default.
    """
    if not isinstance(data, dict):
        raise error(f"{what} must be an object, got {type(data).__name__}")
    known = sorted(known)
    unknown = sorted(set(data) - set(known))
    if unknown:
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, known, n=1)
            hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)"
                                       if close else ""))
        raise error(f"unknown {what} keys: {', '.join(hints)}; known "
                    f"keys: {known}")
