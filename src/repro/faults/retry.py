"""Exponential-backoff retry policy for transient injected faults.

The policy is pure data plus arithmetic: it never sleeps or catches
anything itself.  The :class:`~repro.faults.plan.FaultInjector` owns the
retry *loop* (so retries, backoff sleeps and exhaustion are counted in
one place); callers that want their own loop can iterate
:meth:`RetryPolicy.delays` with any clock, which is exactly what the
fake-clock tests do.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator

from ..errors import TrainingError, reject_unknown_keys


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a delay cap.

    ``max_attempts`` counts *total* tries of the guarded operation; a
    policy of 4 attempts sleeps at most 3 times.  Defaults are tuned for
    the functional repro (milliseconds, not seconds): chaos test runs
    inject hundreds of faults and must still finish quickly.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise TrainingError("retry max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise TrainingError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise TrainingError("retry multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """Backoff sleep before each re-attempt: base, base*m, ... capped."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier

    def to_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RetryPolicy":
        reject_unknown_keys("retry-policy", data,
                            (field.name for field in fields(cls)),
                            TrainingError)
        return cls(**data)
