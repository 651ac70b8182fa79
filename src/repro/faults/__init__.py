"""Deterministic fault injection & resilience for the CSD fleet.

Public surface:

* :class:`FaultPlan` / :class:`FaultRule` — seedable description of what
  can go wrong on which device (JSON round-trip for ``--fault-plan``).
* :class:`RetryPolicy` — exponential backoff budget for transient faults.
* :class:`FaultInjector` / :class:`FaultSite` — runtime evaluation,
  threaded through :class:`~repro.storage.blockdev.FileBlockDevice`,
  :class:`~repro.csd.device.SmartSSDDevice` and the transfer handler.
* :class:`FaultLedger` — the fault domain's one record: an amount per
  metric series, which the engine turns into ``faults_*`` counters.

The associated error types (:class:`~repro.errors.FaultInjectionError`,
:class:`~repro.errors.DeviceFailedError`,
:class:`~repro.errors.RetryExhaustedError`) live in :mod:`repro.errors`.
"""

from .plan import (KINDS, OPS, TRANSIENT_KINDS, FaultInjector, FaultPlan,
                   FaultLedger, FaultRule, FaultSite)
from .retry import RetryPolicy

__all__ = [
    "KINDS",
    "OPS",
    "TRANSIENT_KINDS",
    "FaultInjector",
    "FaultLedger",
    "FaultPlan",
    "FaultRule",
    "FaultSite",
    "RetryPolicy",
]
