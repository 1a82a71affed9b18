"""Fault-tolerant Web access: injection, retries, breakers, degradation.

The original WebIQ system faced the real 2006 Web; this package restores
that unreliability to the offline reproduction — deterministically — and
provides the machinery to survive it:

- :mod:`repro.resilience.faults` — :class:`FaultProfile` plus the fault
  layer (:class:`FaultInjector`) that injects timeouts, 5xx transients,
  rate limits and truncated pages;
- :mod:`repro.resilience.client` — :class:`ResilientClient` (retry with
  exponential backoff + jitter, per-component budgets, per-source circuit
  breakers), whose :meth:`~ResilientClient.layer` is the retry layer that
  degrades abandoned calls to neutral answers, and the
  :class:`DegradationReport` a run attaches to its result.

Both are layers of the one Web call chain built by
:func:`repro.webstack.build_web_stack`. Enable them per run via
``WebIQConfig(resilience=ResilienceConfig(...))``; with the default
``FaultProfile()`` (rate 0) the fault layer is an exact pass-through.
"""

from repro.resilience.client import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationReport,
    ResilienceConfig,
    ResilientClient,
    RetryPolicy,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    KillSwitch,
    PreemptionPoint,
)

__all__ = [
    "FaultKind",
    "FaultProfile",
    "FaultInjector",
    "KillSwitch",
    "PreemptionPoint",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "DegradationReport",
    "ResilienceConfig",
    "ResilientClient",
]
