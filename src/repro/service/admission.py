"""Deterministic admission control: bounded queue, quotas, fairness.

Three gates, each with a typed rejection
(:class:`~repro.util.errors.AdmissionRejected`, ``reason`` one of
``queue_full`` / ``tenant_over_quota`` / ``deadline_infeasible``):

1. **Bounded queue** — overload sheds at the door. The service never
   buffers more than ``max_queue_depth`` requests in total; beyond that,
   admitting would only convert overload into latency for everyone.
2. **Per-tenant quotas** — :class:`TenantQuota` generalises the
   resilience layer's per-component budgets (a single round-trip pool
   for one component) to a tenant-lifetime allowance over engine queries,
   deep-web probes and simulated wall seconds, checked against the
   tenant's :class:`TenantLedger` of cumulative spend. The check repeats
   at dispatch: a tenant may be under quota when its request queues and
   over it by the time the request reaches the front, in which case the
   request is *shed* (it spent nothing, warm state untouched).
3. **Deadline feasibility** — a deadline shorter than one round trip
   (``SEARCH_QUERY_SECONDS + DEEP_PROBE_SECONDS`` simulated seconds by
   default) cannot admit any useful work; rejecting it at the door is
   kinder than letting it expire at position one in the queue.

Between tenants, dispatch order is **deficit round-robin**: each visit
to a tenant's queue earns it ``quantum`` deficit; its head request is
served once the deficit covers the request's ``cost``. A tenant posting
expensive requests waits proportionally longer — no tenant can starve
another — and the whole discipline is integer-free of wall clocks, so
the same submissions always dispatch in the same order (the determinism
the equivalence suite leans on).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.util.clock import DEEP_PROBE_SECONDS, SEARCH_QUERY_SECONDS
from repro.util.errors import AdmissionRejected

__all__ = [
    "MIN_FEASIBLE_DEADLINE_SECONDS",
    "AdmissionController",
    "TenantLedger",
    "TenantQuota",
]

#: One search round trip plus one probe round trip, simulated — the
#: smallest deadline under which a request can make any progress.
MIN_FEASIBLE_DEADLINE_SECONDS = SEARCH_QUERY_SECONDS + DEEP_PROBE_SECONDS


@dataclass(frozen=True)
class TenantQuota:
    """A tenant's lifetime allowance. ``None`` fields are unbounded."""

    #: cumulative surface/attr-surface engine queries
    max_engine_queries: Optional[int] = None
    #: cumulative deep-web form probes
    max_probes: Optional[int] = None
    #: cumulative simulated wall seconds
    max_wall_seconds: Optional[float] = None

    def exceeded_by(self, ledger: "TenantLedger") -> Optional[str]:
        """The first limit the ledger is at or over, or ``None``."""
        if (self.max_engine_queries is not None
                and ledger.queries >= self.max_engine_queries):
            return (f"engine queries {ledger.queries} >= "
                    f"{self.max_engine_queries}")
        if self.max_probes is not None and ledger.probes >= self.max_probes:
            return f"probes {ledger.probes} >= {self.max_probes}"
        if (self.max_wall_seconds is not None
                and ledger.seconds >= self.max_wall_seconds):
            return (f"wall {ledger.seconds:.1f}s >= "
                    f"{self.max_wall_seconds:.1f}s")
        return None


@dataclass
class TenantLedger:
    """One tenant's cumulative account with the service."""

    tenant: str
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    deadline_expired: int = 0
    crashed: int = 0
    #: rejection reason -> count (rejections never spend anything)
    rejected: Dict[str, int] = field(default_factory=dict)
    #: engine queries charged (surface + attr-surface accounts)
    queries: int = 0
    #: deep-web probes charged (attr-deep account)
    probes: int = 0
    #: simulated seconds charged
    seconds: float = 0.0

    def charge(self, *, queries: int, probes: int, seconds: float) -> None:
        self.queries += queries
        self.probes += probes
        self.seconds += seconds

    def note_rejection(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "crashed": self.crashed,
            "rejected": {k: self.rejected[k] for k in sorted(self.rejected)},
            "queries": self.queries,
            "probes": self.probes,
            "seconds": round(self.seconds, 6),
        }


class AdmissionController:
    """Bounded per-tenant queues drained in deficit-round-robin order."""

    def __init__(
        self,
        *,
        max_queue_depth: int = 8,
        quantum: float = 1.0,
        min_deadline_seconds: float = MIN_FEASIBLE_DEADLINE_SECONDS,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.max_queue_depth = max_queue_depth
        self.quantum = quantum
        self.min_deadline_seconds = min_deadline_seconds
        self._queues: Dict[str, Deque[object]] = {}
        #: tenants with queued work, in arrival-of-first-request order
        self._rotation: List[str] = []
        self._deficit: Dict[str, float] = {}

    # ------------------------------------------------------------ intake
    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_for(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def offer(self, request, *, ledger: TenantLedger,
              quota: TenantQuota) -> None:
        """Admit ``request`` or raise a typed :class:`AdmissionRejected`.

        ``request`` needs ``tenant``, ``cost`` and ``deadline_seconds``
        attributes; admission never inspects anything else, so shedding
        and rejection provably cannot depend on (or touch) warm state.
        """
        tenant = request.tenant
        if len(self) >= self.max_queue_depth:
            raise AdmissionRejected(
                f"request queue is full ({self.max_queue_depth} deep) — "
                f"shedding {tenant}'s request at the door",
                reason="queue_full", tenant=tenant,
            )
        over = quota.exceeded_by(ledger)
        if over is not None:
            raise AdmissionRejected(
                f"tenant {tenant} is over quota ({over})",
                reason="tenant_over_quota", tenant=tenant,
            )
        deadline = getattr(request, "deadline_seconds", None)
        if deadline is not None and deadline < self.min_deadline_seconds:
            raise AdmissionRejected(
                f"deadline {deadline:.2f}s cannot fit one round trip "
                f"(minimum {self.min_deadline_seconds:.2f}s simulated)",
                reason="deadline_infeasible", tenant=tenant,
            )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue and tenant not in self._rotation:
            self._rotation.append(tenant)
        queue.append(request)

    # ----------------------------------------------------------- dispatch
    def next_request(self):
        """The next request in deficit-round-robin order, or ``None``.

        Each visit earns the tenant ``quantum`` deficit; its head request
        dispatches once the deficit covers the request's ``cost``.
        Deficits reset when a tenant's queue drains, so an idle tenant
        cannot bank credit. Terminates because every full rotation adds
        ``quantum`` to some non-empty queue's deficit.
        """
        while self._rotation:
            tenant = self._rotation.pop(0)
            queue = self._queues.get(tenant)
            if not queue:
                self._deficit.pop(tenant, None)
                continue
            deficit = self._deficit.get(tenant, 0.0) + self.quantum
            head_cost = getattr(queue[0], "cost", 1.0)
            if deficit >= head_cost:
                request = queue.popleft()
                if queue:
                    self._deficit[tenant] = deficit - head_cost
                    self._rotation.append(tenant)
                else:
                    self._deficit.pop(tenant, None)
                return request
            self._deficit[tenant] = deficit
            self._rotation.append(tenant)
        return None
