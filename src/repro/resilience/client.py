"""Retry, circuit breaking, budgets and graceful degradation.

:class:`ResilientClient` is the policy engine between WebIQ's components
and the (possibly flaky) Web substrates:

- **retry with exponential backoff + jitter** (:class:`RetryPolicy`) for
  the recoverable :class:`~repro.util.errors.WebAccessError` family, with
  rate-limit rejections backed off harder than ordinary transients;
- **per-source circuit breakers** (:class:`CircuitBreaker`,
  closed → open → half-open) so a dead Deep-Web source stops consuming the
  probe budget after a few consecutive failures;
- **per-component budgets** (:meth:`ResilienceConfig.budgets`) bounding
  the total round trips each of ``surface`` / ``attr_surface`` /
  ``attr_deep`` may spend, charged to the component the
  :class:`~repro.webstack.Call` carries;
- **degradation accounting** (:class:`DegradationReport`): every fault,
  retry, backoff second, breaker trip, exhausted budget and skipped
  attribute is recorded, so a run that survived a hostile Web can say
  exactly what it paid and what it gave up.

Backoff delays are *simulated* seconds: the client never sleeps. The
pipeline charges them to the :class:`~repro.util.clock.SimulatedClock`
under ``<component>_retry`` accounts, keeping Figure 8's overhead model
honest about what resilience costs.

:meth:`ResilientClient.layer` is the retry layer of the Web call chain
(:mod:`repro.webstack`). When a call is abandoned — retries exhausted,
breaker open, or budget spent — it degrades instead of raising: empty
search results, zero hit counts, or an "unavailable" error page that the
§4 response heuristics classify as a failed probe. The pipeline therefore
never crashes; it yields partial results and reports the damage.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.deepweb.source import ResponsePage
from repro.util.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    RateLimitError,
    WebAccessError,
)
from repro.util.rng import derive_rng

from repro.exec.context import UnitKey, current_unit
from repro.resilience.faults import FaultKind, FaultProfile
from repro.webstack import DEFAULT_COMPONENT

__all__ = [
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "DegradationReport",
    "ResilienceConfig",
    "ResilientClient",
]

T = TypeVar("T")

#: Retry-loop event name -> metrics counter suffix (``resilience.<suffix>``).
_PLURALS = {
    "retry": "retries",
    "fault": "faults",
    "giveup": "giveups",
    "breaker_trip": "breaker_trips",
    "breaker_reject": "breaker_rejections",
    "budget_exhausted": "budgets_exhausted",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    The delay before retry ``attempt`` (0-based) is
    ``base_delay * multiplier**attempt``, clamped to ``max_delay``, then
    scaled by a jitter factor uniform in ``[1-jitter, 1+jitter]``.
    Rate-limit rejections multiply the delay by ``rate_limit_factor``
    first — hammering a throttling endpoint only digs the hole deeper.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    rate_limit_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def delay(self, attempt: int, rng, rate_limited: bool = False) -> float:
        seconds = self.base_delay * (self.multiplier ** attempt)
        if rate_limited:
            seconds *= self.rate_limit_factor
        seconds = min(seconds, self.max_delay)
        if self.jitter:
            seconds *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return seconds


@dataclass(frozen=True)
class BreakerPolicy:
    """When a per-source circuit breaker opens and how long it rests.

    Time is counted in *calls*, not seconds: after ``failure_threshold``
    consecutive failures the breaker opens and fast-fails the next
    ``cooldown_rejections`` calls, then half-opens to let one trial probe
    through. Call-counted cooldowns keep the state machine deterministic
    without tying it to any clock.
    """

    failure_threshold: int = 3
    cooldown_rejections: int = 5

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_rejections < 0:
            raise ValueError("cooldown_rejections must be non-negative")


class CircuitBreaker:
    """The classic closed → open → half-open state machine, call-counted."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy = BreakerPolicy()) -> None:
        self.policy = policy
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.times_opened = 0
        self.rejections = 0
        self._cooldown_left = 0

    def allow(self) -> bool:
        """May the next call proceed? (Open breakers count down cooldown.)"""
        if self.state == self.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.rejections += 1
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> bool:
        """Note a failure; returns True when this one tripped the breaker."""
        self.consecutive_failures += 1
        trip = (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.policy.failure_threshold
        )
        if trip:
            self.state = self.OPEN
            self.times_opened += 1
            self.consecutive_failures = 0
            self._cooldown_left = self.policy.cooldown_rejections
        return trip

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, object]:
        """The full state-machine position, JSON-ready (for the journal)."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
            "rejections": self.rejections,
            "cooldown_left": self._cooldown_left,
        }

    def restore_state(self, payload: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_payload` (policy comes from config)."""
        self.state = payload["state"]
        self.consecutive_failures = payload["consecutive_failures"]
        self.times_opened = payload["times_opened"]
        self.rejections = payload["rejections"]
        self._cooldown_left = payload["cooldown_left"]


@dataclass
class DegradationReport:
    """What a run paid to survive faults, and what it gave up.

    Attached to :class:`~repro.core.pipeline.WebIQRunResult` when a
    resilience configuration is active; ``degraded`` distinguishes "some
    calls needed retries but everything completed" from "results are
    partial" (give-ups, tripped breakers, exhausted budgets, skipped
    attributes).
    """

    #: fault kind value -> injections (e.g. ``{"timeout": 12}``); fed by the
    #: fault layer's ``on_fault`` hook, so silent ``garbled`` faults count
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: component -> raised faults observed while it was active
    faults_by_component: Dict[str, int] = field(default_factory=dict)
    #: component -> retries issued (a call retried twice counts two)
    retries_by_component: Dict[str, int] = field(default_factory=dict)
    #: component -> simulated seconds spent waiting in backoff
    backoff_seconds_by_component: Dict[str, float] = field(default_factory=dict)
    #: component -> calls abandoned after the last retry failed
    giveups_by_component: Dict[str, int] = field(default_factory=dict)
    #: source id -> times its breaker tripped open
    breaker_trips: Dict[str, int] = field(default_factory=dict)
    #: source id -> calls fast-failed while its breaker was open
    breaker_rejections: Dict[str, int] = field(default_factory=dict)
    #: components whose budget ran dry, in the order it happened
    budgets_exhausted: List[str] = field(default_factory=list)
    #: (interface_id, attribute) pairs skipped once a budget was gone
    attributes_skipped: List[Tuple[str, str]] = field(default_factory=list)
    #: component -> budgeted round trips charged (tracked even when the
    #: budget is unbounded); the only spend counter budgets are checked
    #: against
    budget_spent_by_component: Dict[str, int] = field(default_factory=dict)
    #: units the supervisor quarantined after repeated crashes, with full
    #: provenance (:class:`repro.supervisor.QuarantinedUnit`). Mirrored
    #: here by :class:`repro.supervisor.RunSupervisor` *after* the run
    #: completes; deliberately in-memory only — the JSON export keeps its
    #: quarantine provenance in the ``supervisor`` section so the
    #: ``degradation`` section stays byte-identical to an unsupervised
    #: reference run.
    quarantined_units: List[Any] = field(default_factory=list)

    #: the fields :meth:`to_dict` carries (``quarantined_units`` does not)
    _CODEC_FIELDS = (
        "faults_by_kind",
        "faults_by_component",
        "retries_by_component",
        "backoff_seconds_by_component",
        "giveups_by_component",
        "breaker_trips",
        "breaker_rejections",
        "budgets_exhausted",
        "attributes_skipped",
        "budget_spent_by_component",
    )

    # -------------------------------------------------------------- codec
    def to_dict(self) -> Dict[str, Any]:
        """The report's ledgers, JSON-ready: the one codec both the
        checkpoint journal and the run export write."""
        payload = {
            name: copy.copy(getattr(self, name))
            for name in self._CODEC_FIELDS
        }
        payload["attributes_skipped"] = [
            list(pair) for pair in self.attributes_skipped
        ]
        return payload

    def load_dict(self, payload: Mapping[str, Any]) -> None:
        """Inverse of :meth:`to_dict`, in place."""
        for name in self._CODEC_FIELDS:
            setattr(self, name, copy.copy(payload[name]))
        self.attributes_skipped = [
            tuple(pair) for pair in payload["attributes_skipped"]
        ]

    # ------------------------------------------------------------ queries
    @property
    def total_faults(self) -> int:
        return sum(self.faults_by_kind.values())

    @property
    def total_retries(self) -> int:
        return sum(self.retries_by_component.values())

    @property
    def total_backoff_seconds(self) -> float:
        return sum(self.backoff_seconds_by_component.values())

    @property
    def degraded(self) -> bool:
        """Did the run give anything up (as opposed to merely retrying)?"""
        return bool(
            self.giveups_by_component
            or self.breaker_trips
            or self.budgets_exhausted
            or self.attributes_skipped
        )

    @property
    def empty(self) -> bool:
        return (
            self.total_faults == 0
            and self.total_retries == 0
            and not self.faults_by_component
            and not self.degraded
        )

    def summary(self) -> str:
        """Human-readable multi-line account, for the CLI."""
        lines = ["degradation report:"]
        kinds = ", ".join(
            f"{kind} {count}"
            for kind, count in sorted(self.faults_by_kind.items())
        )
        lines.append(
            f"  faults seen: {self.total_faults}"
            + (f" ({kinds})" if kinds else "")
        )
        for component in sorted(self.retries_by_component):
            lines.append(
                f"  retries[{component}]: "
                f"{self.retries_by_component[component]} "
                f"(backoff "
                f"{self.backoff_seconds_by_component.get(component, 0.0):.1f}s)"
            )
        for component in sorted(self.giveups_by_component):
            lines.append(
                f"  gave up[{component}]: {self.giveups_by_component[component]}"
            )
        for source_id in sorted(self.breaker_trips):
            lines.append(
                f"  breaker[{source_id}]: "
                f"{self.breaker_trips[source_id]} trips, "
                f"{self.breaker_rejections.get(source_id, 0)} fast-fails"
            )
        if self.budgets_exhausted:
            lines.append(
                "  budgets exhausted: " + ", ".join(self.budgets_exhausted)
            )
        if self.attributes_skipped:
            lines.append(
                f"  attributes skipped: {len(self.attributes_skipped)}"
            )
        for unit in self.quarantined_units:
            lines.append(
                f"  quarantined[{'/'.join(unit.unit)}]: "
                f"{unit.crashes} crashes "
                f"(restarts {list(unit.restart_indices)})"
            )
        if self.empty:
            lines.append("  (no faults observed)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilience layer needs for one pipeline run."""

    profile: FaultProfile = field(default_factory=FaultProfile)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: per-component round-trip budgets; ``None`` means unbounded
    surface_query_budget: Optional[int] = None
    attr_surface_query_budget: Optional[int] = None
    attr_deep_probe_budget: Optional[int] = None

    def __post_init__(self) -> None:
        for component, limit in self.budgets().items():
            if limit is not None and (not isinstance(limit, int)
                                      or limit < 0):
                raise ValueError(f"{component} budget must be a "
                                 f"non-negative integer, got {limit!r}")

    def budgets(self) -> Dict[str, Optional[int]]:
        """Component -> round-trip limit (``None``: unbounded but counted)."""
        return {
            "surface": self.surface_query_budget,
            "attr_surface": self.attr_surface_query_budget,
            "attr_deep": self.attr_deep_probe_budget,
        }


class ResilientClient:
    """Shared retry/breaker/budget engine for one pipeline run."""

    def __init__(self, config: ResilienceConfig = ResilienceConfig(),
                 obs=None) -> None:
        self.config = config
        self.report = DegradationReport()
        #: component -> round-trip limit; only these components are
        #: charged, their spend is ``report.budget_spent_by_component``
        self._budgets = config.budgets()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: per-unit jitter streams, derived lazily from the unit key so a
        #: unit's draws are identical however the run is scheduled/resumed
        self._unit_rngs: Dict[UnitKey, Any] = {}
        #: backoff delays computed so far (an accounting counter; per-unit
        #: streams need no fast-forward on resume)
        self.backoff_draws = 0
        #: optional :class:`~repro.obs.Observability` bundle; when attached,
        #: every retry-loop decision is traced and counted. Strictly
        #: observational: attaching it changes no behaviour.
        self.obs = obs

    # ------------------------------------------------------------ budgets
    def budget_exhausted(self, component: str) -> bool:
        limit = self._budgets.get(component)
        return limit is not None and \
            self.report.budget_spent_by_component.get(component, 0) >= limit

    def breaker_for(self, source_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(source_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[source_id] = breaker
        return breaker

    def skip_attribute(self, interface_id: str, attribute: str) -> None:
        """Record that an attribute was skipped outright (budget gone)."""
        self.report.attributes_skipped.append((interface_id, attribute))

    def note_injected_fault(self, kind: FaultKind) -> None:
        """Hook for the fault layer's ``on_fault`` callback."""
        self._bump(self.report.faults_by_kind, kind.value)

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, object]:
        """Everything a resumed process must restore to continue this
        client's policy decisions bit-identically: the degradation
        report (budget spend included), per-source breaker positions and
        the backoff draw counter. JSON-ready.

        ``budgets`` is a per-component view of the report's spend that
        journals keep carrying; :meth:`restore_state` ignores it."""
        spent = self.report.budget_spent_by_component
        return {
            "report": self.report.to_dict(),
            "budgets": {
                name: spent.get(name, 0) for name in sorted(self._budgets)
            },
            "breakers": {
                source_id: breaker.state_payload()
                for source_id, breaker in sorted(self._breakers.items())
            },
            "backoff_draws": self.backoff_draws,
        }

    def restore_state(self, payload: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_payload`, on a freshly-built client.

        Backoff jitter streams are keyed per unit and start at position 0
        whenever their unit runs, so nothing needs fast-forwarding: fresh
        units after the replayed prefix derive exactly the streams the
        uninterrupted run would have. Only the draw *counter* is restored,
        for accounting.
        """
        if self.backoff_draws:
            raise ValueError(
                "restore_state needs a fresh client "
                f"(already drew {self.backoff_draws} backoffs)"
            )
        self.report.load_dict(payload["report"])
        for source_id, state in payload["breakers"].items():
            self.breaker_for(source_id).restore_state(state)
        self.backoff_draws = payload["backoff_draws"]

    # ----------------------------------------------------------- the loop
    def call(
        self,
        fn: Callable[[], T],
        source_id: Optional[str] = None,
        component: str = DEFAULT_COMPONENT,
    ) -> T:
        """Run ``fn`` under retry/breaker/budget policy, charging
        ``component``.

        Raises :class:`CircuitOpenError` when the source's breaker rejects
        the call, :class:`BudgetExhaustedError` when the component's budget
        is spent, or the last :class:`WebAccessError` once retries are
        exhausted. Anything else ``fn`` raises (e.g. a ``KeyError``
        programming error) propagates untouched.
        """
        budgeted = component in self._budgets
        breaker = self.breaker_for(source_id) if source_id else None

        if breaker is not None and not breaker.allow():
            self._bump(self.report.breaker_rejections, source_id)
            self._observe("breaker_reject", source=source_id,
                          component=component)
            raise CircuitOpenError(f"breaker open for source {source_id}")

        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if self.budget_exhausted(component):
                limit = self._budgets[component]
                if component not in self.report.budgets_exhausted:
                    self.report.budgets_exhausted.append(component)
                    self._observe("budget_exhausted", component=component,
                                  limit=limit)
                raise BudgetExhaustedError(
                    f"{component} budget of {limit} round trips spent"
                )
            if budgeted:
                self._bump(self.report.budget_spent_by_component, component)
            try:
                result = fn()
            except WebAccessError as exc:
                self._note_fault(component, exc)
                if breaker is not None and breaker.record_failure():
                    self._bump(self.report.breaker_trips, source_id)
                    self._observe("breaker_trip", source=source_id,
                                  component=component)
                    raise CircuitOpenError(
                        f"breaker tripped for source {source_id}"
                    ) from exc
                if attempt + 1 >= retry.max_attempts:
                    self._bump(self.report.giveups_by_component, component)
                    self._observe("giveup", component=component,
                                  attempts=retry.max_attempts)
                    raise
                self.backoff_draws += 1
                seconds = retry.delay(
                    attempt, self._backoff_rng(),
                    rate_limited=isinstance(exc, RateLimitError),
                )
                self._bump(self.report.retries_by_component, component)
                self.report.backoff_seconds_by_component[component] = (
                    self.report.backoff_seconds_by_component.get(component, 0.0)
                    + seconds
                )
                self._observe("retry", component=component, attempt=attempt,
                              backoff_seconds=seconds)
                continue
            if breaker is not None:
                breaker.record_success()
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------ the call layer
    def layer(self, call, proceed):
        """The retry layer of the Web call chain (:mod:`repro.webstack`).

        Runs ``proceed(call)`` under :meth:`call`, numbering each attempt
        in ``call.attempt`` so the fault layer below re-rolls a retried
        fate. A call the policy abandons — retries exhausted, breaker
        open, budget spent — is marked ``degraded`` and answered with the
        neutral element of its kind: no results, zero hits, or an
        "unavailable" page the §4 heuristics classify as a failed probe.
        """
        attempts = itertools.count()

        def attempt():
            call.attempt = next(attempts)
            return proceed(call)

        try:
            return self.call(attempt, source_id=call.source_id,
                             component=call.component)
        except (WebAccessError, CircuitOpenError, BudgetExhaustedError):
            call.degraded = True
            if call.method == "search":
                return []
            if call.method == "submit":
                return ResponsePage(
                    f"deep://{call.source_id}/unavailable", _UNAVAILABLE_TEXT
                )
            return 0

    # ---------------------------------------------------------- internals
    def _backoff_rng(self):
        """The jitter stream for this thread's unit (``()`` outside any
        unit). A per-unit stream starts at position 0 whenever its unit
        runs, so backoff jitter is a pure function of ``(seed, unit, draw
        index within the unit)`` — independent of execution order and
        resume point."""
        unit = current_unit() or ()
        rng = self._unit_rngs.get(unit)
        if rng is None:
            rng = self._unit_rngs[unit] = derive_rng(
                self.config.profile.seed, "resilience", "backoff", *unit)
        return rng

    def _observe(self, event: str, **attrs) -> None:
        """Trace + count one retry-loop decision (no-op without obs)."""
        if self.obs is None:
            return
        self.obs.metrics.counter(
            f"resilience.{_PLURALS.get(event, event + 's')}",
            component=attrs["component"],
        ).inc()
        self.obs.tracer.event(event, **attrs)

    def _note_fault(self, component: str, exc: WebAccessError) -> None:
        self._bump(self.report.faults_by_component, component)
        self._observe("fault", component=component,
                      kind=type(exc).__name__)

    @staticmethod
    def _bump(counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1


#: The page the retry layer serves when a probe is abandoned. Contains
#: explicit failure markers so the §4 heuristics classify it as a failed
#: submission — an unreachable source must never validate a value.
_UNAVAILABLE_TEXT = (
    "Error\n"
    "Service temporarily unavailable. No results could be retrieved.\n"
    "Please try again later."
)
