"""Deterministic fault injection for the simulated Web substrates.

The paper's WebIQ ran against the real 2006 Web: Google round trips that
time out, Deep-Web forms that error, rate-limit, or come back truncated.
The offline reproduction's substrates answer every call instantly and
perfectly, so none of the resilience the original system implicitly needed
is exercised. This module restores that hostility — deterministically.

:class:`FaultInjector` is the fault layer of the Web call chain
(:mod:`repro.webstack`), just above the raw substrates. Driven by a
:class:`FaultProfile` and :func:`repro.util.rng.derive_rng`, it converts a
configurable fraction of calls into failures:

- ``timeout``   — the call raises :class:`~repro.util.errors.WebTimeoutError`;
- ``transient`` — a 5xx-style :class:`~repro.util.errors.TransientWebError`;
- ``rate_limit``— a 429-style :class:`~repro.util.errors.RateLimitError`;
- ``garbled``   — the call *succeeds* but the payload is truncated
  mid-transfer, exercising the downstream parsing heuristics instead of the
  retry loop.

Every faulted call still increments the substrate's query/probe
counter: the round trip happened and must be charged to Figure 8's overhead
accounts, exactly as a failed Google query still cost the paper 0.1-0.5 s.

**Fault determinism.** For the search engine, a call's fate is a pure
function of ``(profile seed, scope, method, arguments, retry attempt)``:
whether a given query faults depends only on the query itself and on how
many times it has been retried within one resilient call — never on what
other queries were issued before it. Re-issuing a query replays the same
fate sequence. This keeps fault behaviour stable under call reordering and
composes with the :mod:`repro.perf` cache: answering a repeated query from
the cache cannot shift the fate of the queries that still reach the
engine, so cached and uncached runs see the same Web. Deep-Web sources
keep sequential streams (probes are stateful submissions), partitioned
per ``(source, checkpoint unit)``: inside a unit scope (see
:mod:`repro.exec.context`) the stream is derived from the unit key and
starts at position 0, so a unit's fates are independent of which units
ran before it and of where a resumed run picks up — no fast-forwarding
needed. Outside any unit (direct use in tests) the unit key is ``()``,
which derives the plain per-source stream. With ``fault_rate=0.0`` the
layer is an exact pass-through: results, counters and downstream RNG
streams are bit-identical to the bare substrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.deepweb.source import ResponsePage
from repro.surfaceweb.engine import SearchResult
from repro.util.errors import (
    PreemptionError,
    RateLimitError,
    TransientWebError,
    WebAccessError,
    WebTimeoutError,
)
from repro.util.rng import derive_rng

from repro.exec.context import current_unit

__all__ = [
    "FaultKind",
    "FaultProfile",
    "FaultInjector",
    "KillSwitch",
    "PreemptionPoint",
    "error_for_fault",
    "garble_text",
]


class FaultKind(enum.Enum):
    """Failure modes a flaky substrate can inject."""

    TIMEOUT = "timeout"
    TRANSIENT = "transient"
    RATE_LIMIT = "rate_limit"
    GARBLED = "garbled"


#: Fixed draw order — iteration over the enum is insertion-ordered, but an
#: explicit tuple makes the weighted-pick order an API guarantee.
_KIND_ORDER = (
    FaultKind.TIMEOUT,
    FaultKind.TRANSIENT,
    FaultKind.RATE_LIMIT,
    FaultKind.GARBLED,
)


@dataclass(frozen=True)
class FaultProfile:
    """How often and in which ways simulated Web access fails.

    ``fault_rate`` is the probability that any single call faults; the
    ``*_weight`` fields set the relative likelihood of each
    :class:`FaultKind` among faulted calls. ``seed`` roots the fault
    streams (independent of the dataset seed, so enabling faults
    never perturbs corpus or interface generation).
    """

    fault_rate: float = 0.0
    timeout_weight: float = 1.0
    transient_weight: float = 1.0
    rate_limit_weight: float = 1.0
    garbled_weight: float = 1.0
    seed: int = 0
    #: deterministic process death: abort the run right after journal
    #: boundary N (requires checkpointing; see :class:`KillSwitch`).
    #: ``None`` (default) never preempts. Like fault fates, the kill point
    #: is part of the *injected hostility*, not of the run's identity —
    #: a resumed run deliberately drops it.
    preempt_at: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be within [0, 1], got {self.fault_rate}")
        weights = self._weights()
        if any(w < 0 for w in weights):
            raise ValueError("fault weights must be non-negative")
        if self.fault_rate > 0 and not sum(weights):
            raise ValueError("a positive fault_rate needs a positive weight")
        if self.preempt_at is not None and self.preempt_at < 0:
            raise ValueError("preempt_at must be non-negative")

    def kill_switch(self) -> Optional["KillSwitch"]:
        """The profile's :class:`KillSwitch`, or ``None`` if it never kills."""
        if self.preempt_at is None:
            return None
        return KillSwitch(self.preempt_at)

    def _weights(self) -> List[float]:
        return [
            self.timeout_weight,
            self.transient_weight,
            self.rate_limit_weight,
            self.garbled_weight,
        ]

    def draw(self, rng) -> Optional[FaultKind]:
        """Decide the fate of one call: ``None`` (healthy) or a fault kind."""
        if self.fault_rate <= 0.0:
            return None
        if rng.random() >= self.fault_rate:
            return None
        weights = self._weights()
        pick = rng.random() * sum(weights)
        cumulative = 0.0
        for kind, weight in zip(_KIND_ORDER, weights):
            cumulative += weight
            if pick < cumulative:
                return kind
        return _KIND_ORDER[-1]  # guard against float round-off


class KillSwitch:
    """Deterministic preemption at a chosen journal boundary.

    The checkpoint layer calls :meth:`check` with each journal record's
    index immediately *after* the record is durably on disk; when the
    index matches ``kill_at`` the switch raises
    :class:`~repro.util.errors.PreemptionError`, simulating the process
    dying at exactly that boundary — the worst-case crash the journal's
    write-ahead discipline is designed to survive. Use
    :meth:`sweep_point` to pick a boundary pseudo-randomly from a seed,
    the same derived-stream style as fault fates.
    """

    def __init__(self, kill_at: int) -> None:
        if kill_at < 0:
            raise ValueError("kill_at must be non-negative")
        self.kill_at = kill_at
        #: True once the switch has fired (a fired switch stays quiet, so
        #: a resumed run re-armed by mistake cannot kill itself twice at
        #: a boundary that no longer exists).
        self.fired = False

    @staticmethod
    def sweep_point(seed: int, n_boundaries: int) -> int:
        """A seeded kill point in ``[0, n_boundaries)`` for sweep tests."""
        if n_boundaries < 1:
            raise ValueError("n_boundaries must be at least 1")
        return derive_rng(seed, "preemption").randrange(n_boundaries)

    def check(self, boundary: int) -> None:
        """Raise :class:`PreemptionError` when ``boundary`` is the kill point."""
        if self.fired or boundary != self.kill_at:
            return
        self.fired = True
        raise PreemptionError(
            f"run preempted at journal boundary {boundary}"
        )


#: The ISSUE-facing alias: a *preemption point* is the arming side of the
#: same mechanism (where may the run die?), the kill switch the firing side.
PreemptionPoint = KillSwitch


def error_for_fault(kind: FaultKind, where: str) -> WebAccessError:
    """The exception a raising fault kind surfaces as."""
    if kind is FaultKind.TIMEOUT:
        return WebTimeoutError(f"{where}: no response within deadline")
    if kind is FaultKind.TRANSIENT:
        return TransientWebError(f"{where}: HTTP 502 bad gateway")
    if kind is FaultKind.RATE_LIMIT:
        return RateLimitError(f"{where}: HTTP 429 rate limit exceeded")
    raise ValueError(f"{kind} does not raise")  # pragma: no cover


def garble_text(text: str) -> str:
    """Simulate a connection dropped mid-transfer: keep a prefix only."""
    return text[: len(text) // 2]


class FaultInjector:
    """The fault layer: draws each call's fate from a :class:`FaultProfile`.

    Raising fates charge the round trip to the substrate's counter (the
    trip happened) and raise a :class:`~repro.util.errors.WebAccessError`
    subclass; ``garbled`` lets the call through, truncates the payload and
    marks the call ``garbled`` so the cache above refuses to keep it.

    Engine fates are derived fresh per call from the call's content and
    its retry attempt (see module docs). Source fates come from one
    sequential stream per ``(source, unit)``, where the unit is
    :func:`~repro.exec.context.current_unit` or ``()`` outside any unit.
    ``draws`` counts the fates drawn per source — not the same as
    ``probe_count``: a submission rejected for an unknown attribute name
    draws a fate but counts no probe. It is journaled for accounting;
    per-unit streams need no fast-forward.
    """

    def __init__(
        self,
        profile: FaultProfile,
        on_fault: Optional[Callable[[FaultKind], None]] = None,
    ) -> None:
        self.profile = profile
        self.on_fault = on_fault
        self.draws: Dict[str, int] = {}
        #: ``(source_id, *unit)`` -> that stream
        self._source_rngs: Dict[tuple, object] = {}

    def layer(self, call, proceed):
        if call.source_id is None:
            rng = derive_rng(self.profile.seed, "faults", "engine",
                             call.method, call.attempt, *call.args)
            where = f"search engine {call.method}"
        else:
            rng = self._source_rng(call.source_id)
            self.draws[call.source_id] = self.draws.get(call.source_id, 0) + 1
            where = f"source {call.source_id} {call.method}"
        kind = self.profile.draw(rng)
        if kind is None:
            return proceed(call)
        if self.on_fault is not None:
            self.on_fault(kind)
        if kind is not FaultKind.GARBLED:
            call.charge_round_trip()  # the failed round trip still happened
            raise error_for_fault(kind, where)
        call.garbled = True
        return _garble(call.method, proceed(call))

    def _source_rng(self, source_id: str):
        key = (source_id, *(current_unit() or ()))
        rng = self._source_rngs.get(key)
        if rng is None:
            rng = self._source_rngs[key] = derive_rng(
                self.profile.seed, "faults", "source", *key)
        return rng


def _garble(method: str, answer):
    """What a payload truncated mid-transfer reads as."""
    if method == "search":
        return [
            SearchResult(r.doc_id, r.url, r.title, garble_text(r.snippet))
            for r in answer
        ]
    if method == "submit":
        return ResponsePage(answer.url, garble_text(answer.text))
    # A truncated hit-count page reads as "no evidence", not garbage.
    return 0
