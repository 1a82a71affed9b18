"""Observability plumbing: the per-run bundle and the observe layers.

:class:`Observability` carries one run's :class:`~repro.obs.trace.Tracer`,
:class:`~repro.obs.metrics.MetricsRegistry` and provenance recorder.

:func:`observe_layer` builds the pass-through layers inserted at two
depths of the Web call chain (:mod:`repro.webstack`)::

    observe(layer="entry")          # what components ask for
      cache                         # may answer from memory
        observe(layer="transport")  # what escapes the cache
          retry -> fault -> SearchEngine / DeepWebSource

Each observed call writes one ``web.calls`` / ``web.round_trips``
counter bump and, with ``trace_calls``, one ``web_call`` trace event,
labelled with the layer, the substrate and the component the facade
stamped on the :class:`~repro.webstack.Call`. Round trips are measured by
differencing the raw substrate's ``query_count`` / ``probe_count`` around
the call, so retries count and cache hits do not. DESIGN.md §3 maps
which of these views each law of :mod:`repro.obs.invariants` audits.

The layers are strictly read-only observers: they consume no randomness,
swallow no exceptions and leave the call record untouched, so cached and
resilient behaviour is bit-identical with or without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import (
    DEFAULT_PROVENANCE_CAPACITY,
    ProvenanceRecorder,
)
from repro.obs.trace import Tracer
from repro.util.counters import WorkCounters

__all__ = [
    "ObsConfig",
    "Observability",
    "observe_layer",
    "LAYER_ENTRY",
    "LAYER_TRANSPORT",
]

#: Label of the observe layer components talk to (above any cache).
LAYER_ENTRY = "entry"
#: Label of the observe layer directly above the retry layer / raw
#: substrate (below any cache): everything here goes to the "Web".
LAYER_TRANSPORT = "transport"


@dataclass(frozen=True)
class ObsConfig:
    """Pipeline-facing observability knobs (attach to ``WebIQConfig.obs``).

    ``trace_calls`` controls the per-call trace events (the bulkiest part
    of a trace); metrics counters and phase spans are always recorded.
    ``provenance`` turns the decision-provenance recorder on (default) or
    off; ``provenance_capacity`` bounds each of its ring buffers so an
    arbitrarily large run cannot exhaust memory. ``profile`` additionally
    collects hot-path work counters (:mod:`repro.util.counters`) for the
    span profiler (:mod:`repro.obs.profile`); it is strictly read-only —
    run exports are bit-identical with it on or off.
    """

    trace_calls: bool = True
    provenance: bool = True
    provenance_capacity: int = DEFAULT_PROVENANCE_CAPACITY
    profile: bool = False


class Observability:
    """One run's tracer + metrics registry + provenance recorder."""

    def __init__(
        self,
        config: ObsConfig = ObsConfig(),
        clock_seconds=None,
    ) -> None:
        self.config = config
        self.tracer = Tracer(clock_seconds)
        self.metrics = MetricsRegistry()
        self.provenance: Optional[ProvenanceRecorder] = (
            ProvenanceRecorder(config.provenance_capacity)
            if config.provenance else None
        )
        #: Hot-path work counters, collected only when profiling: the
        #: pipeline installs these via ``repro.util.counters.collecting``
        #: around the profiled region.
        self.counters: Optional[WorkCounters] = (
            WorkCounters() if config.profile else None
        )

    # ------------------------------------------------------------ recording
    def record_call(
        self,
        layer: str,
        substrate: str,
        method: str,
        component: str,
        round_trips: int,
        **attrs: Any,
    ) -> None:
        """One observed Web-stack call: a counter bump and (optionally) a
        trace event, attributed to ``component``."""
        self.metrics.counter(
            "web.calls", layer=layer, substrate=substrate, component=component
        ).inc()
        self.metrics.counter(
            "web.round_trips",
            layer=layer,
            substrate=substrate,
            component=component,
        ).inc(round_trips)
        if self.config.trace_calls:
            self.tracer.event(
                "web_call",
                layer=layer,
                substrate=substrate,
                method=method,
                component=component,
                round_trips=round_trips,
                **attrs,
            )

    def summary(self) -> str:
        """One CLI-ready line for the run's trace + metrics volume."""
        line = (
            f"observability: {self.tracer.n_spans} spans, "
            f"{self.tracer.n_events} events; {self.metrics.summary()}"
        )
        if self.provenance is not None:
            line += f"; {self.provenance.summary()}"
        return line


def observe_layer(obs: Observability, layer: str):
    """An observe layer of the Web call chain, labelled ``layer``.

    Round trips are measured by differencing the raw substrate's counter
    around the call, so a cache hit below reports 0 and a retried call
    reports every attempt. A call that raises is not recorded.
    """
    def observe(call, proceed):
        before = call.round_trips
        result = proceed(call)
        attrs = {} if call.source_id is None else {"source": call.source_id}
        obs.record_call(layer, call.kind, call.method, call.component,
                        call.round_trips - before, **attrs)
        return result

    return observe
