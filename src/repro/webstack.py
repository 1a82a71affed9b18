"""One call path from WebIQ's components to the simulated Web.

Every Web round trip the paper prices in Figure 8 — a Google query for
Surface or Attr-Surface, a form probe for Attr-Deep — is one :class:`Call`
record travelling down an ordered list of *layers* to the raw
:class:`~repro.surfaceweb.engine.SearchEngine` or
:class:`~repro.deepweb.source.DeepWebSource` method. A layer is a function
``layer(call, proceed)``: it may inspect or annotate the call, answer it
itself, or hand it on with ``proceed(call)``. :class:`Engine` and
:class:`Source` are the facades components talk to; each turns a method
call into a :class:`Call` and runs its layer list.

:func:`build_web_stack` is the only place the layer order is written::

    entry observe     what components ask for          (repro.obs)
    cache             may answer from memory           (repro.perf)
    transport observe what heads for the Web           (repro.obs)
    retry             retry, breaker, budget, degrade  (repro.resilience)
    fault             injected fates                   (repro.resilience)
    substrate         SearchEngine / DeepWebSource

Sources carry only transport observe, retry and fault: probes are
neither cached nor seen at the entry layer. Each layer keeps its logic
and state in its own module; the layers talk to each other only through
the :class:`Call` they share — the fault layer marks ``garbled``, the
retry layer marks ``degraded`` and sets ``attempt``, the cache reads
both. A call record belongs to one call, so concurrent callers of one
stack never see each other's flags.

**Component attribution.** Which WebIQ component a call is spent on
(``surface``, ``attr_surface``, ``attr_deep``) is decided once, here:
the acquirer enters :func:`component_scope` around each phase, and the
facades stamp the active component on every :class:`Call`. The observe
layers label their counters with ``call.component`` and the retry layer
charges budgets and retries to it; no layer keeps a scope of its own.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.deepweb.source import DeepWebSource, ResponsePage
from repro.surfaceweb.engine import (
    DEFAULT_PROXIMITY_WINDOW,
    SearchEngine,
    SearchResult,
)

if TYPE_CHECKING:  # the layer modules import this one for the scope
    from repro.obs.instrument import Observability
    from repro.perf.cache import CacheConfig, QueryCache
    from repro.resilience.client import ResilienceConfig, ResilientClient
    from repro.resilience.faults import FaultInjector

__all__ = [
    "DEFAULT_COMPONENT",
    "Call",
    "Engine",
    "Layer",
    "Source",
    "WebStack",
    "active_component",
    "build_web_stack",
    "component_scope",
]

#: Component of a call made outside any :func:`component_scope`.
DEFAULT_COMPONENT = "web"

_scope = threading.local()


@contextmanager
def component_scope(name: str) -> Iterator[None]:
    """Spend this thread's Web calls inside the block on component ``name``.

    Thread-local, so threads sharing one stack cannot race each other's
    budget attribution.
    """
    previous = getattr(_scope, "component", None)
    _scope.component = name
    try:
        yield
    finally:
        _scope.component = previous


def active_component() -> str:
    """The component this thread's Web calls are spent on right now."""
    return getattr(_scope, "component", None) or DEFAULT_COMPONENT


@dataclass
class Call:
    """One round trip on its way down the layers."""

    #: the raw substrate the call ends at
    substrate: Any
    #: the substrate method: ``search``, ``num_hits``,
    #: ``num_hits_proximity`` or ``submit``
    method: str
    #: the method's positional arguments, defaults filled in
    args: tuple
    #: the probed source's interface id; ``None`` for engine calls
    source_id: Optional[str] = None
    #: the component the call is spent on, stamped by the facade
    component: str = DEFAULT_COMPONENT
    #: 0-based retry attempt, set by the retry layer
    attempt: int = 0
    #: the answer is the retry layer's neutral stand-in (call abandoned)
    degraded: bool = False
    #: the answer is a truncated payload (injected ``garbled`` fault)
    garbled: bool = False

    @property
    def kind(self) -> str:
        """``engine`` or ``source`` — the substrate label metrics use."""
        return "engine" if self.source_id is None else "source"

    @property
    def round_trips(self) -> int:
        """The raw substrate's round-trip counter, as of now."""
        if self.source_id is None:
            return self.substrate.query_count
        return self.substrate.probe_count

    def charge_round_trip(self) -> None:
        """Count a round trip that failed before the substrate answered."""
        if self.source_id is None:
            self.substrate.query_count += 1
        else:
            self.substrate.probe_count += 1


Layer = Callable[[Call, Callable[[Call], Any]], Any]


def _substrate(call: Call) -> Any:
    # Looked up per call, so a method patched on the substrate class
    # (profilers, tracers) sees every round trip.
    return getattr(call.substrate, call.method)(*call.args)


def _chain(layers: Sequence[Layer]) -> Callable[[Call], Any]:
    """Run ``layers[0](call, proceed)``, where ``proceed`` runs the rest."""
    proceed: Callable[[Call], Any] = _substrate
    for layer in reversed(layers):
        proceed = _bind(layer, proceed)
    return proceed


def _bind(layer: Layer, below: Callable[[Call], Any]) -> Callable[[Call], Any]:
    return lambda call: layer(call, below)


class _Facade:
    def __init__(self, substrate: Any, layers: Sequence[Layer] = ()) -> None:
        self.substrate = substrate
        self._run = _chain(layers)


class Engine(_Facade):
    """The search-engine facade: Surface and Attr-Surface query here."""

    @property
    def query_count(self) -> int:
        return self.substrate.query_count

    def search(self, query: str, max_results: int = 10) -> List[SearchResult]:
        return self._call("search", (query, max_results))

    def num_hits(self, query: str) -> int:
        return self._call("num_hits", (query,))

    def num_hits_proximity(self, phrase_a: str, phrase_b: str,
                           window: int = DEFAULT_PROXIMITY_WINDOW) -> int:
        return self._call("num_hits_proximity", (phrase_a, phrase_b, window))

    def _call(self, method: str, args: tuple) -> Any:
        return self._run(Call(self.substrate, method, args,
                              component=active_component()))


class Source(_Facade):
    """The Deep-Web source facade: Attr-Deep probes here."""

    @property
    def interface(self):
        return self.substrate.interface

    @property
    def interface_id(self) -> str:
        return self.substrate.interface.interface_id

    @property
    def probe_count(self) -> int:
        return self.substrate.probe_count

    def recognizes(self, attribute_name: str, value: str) -> bool:
        return self.substrate.recognizes(attribute_name, value)

    def submit(self, values: Mapping[str, str]) -> ResponsePage:
        return self._run(Call(self.substrate, "submit", (values,),
                              source_id=self.interface_id,
                              component=active_component()))


@dataclass
class WebStack:
    """The facades of one run plus the state of its active layers."""

    engine: Engine
    sources: Dict[str, Source]
    #: retry/breaker/budget policy and degradation report (resilient runs)
    client: Optional[ResilientClient] = None
    #: injected fault fates and per-source draw counters (resilient runs)
    faults: Optional[FaultInjector] = None
    #: the query cache's LRU, stats and op log (cached runs)
    cache: Optional[QueryCache] = None


def build_web_stack(
    engine: SearchEngine,
    sources: Mapping[str, DeepWebSource],
    *,
    resilience: Optional[ResilienceConfig] = None,
    cache: Optional[CacheConfig] = None,
    obs: Optional[Observability] = None,
) -> WebStack:
    """Wrap the raw substrates in the active layers, in the one order.

    Only active layers are included: without ``resilience``, ``cache``
    and ``obs`` the facades call the substrates directly.
    """
    from repro.obs.instrument import (
        LAYER_ENTRY,
        LAYER_TRANSPORT,
        observe_layer,
    )
    from repro.perf.cache import QueryCache
    from repro.resilience.client import ResilientClient
    from repro.resilience.faults import FaultInjector

    client = faults = query_cache = None
    entry: List[Layer] = []  # engine only: probes are never cached
    transport: List[Layer] = []  # below the cache: heads for the Web
    if obs is not None:
        entry.append(observe_layer(obs, LAYER_ENTRY))
    if cache is not None:
        query_cache = QueryCache(cache.max_entries, obs=obs)
        entry.append(query_cache.layer)
    if obs is not None:
        transport.append(observe_layer(obs, LAYER_TRANSPORT))
    if resilience is not None:
        client = ResilientClient(resilience, obs=obs)
        faults = FaultInjector(resilience.profile,
                               on_fault=client.note_injected_fault)
        transport += [client.layer, faults.layer]
    return WebStack(
        engine=Engine(engine, entry + transport),
        sources={
            source_id: Source(source, transport)
            for source_id, source in sources.items()
        },
        client=client,
        faults=faults,
        cache=query_cache,
    )
