"""The traced run: spans and counts recorded around calls into each layer.

Nothing here edits ``src/``. :func:`install` replaces public functions
and methods with thin wrappers for the duration of a traced run, and
:meth:`Recorder.restore` puts the originals back. Module-level functions
are wrapped in the *calling* module's namespace, because callers import
them by name (``repro.core.acquisition.values_similar`` is a different
binding from ``repro.matching.similarity.values_similar``).

Each span records its name, start, end, parent span and the service
request it ran for. Spans stay in memory until :meth:`Recorder.write`.
Functions called about 10^5 times per run or more are not spanned:
``values_similar`` and ``infer_type`` are counted, and
``similarity_components`` is counted and timed.

``trace.overhead_s`` estimates what the wrappers themselves cost: the
wrapped calls of each kind (span, timed, counted) times that kind's
per-call cost, measured in this process by :func:`wrapper_costs`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.acquisition as acquisition_mod
import repro.datasets.dataset as dataset_mod
import repro.matching.clustering as clustering_mod
import repro.matching.similarity as similarity_mod
import repro.registry.assimilate as assimilate_mod
import repro.service.server as server_mod
from repro.core.attr_deep import AttrDeepValidator
from repro.core.attr_surface import AttrSurfaceValidator
from repro.core.surface import SurfaceDiscoverer
from repro.deepweb.source import DeepWebSource
from repro.matching.clustering import IceQMatcher
from repro.perf.cache import CachePreload
from repro.registry.store import RegistryStore
from repro.service.server import MatchingService
from repro.surfaceweb.engine import SearchEngine

now = time.perf_counter


class Recorder:
    """In-memory span and count store; inactive until :attr:`active`."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id or None)
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.gauges: Dict[str, float] = defaultdict(float)
        #: wrapper kind ("span", "timed" or "count") of each name
        self.kinds: Dict[str, str] = {}
        self.active = False
        self._open: List[list] = []  # [span index, start, child time]
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrappers
    def _patch(self, owner: Any, attr: str, wrapper: Any,
               name: str, kind: str) -> None:
        self.kinds[name] = kind
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable[["Recorder", Any], None]] = None) -> None:
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent, None))
            self._depth[name] += 1
            frame = [index, now(), 0.0]
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self._open.pop()
                self._depth[name] -= 1
                duration = end - frame[1]
                self.spans[index] = (name, frame[1], end, parent, None)
                self.calls[name] += 1
                self.self_time[name] += duration - frame[2]
                if not self._depth[name]:
                    self.busy[name] += duration
                if self._open:
                    self._open[-1][2] += duration
            if observe is not None:
                observe(self, result)
            return result

        self._patch(owner, attr,
                    classmethod(wrapper) if is_classmethod else wrapper,
                    name, "span")

    def timed(self, owner: Any, attr: str, name: str) -> None:
        """Count and time a hot leaf call without recording a span."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = now() - start
                self.calls[name] += 1
                self.busy[name] += duration
                if self._open:
                    self._open[-1][2] += duration

        self._patch(owner, attr, wrapper, name, "timed")

    def count(self, owner: Any, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper, name, "count")

    def tag(self, first: int, request: str) -> None:
        """Attribute spans from index ``first`` on to service ``request``
        (the client learns the id only when ``submit`` returns)."""
        for index in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[index]
            self.spans[index] = (name, start, end, parent, request)

    def overhead_s(self, costs: Dict[str, float]) -> float:
        """Estimated seconds the active wrappers added to the run."""
        return sum(calls * costs[self.kinds[name]]
                   for name, calls in self.calls.items())

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output
    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans,
                       "calls": dict(sorted(self.calls.items()))}, handle)


def wrapper_costs(calls: int = 20000, repeats: int = 7) -> Dict[str, float]:
    """Seconds one active wrapper of each kind adds to a call: the median
    over ``repeats`` of the timed difference between ``calls`` wrapped
    and ``calls`` bare calls of a no-op."""
    probe = types.SimpleNamespace(noop=lambda: None)
    bare = probe.noop
    costs = {}
    for kind in ("span", "timed", "count"):
        rec = Recorder()
        getattr(rec, kind)(probe, "noop", "probe")
        wrapped = probe.noop
        rec.active = True
        samples = []
        for _ in range(repeats):
            rec.spans.clear()
            start = now()
            for _ in range(calls):
                bare()
            middle = now()
            for _ in range(calls):
                wrapped()
            samples.append((now() - middle - (middle - start)) / calls)
        rec.restore()
        costs[kind] = max(0.0, statistics.median(samples))
    return costs


def _note_add(rec: Recorder, record) -> None:
    rec.gauges["registry.evaluated"] += record.evaluated
    rec.gauges["registry.blocked"] += record.blocked


def _note_capture(rec: Recorder, preload) -> None:
    rec.gauges["perf.preload.entries"] = max(
        rec.gauges["perf.preload.entries"], preload.n_entries)


def install() -> Recorder:
    """Wrap every traced boundary; returns the (inactive) recorder."""
    rec = Recorder()
    rec.span(dataset_mod, "build_domain_dataset", "datasets.build")
    rec.span(server_mod, "build_domain_dataset", "datasets.build")
    rec.span(acquisition_mod.InstanceAcquirer, "acquire",
             "core.acquisition.acquire")
    rec.count(acquisition_mod, "values_similar",
              "core.acquisition.values_similar")
    rec.span(SurfaceDiscoverer, "discover", "core.surface.discover")
    rec.span(AttrSurfaceValidator, "build_classifier",
             "core.attr_surface.build_classifier")
    rec.span(AttrSurfaceValidator, "validate", "core.attr_surface.validate")
    rec.span(AttrDeepValidator, "validate", "core.attr_deep.validate")
    for module in (similarity_mod, clustering_mod, assimilate_mod):
        rec.timed(module, "similarity_components", "matching.similarity")
    rec.count(similarity_mod, "infer_type", "matching.types.infer_type")
    rec.span(IceQMatcher, "match", "matching.clustering.match")
    for module in (clustering_mod, assimilate_mod):
        rec.span(module, "agglomerate", "matching.clustering.agglomerate")
    for method in ("search", "num_hits", "num_hits_proximity"):
        rec.span(SearchEngine, method, f"surfaceweb.{method}")
    rec.span(DeepWebSource, "submit", "deepweb.submit")
    rec.span(CachePreload, "apply", "perf.preload.apply")
    rec.span(CachePreload, "capture", "perf.preload.capture",
             observe=_note_capture)
    rec.span(assimilate_mod.RegistryAssimilator, "assimilate",
             "registry.assimilate", observe=_note_add)
    rec.span(RegistryStore, "save", "registry.save")
    rec.span(MatchingService, "submit", "service.submit")
    rec.span(MatchingService, "run_pending", "service.run_pending")
    rec.span(server_mod, "run_result_to_dict", "service.export")
    return rec


#: the traced run's metrics, in BENCHMARK.json order, with units
PER_LAYER_UNITS = {
    "datasets.build.busy_s": "s",
    "core.acquisition.acquire.busy_s": "s",
    "core.acquisition.acquire.self_s": "s",
    "core.acquisition.values_similar.calls": "count",
    "core.surface.discover.calls": "count",
    "core.surface.discover.busy_s": "s",
    "core.attr_surface.build_classifier.busy_s": "s",
    "core.attr_surface.validate.busy_s": "s",
    "core.attr_deep.validate.busy_s": "s",
    "matching.similarity.evaluations": "count",
    "matching.similarity.busy_s": "s",
    "matching.types.infer_type.per_evaluation": "ratio",
    "matching.clustering.match.busy_s": "s",
    "matching.clustering.agglomerate.busy_s": "s",
    "matching.clustering.agglomerate.calls": "count",
    "surfaceweb.queries": "count",
    "surfaceweb.busy_s": "s",
    "deepweb.probes": "count",
    "deepweb.busy_s": "s",
    "perf.cache.hit_ratio": "ratio",
    "perf.cache.lookups": "count",
    "perf.preload.apply.busy_s": "s",
    "perf.preload.capture.busy_s": "s",
    "perf.preload.entries": "count",
    "registry.assimilate.busy_s": "s",
    "registry.assimilate.self_s": "s",
    "registry.save.busy_s": "s",
    "registry.blocked_share": "ratio",
    "service.submit.busy_s": "s",
    "service.export.busy_s": "s",
    "service.run_pending.self_s": "s",
    "service.warm_share": "ratio",
    "service.raised": "count",
    "service.mismatched": "count",
    "service.law_violations": "count",
    "trace.overhead_s": "s",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(rec: Recorder, extra: Dict[str, float]) -> Dict[str, float]:
    """Fold the recorder (plus the workload's own counts) into metrics.

    ``extra`` supplies what the workload measured itself: cache lookups
    and hits, the service's warm share and failure counts, and the
    tracing overhead.
    """
    engine = ("surfaceweb.search", "surfaceweb.num_hits",
              "surfaceweb.num_hits_proximity")
    evaluations = rec.calls["matching.similarity"]
    values = {
        "datasets.build.busy_s": rec.busy["datasets.build"],
        "core.acquisition.acquire.busy_s":
            rec.busy["core.acquisition.acquire"],
        "core.acquisition.acquire.self_s":
            rec.self_time["core.acquisition.acquire"],
        "core.acquisition.values_similar.calls":
            rec.calls["core.acquisition.values_similar"],
        "core.surface.discover.calls": rec.calls["core.surface.discover"],
        "core.surface.discover.busy_s": rec.busy["core.surface.discover"],
        "core.attr_surface.build_classifier.busy_s":
            rec.busy["core.attr_surface.build_classifier"],
        "core.attr_surface.validate.busy_s":
            rec.busy["core.attr_surface.validate"],
        "core.attr_deep.validate.busy_s": rec.busy["core.attr_deep.validate"],
        "matching.similarity.evaluations": evaluations,
        "matching.similarity.busy_s": rec.busy["matching.similarity"],
        "matching.types.infer_type.per_evaluation": _share(
            rec.calls["matching.types.infer_type"], evaluations),
        "matching.clustering.match.busy_s":
            rec.busy["matching.clustering.match"],
        "matching.clustering.agglomerate.busy_s":
            rec.busy["matching.clustering.agglomerate"],
        "matching.clustering.agglomerate.calls":
            rec.calls["matching.clustering.agglomerate"],
        "surfaceweb.queries": sum(rec.calls[name] for name in engine),
        "surfaceweb.busy_s": sum(rec.busy[name] for name in engine),
        "deepweb.probes": rec.calls["deepweb.submit"],
        "deepweb.busy_s": rec.busy["deepweb.submit"],
        "perf.cache.hit_ratio": _share(extra.get("cache_hits", 0),
                                       extra.get("cache_lookups", 0)),
        "perf.cache.lookups": extra.get("cache_lookups", 0),
        "perf.preload.apply.busy_s": rec.busy["perf.preload.apply"],
        "perf.preload.capture.busy_s": rec.busy["perf.preload.capture"],
        "perf.preload.entries": rec.gauges["perf.preload.entries"],
        "registry.assimilate.busy_s": rec.busy["registry.assimilate"],
        "registry.assimilate.self_s": rec.self_time["registry.assimilate"],
        "registry.save.busy_s": rec.busy["registry.save"],
        "registry.blocked_share": _share(
            rec.gauges["registry.blocked"],
            rec.gauges["registry.blocked"] + rec.gauges["registry.evaluated"]),
        "service.submit.busy_s": rec.busy["service.submit"],
        "service.export.busy_s": rec.busy["service.export"],
        "service.run_pending.self_s": rec.self_time["service.run_pending"],
        "service.warm_share": extra.get("warm_share", 0.0),
        "service.raised": extra.get("raised", 0),
        "service.mismatched": extra.get("mismatched", 0),
        "service.law_violations": extra.get("law_violations", 0),
        "trace.overhead_s": extra["trace_overhead_s"],
    }
    assert list(values) == list(PER_LAYER_UNITS)
    return values
