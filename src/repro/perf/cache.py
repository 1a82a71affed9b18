"""Shared query-result caching for the Web substrates.

Search-engine round trips dominate WebIQ's cost model (paper §5, Figure 8),
and the same queries recur constantly: every interface with an "Author"
attribute issues the same eight extraction queries, every classifier
trained for a concept re-scores the same popular instances, and the
Attr-Surface train/predict passes re-ask the marginals the Surface phase
already asked. This module makes that redundancy free:

- :class:`QueryCache` — the cache layer of the Web call chain
  (:mod:`repro.webstack`), memoising ``search`` / ``num_hits`` /
  ``num_hits_proximity`` by normalised query key in a bounded LRU, with
  hit/miss/eviction accounting (:class:`CacheStats`);
- :class:`ValidationCache` — the run-wide memo of marginal and joint hit
  counts that every :class:`~repro.core.surface.WebValidator` of one
  pipeline run shares, so phrase/candidate/joint counts are reused across
  attributes, interfaces, and classifier training vs. prediction;
- :class:`CacheConfig` — the pipeline-facing knobs.

**Layering.** The cache sits *above* the resilience layers::

    entry observe -> cache -> transport observe -> retry -> fault -> engine

A cache hit therefore never reaches :class:`~repro.resilience.ResilientClient`:
it consumes no query budget, charges no retry or backoff accounting, and
adds nothing to Figure 8's overhead — exactly the behaviour of a real
system answering from its own cache instead of the network.

**Only successful answers are cached.** A degraded answer (retries
exhausted, breaker open, budget spent — the retry layer's neutral
``[]``/``0``) and a garbled answer (truncated payload that slipped through
as a "success") describe the Web's mood, not the query's answer; caching
one would pin a transient failure for the rest of the run. The layers
below mark both on the call record (``call.degraded``, ``call.garbled``),
and the cache simply declines to store.
"""

from __future__ import annotations

import copy
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "CacheConfig",
    "CachePreload",
    "CacheStats",
    "LRUCache",
    "QueryCache",
    "ValidationCache",
    "normalize_query",
]

#: Default LRU capacity: comfortably holds every distinct query of a
#: 20-interface domain run while still bounding a long-lived service.
DEFAULT_CACHE_ENTRIES = 65536


def normalize_query(query: str) -> str:
    """Canonical cache-key form of a query string.

    Case and surrounding/internal whitespace runs are insignificant to the
    engine (the parser and tokenizer lower-case every term), so queries
    differing only there share one cache entry.
    """
    return " ".join(query.split()).lower()


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache's lifetime."""

    max_entries: int = DEFAULT_CACHE_ENTRIES
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    #: answers seen but not stored (degraded / garbled — see module docs)
    uncacheable: int = 0
    #: per-query-kind hit/miss split ("search", "num_hits", "proximity")
    hits_by_kind: Dict[str, int] = field(default_factory=dict)
    misses_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def note_hit(self, kind: str) -> None:
        self.hits += 1
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1

    def note_miss(self, kind: str) -> None:
        self.misses += 1
        self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1

    def summary(self) -> str:
        """One CLI-ready line, mirroring the degradation report's tone."""
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.evictions} evictions, "
            f"{self.uncacheable} uncacheable"
        )

    # -------------------------------------------------------------- codec
    #: the fields :meth:`to_dict` carries (``max_entries`` is config, not
    #: state — it travels with the run, not the journal)
    _CODEC_FIELDS = ("hits", "misses", "evictions", "stores", "uncacheable",
                     "hits_by_kind", "misses_by_kind")

    def to_dict(self) -> Dict[str, Any]:
        """The counters as of now, JSON-ready: the one codec both the
        checkpoint journal and the run export write."""
        return {name: copy.copy(getattr(self, name))
                for name in self._CODEC_FIELDS}

    def load_dict(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`to_dict`, in place (the LRU counts its
        evictions into this very object)."""
        for name in self._CODEC_FIELDS:
            setattr(self, name, copy.copy(payload[name]))


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Reads refresh recency; writes beyond ``max_entries`` evict from the
    cold end. Eviction counts flow into the attached :class:`CacheStats`.
    """

    def __init__(self, max_entries: int, stats: Optional[CacheStats] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.stats = stats if stats is not None else CacheStats(max_entries)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key not in self._data:
            return default
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        self.stats.stores += 1
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used (for tests/inspection)."""
        return list(self._data)

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Entries from least- to most-recently used (snapshot support)."""
        return list(self._data.items())

    # --------------------------------------------------- checkpoint support
    def touch(self, key: Hashable) -> None:
        """Replay a historical hit: refresh recency without stats.

        The counters were already accounted when the hit happened in the
        killed process (and come back via the journaled stats snapshot);
        replay must only reproduce the recency ordering.
        """
        if key not in self._data:
            raise KeyError(key)
        self._data.move_to_end(key)

    def seed(self, key: Hashable, value: Any) -> None:
        """Replay a historical store: insert (evicting if full), no stats."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)


@dataclass(frozen=True)
class CacheConfig:
    """Pipeline-facing cache knobs (attach to ``WebIQConfig.cache``)."""

    max_entries: int = DEFAULT_CACHE_ENTRIES

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")


class QueryCache:
    """The cache layer of the Web call chain: a bounded LRU of answers.

    Its :meth:`layer` memoises engine calls by normalised query key;
    components keep calling ``search`` / ``num_hits`` /
    ``num_hits_proximity`` on the engine facade exactly as before. A hit
    never reaches the layers below, so the engine's ``query_count`` keeps
    counting *real* round trips only — cache hits are free by
    construction, which is what keeps Figure 8's overhead model honest.

    ``obs``, when given, is a :class:`~repro.obs.Observability` bundle;
    every lookup outcome then also bumps its ``cache.lookups`` /
    ``cache.stores`` counters, the per-kind, per-outcome view the trace
    export carries. Purely observational — the cache behaves identically
    without it.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES,
                 obs=None) -> None:
        self.stats = CacheStats(max_entries)
        self._cache = LRUCache(max_entries, self.stats)
        self.obs = obs
        #: optional callable receiving one op per cache mutation or
        #: recency touch — ``("h", key)`` for a hit, ``("s", key, value)``
        #: for a store. The checkpoint layer records these per unit so a
        #: resumed run can rebuild the exact LRU content *and ordering*
        #: without re-fetching. Purely observational.
        self.oplog: Optional[Any] = None

    def layer(self, call, proceed):
        kind, key = _cache_key(call.method, call.args)
        sentinel = object()
        value = self._cache.get(key, sentinel)
        if value is not sentinel:
            self.stats.note_hit(kind)
            self._note_obs("lookups", kind, "hit")
            if self.oplog is not None:
                self.oplog(("h", key))
            return value
        self.stats.note_miss(kind)
        self._note_obs("lookups", kind, "miss")
        value = proceed(call)
        if call.degraded or call.garbled:
            self.stats.uncacheable += 1
            self._note_obs("stores", kind, "refused")
        else:
            self._cache.put(key, value)
            self._note_obs("stores", kind, "stored")
            if self.oplog is not None:
                self.oplog(("s", key, value))
        return value

    # ----------------------------------------- checkpoint/snapshot support
    def snapshot_entries(self) -> List[Tuple[Tuple, Any]]:
        """The cache's content in recency order (cold to hot).

        :meth:`CachePreload.capture` copies this so a warm run replays
        the donor run's content and recency exactly.
        """
        return self._cache.items()

    def replay_hit(self, key: Tuple) -> None:
        """Re-apply a journaled hit: recency only, no stats, no oplog."""
        self._cache.touch(key)

    def replay_store(self, key: Tuple, value: Any) -> None:
        """Re-apply a journaled store: content only, no stats, no oplog."""
        self._cache.seed(key, value)

    def _note_obs(self, counter: str, kind: str, outcome: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(
                f"cache.{counter}", kind=kind, outcome=outcome
            ).inc()


def _cache_key(method: str, args: Tuple) -> Tuple[str, Tuple]:
    """The query kind and LRU key of one engine call."""
    if method == "search":
        query, max_results = args
        return "search", ("search", normalize_query(query), max_results)
    if method == "num_hits":
        (query,) = args
        return "num_hits", ("num_hits", normalize_query(query))
    phrase_a, phrase_b, window = args
    return "proximity", (
        "proximity",
        normalize_query(phrase_a),
        normalize_query(phrase_b),
        window,
    )


class ValidationCache:
    """Run-wide memo of validation hit counts.

    One instance is shared by every :class:`~repro.core.surface.WebValidator`
    of a pipeline run (the Surface discoverer's and the Attr-Surface
    classifier's), replacing the per-validator dicts that used to silo the
    counts: a phrase marginal asked during Surface validation is now free
    when Attr-Surface training asks it again. Keys are lower-cased; joints
    key on ``(phrase, candidate, proximity)`` because the adjacency and
    windowed queries answer different questions.
    """

    def __init__(self) -> None:
        self.phrase_hits: Dict[str, int] = {}
        self.candidate_hits: Dict[str, int] = {}
        self.joint_hits: Dict[Tuple[str, str, int], int] = {}

    def __len__(self) -> int:
        return (
            len(self.phrase_hits)
            + len(self.candidate_hits)
            + len(self.joint_hits)
        )

    def clone(self) -> "ValidationCache":
        """An independent copy (a preload never aliases the donor run)."""
        copy = ValidationCache()
        copy.phrase_hits = dict(self.phrase_hits)
        copy.candidate_hits = dict(self.candidate_hits)
        copy.joint_hits = dict(self.joint_hits)
        return copy

    # --------------------------------------------------- checkpoint support
    #
    # Entries are memo-style (written once, never overwritten), so the
    # counts added by one unit of work are exactly the insertion-order
    # tail of each dict past a pre-unit length mark. The checkpoint layer
    # journals that tail and merges it back on replay.

    def mark(self) -> Tuple[int, int, int]:
        """Position marker: the three dict lengths as of now."""
        return (
            len(self.phrase_hits),
            len(self.candidate_hits),
            len(self.joint_hits),
        )

    def delta_since(self, mark: Tuple[int, int, int]) -> Dict[str, list]:
        """Entries added after ``mark``, JSON-ready (joint keys as lists)."""
        p, c, j = mark
        return {
            "phrase_hits": [
                [k, v] for k, v in list(self.phrase_hits.items())[p:]
            ],
            "candidate_hits": [
                [k, v] for k, v in list(self.candidate_hits.items())[c:]
            ],
            "joint_hits": [
                [list(k), v] for k, v in list(self.joint_hits.items())[j:]
            ],
        }

    def merge_delta(self, payload: Dict[str, list]) -> None:
        """Inverse of :func:`delta_since`: re-insert a journaled tail."""
        for key, value in payload["phrase_hits"]:
            self.phrase_hits[key] = value
        for key, value in payload["candidate_hits"]:
            self.candidate_hits[key] = value
        for (phrase, candidate, window), value in payload["joint_hits"]:
            self.joint_hits[(phrase, candidate, window)] = value


class CachePreload:
    """A first-class warm-start input: one run's cache content, portable.

    Captured from a finished run's :class:`QueryCache` and
    :class:`ValidationCache`, and applied to a fresh run *before* any unit
    executes — the warm run then sees cache hits exactly where the donor
    run would have, spending no round trips on answers already paid for.
    This is the unit of state the matching service's copy-on-write epochs
    hand from one request to the next, and it is deliberately symmetric:
    a service request and a standalone :meth:`WebIQMatcher.run
    <repro.core.pipeline.WebIQMatcher.run>` given the same preload follow
    the same code path, which is what makes their exports byte-identical
    by construction.

    The snapshot is value-isolated from its donor (entry lists are
    copied), so a later run can never mutate a published epoch through
    it. ``fingerprint()`` gives a stable identity that enters the journal
    meta of warm runs: resuming a warm journal with a *different* preload
    is refused, because the replayed hit pattern would not match.
    """

    def __init__(self, engine_entries=None, validation=None) -> None:
        #: cache entries in recency order (cold to hot), as ``(key, value)``
        self.engine_entries: List[Tuple[Tuple, Any]] = [
            (key, list(value) if isinstance(value, list) else value)
            for key, value in (engine_entries or [])
        ]
        #: the donor run's validation memo (marginal/joint hit counts)
        self.validation: ValidationCache = (
            validation.clone() if validation is not None else ValidationCache()
        )

    @classmethod
    def capture(
        cls,
        cache: QueryCache,
        validation_cache: Optional[ValidationCache] = None,
    ) -> "CachePreload":
        """Snapshot a run's cache content (recency order preserved)."""
        return cls(
            engine_entries=cache.snapshot_entries(),
            validation=validation_cache,
        )

    def apply(
        self,
        cache: QueryCache,
        validation_cache: Optional[ValidationCache] = None,
    ) -> None:
        """Seed a fresh run's caches with this snapshot.

        Seeding uses the replay path (content and recency only, no
        stats): the warm run's :class:`CacheStats` start at zero and then
        count *its own* hits against the preloaded content, exactly as a
        long-lived cache would.
        """
        for key, value in self.engine_entries:
            cache.replay_store(
                key, list(value) if isinstance(value, list) else value
            )
        if validation_cache is not None:
            validation_cache.phrase_hits.update(self.validation.phrase_hits)
            validation_cache.candidate_hits.update(
                self.validation.candidate_hits
            )
            validation_cache.joint_hits.update(self.validation.joint_hits)

    @property
    def n_entries(self) -> int:
        return len(self.engine_entries)

    @property
    def is_empty(self) -> bool:
        return not self.engine_entries and not len(self.validation)

    def fingerprint(self) -> int:
        """Stable identity of the snapshot (CRC over its canonical repr).

        Enters the journal meta of warm runs, so a journal written under
        one preload refuses to resume under another.
        """
        canon = repr((
            [(key, value) for key, value in self.engine_entries],
            sorted(self.validation.phrase_hits.items()),
            sorted(self.validation.candidate_hits.items()),
            sorted(self.validation.joint_hits.items()),
        ))
        return zlib.crc32(canon.encode("utf-8"))
