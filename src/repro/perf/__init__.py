"""repro.perf — hot-path performance layers for the Web substrates.

Currently: transparent query-result caching (:mod:`repro.perf.cache`),
the cache layer of the Web call chain (:mod:`repro.webstack`). The
layering contract is documented there; the short version is that the
cache sits *above* the retry and fault layers, caches only successful
answers, and keeps ``query_count``/budget/latency accounting charging
real round trips only.
"""

from repro.perf.cache import (
    DEFAULT_CACHE_ENTRIES,
    CacheConfig,
    CachePreload,
    CacheStats,
    LRUCache,
    QueryCache,
    ValidationCache,
    normalize_query,
)

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
