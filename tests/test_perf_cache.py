"""Tests for repro.perf: LRU cache, stats accounting, the cache layer.

The cache's contract: hits return the exact value the wrapped engine would
return, without reaching it (no query_count movement, no budget or latency
charge); only clean answers are stored (degraded and garbled ones are
refused); eviction is LRU with full accounting.
"""

import pytest

from repro.perf import (
    DEFAULT_CACHE_ENTRIES,
    CacheConfig,
    CacheStats,
    LRUCache,
    ValidationCache,
    normalize_query,
)
from repro.resilience import FaultProfile, ResilienceConfig
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.webstack import build_web_stack


def make_engine():
    return SearchEngine([
        Document(0, "u0", "t", "Authors such as King, Rowling, Tolkien."),
        Document(1, "u1", "t", "Cities such as Boston, Chicago, Miami."),
        Document(2, "u2", "t", "Fly from Boston to Chicago or Miami."),
    ])


def cached(engine=None, max_entries=DEFAULT_CACHE_ENTRIES, resilience=None):
    """The engine facade behind the cache layer, and the cache's state."""
    stack = build_web_stack(
        engine if engine is not None else make_engine(), {},
        resilience=resilience, cache=CacheConfig(max_entries))
    return stack.engine, stack.cache


class TestNormalizeQuery:
    def test_case_and_whitespace_collapse(self):
        assert normalize_query('  Cities  SUCH as\t"Boston"  ') == \
            'cities such as "boston"'

    def test_already_canonical_is_identity(self):
        assert normalize_query("boston") == "boston"


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": now "b" is coldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_keys_order_cold_to_hot(self):
        cache = LRUCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_overwrite_refreshes_without_growth(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # overwrite, no eviction
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put("c", 3)       # "b" is now the cold one
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestCacheStats:
    def test_counters_and_hit_rate(self):
        stats = CacheStats(max_entries=10)
        assert stats.hit_rate == 0.0
        stats.note_miss("num_hits")
        stats.note_hit("num_hits")
        stats.note_hit("search")
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.hits_by_kind == {"num_hits": 1, "search": 1}
        assert stats.misses_by_kind == {"num_hits": 1}

    def test_summary_is_one_line(self):
        summary = CacheStats(max_entries=10).summary()
        assert "\n" not in summary
        assert "hit" in summary


class TestCacheConfig:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CacheConfig(max_entries=0)


class TestCachingSearchEngine:
    def test_hit_skips_the_engine(self):
        caching, cache = cached()
        first = caching.num_hits("boston")
        count_after_miss = caching.query_count
        second = caching.num_hits("boston")
        assert second == first
        assert caching.query_count == count_after_miss
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_normalized_variants_share_one_entry(self):
        caching, cache = cached()
        caching.num_hits("Boston")
        caching.num_hits("  boston ")
        caching.num_hits("BOSTON")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert caching.query_count == 1

    def test_methods_and_arguments_key_separately(self):
        caching, cache = cached()
        caching.num_hits("boston")
        caching.search("boston")
        caching.search("boston", max_results=3)
        caching.num_hits_proximity("cities", "boston")
        caching.num_hits_proximity("cities", "boston", window=2)
        assert cache.stats.misses == 5
        assert cache.stats.hits == 0

    def test_answers_match_the_engine_exactly(self):
        engine = make_engine()
        caching, _ = cached()
        for query in ("boston", "cities", "no such term"):
            assert caching.num_hits(query) == engine.num_hits(query)
            assert caching.num_hits(query) == engine.num_hits(query)  # hit
            assert caching.search(query) == engine.search(query)
        assert caching.num_hits_proximity("cities", "boston") == \
            engine.num_hits_proximity("cities", "boston")

    def test_capacity_one_thrashes_but_stays_correct(self):
        caching, cache = cached(max_entries=1)
        a = caching.num_hits("boston")
        b = caching.num_hits("chicago")   # evicts boston
        assert caching.num_hits("boston") == a
        assert caching.num_hits("chicago") == b
        assert cache.stats.evictions >= 2

    def test_degraded_answer_is_not_cached(self):
        # A dead engine (every call times out, zero retries, so the
        # retry layer degrades to neutral 0) must not have its neutral
        # answer memoised: once the Web recovers, the query gets re-asked.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=1.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=0.0)
        caching, cache = cached(resilience=ResilienceConfig(
            profile=profile,
            retry=_no_retry(),
            breaker=_no_breaker(),
        ))

        assert caching.num_hits("boston") == 0
        assert cache.stats.uncacheable == 1
        assert cache.stats.stores == 0
        caching.num_hits("boston")
        assert cache.stats.hits == 0          # re-asked, not served stale
        assert cache.stats.misses == 2

    def test_garbled_answer_is_not_cached(self):
        # Garbled num_hits "succeeds" with 0 — a corrupted payload, not an
        # answer. It must be re-fetched, never memoised.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=0.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=1.0)
        caching, cache = cached(resilience=ResilienceConfig(profile=profile))

        assert caching.num_hits("boston") == 0
        assert cache.stats.uncacheable == 1
        assert cache.stats.stores == 0
        assert caching.num_hits("boston") == 0
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_clean_answers_are_cached_even_on_flaky_stacks(self):
        caching, cache = cached(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.0)))
        caching.num_hits("boston")
        caching.num_hits("boston")
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_facade_delegates_bookkeeping(self):
        engine = make_engine()
        caching, _ = cached(engine)
        caching.num_hits("boston")
        caching.num_hits("boston")
        assert caching.query_count == engine.query_count == 1


def _no_retry():
    from repro.resilience import RetryPolicy
    return RetryPolicy(max_attempts=1)


def _no_breaker():
    from repro.resilience import BreakerPolicy
    return BreakerPolicy(failure_threshold=10_000)


class TestValidationCache:
    def test_len_spans_all_three_maps(self):
        cache = ValidationCache()
        cache.phrase_hits["a"] = 1
        cache.candidate_hits["b"] = 2
        cache.joint_hits[("a", "b", 0)] = 3
        assert len(cache) == 3

    def test_shared_across_validators(self):
        from repro.core.surface import WebValidator

        engine = make_engine()
        cache = ValidationCache()
        first = WebValidator(engine, cache=cache)
        second = WebValidator(engine, cache=cache)
        first.candidate_hits("boston")
        queries_after_first = engine.query_count
        second.candidate_hits("boston")
        assert engine.query_count == queries_after_first
