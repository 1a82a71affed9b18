"""Tests for repro.resilience: fault injection, retries, breakers, budgets.

The layer's contract: under any fault profile the pipeline yields partial
results instead of raising; under ``fault_rate=0.0`` it is an exact
pass-through; and everything — fault streams, backoff schedules, breaker
trips — is deterministic in the profile seed.
"""

import threading

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.deepweb.models import Attribute, QueryInterface
from repro.deepweb.response import analyze_response
from repro.deepweb.source import DeepWebSource
from repro.perf import CacheConfig
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultProfile,
    ResilienceConfig,
    ResilientClient,
    RetryPolicy,
)
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    RateLimitError,
    ReproError,
    TransientWebError,
    WebAccessError,
    WebTimeoutError,
)
from repro.util.rng import derive_rng
from repro.webstack import Engine, Source, build_web_stack, component_scope


def make_documents():
    return [
        Document(0, "u0", "t", "Authors such as King, Rowling, Tolkien."),
        Document(1, "u1", "t", "Cities such as Boston, Chicago, Miami."),
    ]


def make_engine():
    return SearchEngine(make_documents())


def make_source():
    interface = QueryInterface("air-1", "airfare", "flight", [
        Attribute(name="from", label="From"),
    ])
    return DeepWebSource(
        interface=interface,
        recognizers={"from": lambda v: v.lower() in {"boston", "miami"}},
        records=[{"from": "Boston"}],
    )


TIMEOUTS_ONLY = dict(transient_weight=0, rate_limit_weight=0, garbled_weight=0)
GARBLED_ONLY = dict(timeout_weight=0, transient_weight=0, rate_limit_weight=0)


def flaky_engine(profile, *above, on_fault=None):
    """A fresh engine behind the fault layer (plus any ``above`` layers)."""
    return Engine(make_engine(),
                  [*above, FaultInjector(profile, on_fault=on_fault).layer])


def flaky_source(profile):
    """A fresh source behind the fault layer alone."""
    return Source(make_source(), [FaultInjector(profile).layer])


def resilient_stack(profile, **policies):
    """The pipeline's own chain — retry over fault — with one source."""
    return build_web_stack(
        make_engine(), {"air-1": make_source()},
        resilience=ResilienceConfig(profile=profile, **policies))


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        WebAccessError, TransientWebError, RateLimitError, WebTimeoutError,
        CircuitOpenError, BudgetExhaustedError,
    ])
    def test_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_fault_family_under_web_access_error(self):
        for exc in (TransientWebError, RateLimitError, WebTimeoutError):
            assert issubclass(exc, WebAccessError)
        assert not issubclass(CircuitOpenError, WebAccessError)
        assert not issubclass(BudgetExhaustedError, WebAccessError)


class TestFaultProfile:
    def test_zero_rate_never_faults(self):
        profile = FaultProfile(fault_rate=0.0)
        rng = derive_rng(1, "t")
        assert all(profile.draw(rng) is None for _ in range(200))

    def test_full_rate_always_faults(self):
        profile = FaultProfile(fault_rate=1.0)
        rng = derive_rng(1, "t")
        assert all(profile.draw(rng) is not None for _ in range(200))

    def test_draw_sequence_deterministic_in_seed(self):
        profile = FaultProfile(fault_rate=0.5)
        rng1, rng2 = derive_rng(9, "x"), derive_rng(9, "x")
        seq1 = [profile.draw(rng1) for _ in range(100)]
        seq2 = [profile.draw(rng2) for _ in range(100)]
        assert seq1 == seq2
        assert any(kind is not None for kind in seq1)

    def test_weights_select_kinds(self):
        profile = FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY)
        rng = derive_rng(1, "t")
        assert all(
            profile.draw(rng) is FaultKind.TIMEOUT for _ in range(50)
        )

    @pytest.mark.parametrize("kwargs", [
        dict(fault_rate=-0.1),
        dict(fault_rate=1.5),
        dict(fault_rate=0.5, timeout_weight=-1),
        dict(fault_rate=0.5, timeout_weight=0, transient_weight=0,
             rate_limit_weight=0, garbled_weight=0),
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(**kwargs)


class TestFlakySearchEngine:
    def test_zero_rate_is_pass_through(self):
        pristine = make_engine()
        flaky = flaky_engine(FaultProfile(fault_rate=0.0))
        assert flaky.search('"such as"') == pristine.search('"such as"')
        assert flaky.num_hits("boston") == pristine.num_hits("boston")
        assert flaky.query_count == pristine.query_count

    def test_raising_faults_charge_the_round_trip(self):
        flaky = flaky_engine(FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        with pytest.raises(WebTimeoutError):
            flaky.search("boston")
        assert flaky.query_count == 1  # the failed round trip still counts

    def test_garbled_truncates_snippets(self):
        flaky = flaky_engine(FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        results = flaky.search('"such as"')
        clean = make_engine().search('"such as"')
        assert len(results) == len(clean)
        for garbled, ok in zip(results, clean):
            assert len(garbled.snippet) < len(ok.snippet)
            assert ok.snippet.startswith(garbled.snippet)

    def test_garbled_hit_counts_read_as_zero(self):
        flaky = flaky_engine(FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        assert flaky.num_hits("boston") == 0
        assert flaky.num_hits_proximity("cities", "boston") == 0
        assert flaky.query_count == 2

    def test_on_fault_hook_sees_every_kind(self):
        # Fates are keyed by call content, so a repeated identical call
        # replays one fate forever; distinct queries sample the fate space.
        seen = []
        flaky = flaky_engine(FaultProfile(fault_rate=1.0),
                             on_fault=seen.append)
        for i in range(60):
            try:
                flaky.num_hits(f"boston {i}")
            except WebAccessError:
                pass
        assert set(seen) == set(FaultKind)

    def test_fate_is_pure_function_of_call_content(self):
        # The same query drawn twice — even with other traffic interleaved —
        # meets the same fate; this is what makes caching sound under faults.
        def fates(queries):
            flaky = flaky_engine(FaultProfile(fault_rate=0.5, seed=7))
            out = {}
            for q in queries:
                try:
                    flaky.num_hits(q)
                    out[q] = "ok"
                except WebAccessError as exc:
                    out[q] = type(exc).__name__
            return out

        first = fates(["boston", "chicago", "dallas"])
        shuffled = fates(["dallas", "extra query", "boston", "chicago"])
        for query, fate in first.items():
            assert shuffled[query] == fate

    def test_retry_attempt_rerolls_fate(self):
        attempt = {"n": 0}

        def numbered(call, proceed):
            call.attempt = attempt["n"]  # as the retry layer numbers them
            return proceed(call)

        flaky = flaky_engine(FaultProfile(fault_rate=0.5, seed=3), numbered)

        def fate(query):
            try:
                flaky.num_hits(query)
                return "ok"
            except WebAccessError as exc:
                return type(exc).__name__

        per_attempt = []
        for n in range(40):
            attempt["n"] = n
            per_attempt.append(fate("boston"))
        # Re-rolling across attempts explores different fates...
        assert len(set(per_attempt)) > 1
        # ...while the same (query, attempt) pair always replays its own.
        attempt["n"] = 0
        assert fate("boston") == per_attempt[0]


class TestFlakyDeepWebSource:
    def test_raising_faults_charge_the_probe(self):
        flaky = flaky_source(FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        with pytest.raises(WebTimeoutError):
            flaky.submit({"from": "Boston"})
        assert flaky.probe_count == 1

    def test_garbled_page_is_a_truncated_real_page(self):
        flaky = flaky_source(FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        clean = make_source().submit({"from": "Boston"})
        page = flaky.submit({"from": "Boston"})
        assert clean.text.startswith(page.text)
        assert len(page.text) < len(clean.text)

    def test_sources_have_independent_fault_streams(self):
        profile = FaultProfile(fault_rate=0.5, seed=3, **TIMEOUTS_ONLY)
        outcomes = {}
        for make_noise in (0, 5):
            # One fault layer serves both sources, as in a pipeline run.
            faults = FaultInjector(profile)
            flaky_a = Source(make_source(), [faults.layer])
            # interleave traffic to a second source; A's fate must not move
            other = make_source()
            other.interface.interface_id = "air-2"
            flaky_b = Source(other, [faults.layer])
            for _ in range(make_noise):
                try:
                    flaky_b.submit({"from": "Boston"})
                except WebAccessError:
                    pass
            fates = []
            for _ in range(20):
                try:
                    flaky_a.submit({"from": "Boston"})
                    fates.append("ok")
                except WebAccessError:
                    fates.append("fault")
            outcomes[make_noise] = fates
        assert outcomes[0] == outcomes[5]


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_rejections=3))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.record_failure()  # second failure trips it
        assert breaker.state == CircuitBreaker.OPEN
        # cooldown: three fast-fails, then a half-open trial
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_rejections=1))
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.allow()  # half-open trial
        assert breaker.record_failure()  # single failure re-opens
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_delay=100.0)
        rng = derive_rng(1, "t")
        assert [policy.delay(a, rng) for a in range(4)] == [1, 2, 4, 8]

    def test_backoff_clamped_to_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, jitter=0.0,
                             max_delay=5.0)
        rng = derive_rng(1, "t")
        assert policy.delay(6, rng) == 5.0

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(base_delay=2.0, multiplier=1.0, jitter=0.25)
        rng = derive_rng(1, "t")
        for attempt in range(200):
            assert 1.5 <= policy.delay(0, rng) <= 2.5

    def test_rate_limits_back_off_harder(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.0,
                             rate_limit_factor=4.0)
        rng = derive_rng(1, "t")
        assert policy.delay(0, rng, rate_limited=True) == 4.0

    def test_schedule_deterministic_under_fixed_seed(self):
        def schedule(seed):
            policy = RetryPolicy(base_delay=0.5, jitter=0.25)
            rng = derive_rng(seed, "resilience", "backoff")
            return [policy.delay(a % 3, rng) for a in range(30)]
        assert schedule(4) == schedule(4)
        assert schedule(4) != schedule(5)


class TestResilienceConfig:
    def test_unset_and_zero_budgets_are_allowed(self):
        config = ResilienceConfig(surface_query_budget=0)
        assert config.budgets() == {
            "surface": 0, "attr_surface": None, "attr_deep": None}

    @pytest.mark.parametrize("field, component", [
        ("surface_query_budget", "surface"),
        ("attr_surface_query_budget", "attr_surface"),
        ("attr_deep_probe_budget", "attr_deep"),
    ])
    def test_negative_budgets_are_rejected(self, field, component):
        with pytest.raises(ValueError,
                           match=f"{component} budget must be a "
                                 "non-negative integer"):
            ResilienceConfig(**{field: -1})
        with pytest.raises(ValueError, match="got '5'"):
            ResilienceConfig(**{field: "5"})


class TestResilientClient:
    def test_retries_until_success(self):
        client = ResilientClient(ResilienceConfig())
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientWebError("502")
            return "ok"

        assert client.call(flaky) == "ok"
        assert calls["n"] == 3
        assert client.report.total_retries == 2
        assert client.report.total_backoff_seconds > 0

    def test_gives_up_after_max_attempts(self):
        client = ResilientClient(
            ResilienceConfig(retry=RetryPolicy(max_attempts=3)))

        def dead():
            raise WebTimeoutError("down")

        with pytest.raises(WebTimeoutError):
            client.call(dead)
        assert client.report.giveups_by_component == {"web": 1}
        assert client.report.retries_by_component == {"web": 2}

    def test_programming_errors_propagate_unretried(self):
        client = ResilientClient(ResilienceConfig())
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise KeyError("nope")

        with pytest.raises(KeyError):
            client.call(broken)
        assert calls["n"] == 1  # never retried

    def test_budget_exhaustion(self):
        client = ResilientClient(
            ResilienceConfig(surface_query_budget=2))
        assert client.call(lambda: "a", component="surface") == "a"
        assert client.call(lambda: "b", component="surface") == "b"
        with pytest.raises(BudgetExhaustedError):
            client.call(lambda: "c", component="surface")
        assert client.budget_exhausted("surface")
        assert client.report.budgets_exhausted == ["surface"]

    def test_failed_attempts_consume_budget(self):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=10),
            attr_deep_probe_budget=4,
        ))

        def dead():
            raise TransientWebError("502")

        with pytest.raises(BudgetExhaustedError):
            client.call(dead, component="attr_deep")
        assert client.budget_exhausted("attr_deep")

    def test_breaker_trips_and_fast_fails(self):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=10),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_rejections=5),
        ))
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise WebTimeoutError("down")

        with pytest.raises(CircuitOpenError):
            client.call(dead, source_id="s1")
        assert calls["n"] == 3  # tripped at the threshold, retries stopped
        assert client.report.breaker_trips == {"s1": 1}
        # while open the call never reaches the source
        with pytest.raises(CircuitOpenError):
            client.call(dead, source_id="s1")
        assert calls["n"] == 3
        assert client.report.breaker_rejections == {"s1": 1}

    def test_backoff_accounting_deterministic(self):
        def run_once():
            client = ResilientClient(
                ResilienceConfig(profile=FaultProfile(seed=11)))
            state = {"n": 0}

            def flaky():
                state["n"] += 1
                if state["n"] % 2:
                    raise TransientWebError("502")
                return state["n"]

            for _ in range(10):
                client.call(flaky, component="surface")
            return client.report.backoff_seconds_by_component

        assert run_once() == run_once()

    def test_current_attempt_is_per_thread(self):
        """A concurrent call must not clobber another call's attempt.

        Regression test for an order-dependence bug: the attempt index
        was once a plain attribute of the shared client, so another
        thread's fresh call (attempt 0) reset the index this thread's
        retry loop was mid-way through — re-keying its fault fates from
        re-roll back to replay. The index now lives on each call's own
        record. Thread A retries into attempt 1, then parks while thread
        B completes a call through the *same* chain; A must still see its
        own attempt index afterwards.
        """
        client = ResilientClient(
            ResilienceConfig(retry=RetryPolicy(max_attempts=3)))
        a_retrying = threading.Event()
        b_done = threading.Event()
        seen = {}

        def fates(call, proceed):
            if call.args == ("a",):
                if call.attempt == 0:
                    raise TransientWebError("first attempt fails")
                a_retrying.set()
                assert b_done.wait(5.0), "thread B never completed"
                seen["a"] = call.attempt
            return proceed(call)

        engine = Engine(make_engine(), [client.layer, fates])

        def thread_b():
            assert a_retrying.wait(5.0), "thread A never reached attempt 1"
            engine.num_hits("b")
            b_done.set()

        helper = threading.Thread(target=thread_b)
        helper.start()
        try:
            assert engine.num_hits("a") == make_engine().num_hits("a")
        finally:
            b_done.set()  # never leave A parked if B died
            helper.join(5.0)
        assert seen["a"] == 1
        assert client.report.total_retries == 1


class TestResilientProxies:
    def dead_engine(self, **retry_kwargs):
        stack = resilient_stack(
            FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY),
            retry=RetryPolicy(max_attempts=2, **retry_kwargs))
        return stack.engine, stack.client

    def test_engine_degrades_to_neutral_values(self):
        engine, client = self.dead_engine()
        assert engine.search("boston") == []
        assert engine.num_hits("boston") == 0
        assert engine.num_hits_proximity("cities", "boston") == 0
        assert client.report.giveups_by_component["web"] == 3

    def test_engine_pass_through_when_healthy(self):
        stack = resilient_stack(FaultProfile(fault_rate=0.0))
        assert stack.engine.search('"such as"') == \
            make_engine().search('"such as"')
        assert stack.client.report.empty

    def test_dead_source_degrades_to_failure_page(self):
        stack = resilient_stack(
            FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY),
            retry=RetryPolicy(max_attempts=2))
        page = stack.sources["air-1"].submit({"from": "Boston"})
        assert not analyze_response(page.text).success
        assert "unavailable" in page.url

    def test_breaker_stops_probe_consumption(self):
        # A dead source must stop burning real probes once its breaker is
        # open: fast-fails never reach the inner source.
        stack = resilient_stack(
            FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY),
            retry=RetryPolicy(max_attempts=10),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_rejections=100),
        )
        source = stack.sources["air-1"]
        source.submit({"from": "Boston"})
        probes_at_trip = source.probe_count
        assert probes_at_trip == 3
        for _ in range(10):
            page = source.submit({"from": "Boston"})
            assert not analyze_response(page.text).success
        assert source.probe_count == probes_at_trip


class TestPipelineBitIdentity:
    def test_zero_fault_rate_is_bit_identical(self):
        plain = WebIQMatcher(WebIQConfig()).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        config = WebIQConfig(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.0)))
        wrapped = WebIQMatcher(config).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        assert wrapped.metrics == plain.metrics
        assert (wrapped.stopwatch.seconds_by_account
                == plain.stopwatch.seconds_by_account)
        assert (wrapped.acquisition.surface_queries
                == plain.acquisition.surface_queries)
        assert (wrapped.acquisition.attr_deep_probes
                == plain.acquisition.attr_deep_probes)
        assert wrapped.degradation is not None
        assert wrapped.degradation.empty

    def test_fault_runs_deterministic_in_seed(self):
        def run():
            config = WebIQConfig(resilience=ResilienceConfig(
                profile=FaultProfile(fault_rate=0.4, seed=5)))
            result = WebIQMatcher(config).run(
                build_domain_dataset("book", n_interfaces=4, seed=2))
            return (result.metrics, result.degradation.faults_by_kind,
                    result.stopwatch.seconds_by_account)

        assert run() == run()


class TestPipelineBudgetDegradation:
    def test_exhausted_budgets_yield_partial_results(self):
        config = WebIQConfig(resilience=ResilienceConfig(
            surface_query_budget=40,
            attr_surface_query_budget=20,
            attr_deep_probe_budget=3,
        ))
        result = WebIQMatcher(config).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        degradation = result.degradation
        assert degradation.degraded
        assert "surface" in degradation.budgets_exhausted
        assert degradation.attributes_skipped
        # partial results, not a crash
        assert 0.0 < result.metrics.f1 <= 1.0


class TestPerTenantProxyIsolation:
    """``Call.degraded`` must belong to one call, not to the shared chain.

    The matching service shares one Web stack between concurrently
    submitting tenants with *different* budgets. ``degraded`` is the
    cache layer's cleanliness signal: if tenant B's budget-exhausted
    degradation could flip the flag between tenant A's fetch and A's
    cleanliness check, the cache above would refuse to memoise A's
    perfectly clean answer — and A would re-spend a real round trip on
    its next identical query. That is spend cross-contamination; the
    flag once lived on the shared resilient proxy and had exactly this
    bug. It now lives on each call's own record.

    The interleaving is event-orchestrated, not a real race: tenant A's
    search deterministically parks inside the engine until tenant B's
    degraded call has come and gone.
    """

    class _ParkingEngine(SearchEngine):
        """An engine whose searches park until tenant B has degraded."""

        def __init__(self, a_inside, b_done):
            super().__init__(make_documents())
            self.a_inside = a_inside
            self.b_done = b_done

        def search(self, query, max_results=10):
            self.a_inside.set()
            assert self.b_done.wait(5.0), "tenant B never ran"
            return super().search(query, max_results)

    def _interleaved(self):
        a_inside = threading.Event()
        b_done = threading.Event()
        return self._ParkingEngine(a_inside, b_done), a_inside, b_done

    @staticmethod
    def _tenant_b_budget(client):
        # Per-tenant budgets, injected under the tenants' component names:
        # B's pool is already empty, so B's very first call degrades.
        client._budgets["tenant_b"] = 0

    def test_other_tenants_degradation_does_not_contaminate(self):
        substrate, a_inside, b_done = self._interleaved()
        client = ResilientClient(ResilienceConfig())
        self._tenant_b_budget(client)
        flags = {}

        def cleanliness(call, proceed):
            # The check the cache layer performs, right after the fetch.
            answer = proceed(call)
            flags[call.method] = call.degraded
            return answer

        engine = Engine(substrate, [cleanliness, client.layer])
        outcome = {}

        def tenant_a():
            with component_scope("tenant_a"):
                outcome["results"] = engine.search('"such as"')

        thread = threading.Thread(target=tenant_a)
        thread.start()
        try:
            assert a_inside.wait(5.0), "tenant A never reached the engine"
            with component_scope("tenant_b"):
                assert engine.num_hits("boston") == 0  # budget-degraded
                assert flags["num_hits"] is True
        finally:
            b_done.set()
            thread.join(5.0)

        assert outcome["results"] == make_engine().search('"such as"')
        # B's degradation, observed from A's thread, must not poison A's
        # clean fetch.
        assert flags["search"] is False
        assert client.report.budgets_exhausted == ["tenant_b"]

    def test_clean_answer_is_cached_despite_interleaved_degradation(self):
        substrate, a_inside, b_done = self._interleaved()
        stack = build_web_stack(substrate, {},
                                resilience=ResilienceConfig(),
                                cache=CacheConfig())
        client, engine = stack.client, stack.engine
        self._tenant_b_budget(client)
        spent = {}

        def tenant_a():
            with component_scope("tenant_a"):
                engine.search('"such as"')
                # Identical repeat: a stored answer costs zero round trips.
                before = engine.query_count
                engine.search('"such as"')
                spent["extra_round_trips"] = engine.query_count - before

        thread = threading.Thread(target=tenant_a)
        thread.start()
        try:
            assert a_inside.wait(5.0), "tenant A never reached the engine"
            with component_scope("tenant_b"):
                engine.num_hits("boston")
        finally:
            b_done.set()
            thread.join(5.0)

        # Had B's degradation leaked into A's call, the cache would have
        # refused A's clean answer and the repeat would re-spend a real
        # round trip (1, not 0).
        assert spent["extra_round_trips"] == 0
        assert stack.cache.stats.hits >= 1
