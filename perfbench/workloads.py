"""The three workloads: seeded inputs, timed operations, oracle checks.

Each workload has a ``setup()`` that builds its inputs and a
``unit(inputs, index, out)`` that runs one unit of work, timing every
operation and judging its output. Load comes from one closed-loop client
in this process: the next operation starts only after the previous one
returned. The number of units (or, for ``service-mixed``, the stream
length) follows from ``--seconds`` through a fixed per-unit estimate, so
the same seed and seconds always give the same work.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle
import repro.datasets.dataset as dataset_mod
from hostspeed import HostSpeed
import repro.service.server as server_mod
from repro.core.pipeline import (
    MATCHING_SECONDS_PER_EVALUATION,
    WebIQConfig,
    WebIQMatcher,
)
from repro.datasets import DOMAINS
from repro.io import run_result_to_dict, strip_service_section
from repro.matching.metrics import evaluate_matches
from repro.perf import CacheConfig
from repro.registry.assimilate import (
    RegistryAssimilator,
    batch_induced_clusters,
    induced_clusters,
)
from repro.registry.store import RegistryLock, RegistryStore
from repro.service import MatchingService, MatchRequest
from repro.service.laws import check_service
from repro.util.errors import RegistryMismatchError

now = time.perf_counter

BATCH_INTERFACES = 20
#: dataset seeds with a shipped reference digest (digests.json)
BATCH_SEED_POOL = 24
#: estimated seconds of one 5-domain pass; sets the passes per run
BATCH_PASS_SECONDS = 10.0

REGISTRY_PLAN: Tuple[Tuple[str, int], ...] = (
    ("airfare", 30), ("book", 40), ("job", 40))
#: estimated seconds of one ingest of REGISTRY_PLAN
REGISTRY_INGEST_SECONDS = 20.0

SERVICE_TENANTS = ("acme", "globex", "initech")
SERVICE_SIZES = (6, 8, 10)
SERVICE_DATASET_SEEDS = (7, 8, 9)
SERVICE_ASSIMILATE_EVERY = 5
#: estimated closed-loop requests per second; sets the stream length
SERVICE_REQUESTS_PER_SECOND = 2.25
#: served (domain, n_interfaces, seed) also re-run warm on their own
#: cold run's cache content, after the timed region
SERVICE_OWN_WARM_CHECKS = 3

WORKDIR = os.path.join(oracle.OUTPUT_DIR, f"work-{os.getpid()}")


@dataclass
class Outcome:
    """What one or more units measured; see ``run.py`` for the metrics.

    With a ``speed`` sampler, operation times are in reference seconds
    (see ``hostspeed.py``); ``raw_seconds`` sums them as measured.
    """

    recorder: Optional[object] = None
    speed: Optional[HostSpeed] = None
    attempted: int = 0
    failed: int = 0
    walls: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    f1s: List[float] = field(default_factory=list)
    sim_seconds: List[float] = field(default_factory=list)
    #: workload-specific counts (cache, service defects, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: seconds of the last :meth:`timed` call
    last: float = 0.0
    raw_seconds: float = 0.0

    def timed(self, op: Callable[[], object]) -> object:
        """Run one operation, timing it (and tracing it, when traced)."""
        if self.recorder is not None:
            self.recorder.active = True
        start = now()
        try:
            return op()
        finally:
            end = now()
            self.raw_seconds += end - start
            self.last = end - start
            if self.speed is not None:
                self.last *= self.speed.factor(start, end)
            self.latencies.append(self.last)
            if self.recorder is not None:
                self.recorder.active = False

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, kind: str, known_defect: bool = False) -> None:
        """Count one failed operation. Only a failure that a known
        defect explains leaves the run ``correct``."""
        self.failed += 1
        self.add(kind, 1)
        if not known_defect:
            self.add("unexplained", 1)

    @property
    def correct(self) -> bool:
        return not self.counts.get("unexplained", 0)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@contextlib.contextmanager
def patched(owner: Any, attr: str, replacement: Any):
    """Bind ``owner.attr`` to ``replacement`` for the ``with`` block."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def shipped_reference(domain: str, n_interfaces: int, seed: int) -> str:
    return oracle.load_shipped()[oracle.ref_key(domain, n_interfaces, seed)]


class Workload:
    """``setup()`` builds the inputs, ``unit()`` runs and times one unit,
    ``finish()`` judges whatever ``unit()`` left for after the timed
    region."""

    name = ""
    units = 1

    def setup(self) -> Any:
        raise NotImplementedError

    def unit(self, inputs: Any, index: int, out: Outcome) -> None:
        raise NotImplementedError

    def finish(self, out: Outcome) -> None:
        pass


class Batch(Workload):
    """``batch-5x20``: the paper's 5 domains x 20 interfaces, serially.

    One operation is one domain run with the default config plus the
    query cache. Pass ``k`` of a run with ``P`` passes uses dataset seed
    ``(P*seed + k) mod BATCH_SEED_POOL``, so every pass has a shipped
    reference digest and a run averages over several datasets.
    """

    name = "batch-5x20"

    def __init__(self, seed: int, seconds: float, *,
                 domains: Sequence[str] = DOMAINS,
                 n_interfaces: int = BATCH_INTERFACES,
                 reference: Callable[[str, int, int], str] = shipped_reference):
        self.domains = tuple(domains)
        self.n_interfaces = n_interfaces
        self.units = max(1, int(seconds // BATCH_PASS_SECONDS))
        self.dataset_seeds = [(self.units * seed + k) % BATCH_SEED_POOL
                              for k in range(self.units)]
        self.reference = reference

    def setup(self):
        return {
            seed: {domain: dataset_mod.build_domain_dataset(
                domain, self.n_interfaces, seed) for domain in self.domains}
            for seed in self.dataset_seeds
        }

    def unit(self, inputs, index: int, out: Outcome) -> None:
        seed = self.dataset_seeds[index]
        wall = sim = 0.0
        for domain in self.domains:
            dataset = inputs[seed][domain]
            matcher = WebIQMatcher(WebIQConfig(cache=CacheConfig()))
            result = out.timed(lambda: matcher.run(dataset))
            wall += out.last
            out.attempted += 1
            sim += result.stopwatch.total_seconds
            out.f1s.append(result.metrics.f1)
            out.add("cache_hits", result.cache.hits)
            out.add("cache_lookups", result.cache.lookups)
            got = oracle.digest(oracle.payload_of_result(dataset, result))
            if got != self.reference(domain, self.n_interfaces, seed):
                out.fail("mismatched")
        out.walls.append(wall)
        out.sim_seconds.append(sim)


class RegistryIngest(Workload):
    """``registry-ingest``: incremental, persisted registry builds.

    One operation is one add: ``RegistryAssimilator.assimilate`` then
    ``RegistryStore.save`` under a ``RegistryLock``, as ``build_registry``
    does. Ingest ``k`` of a run uses dataset seed ``seed + 1000*k``.
    After each domain the induced matching must equal batch IceQ over the
    same views, and the saved store must load back to the same body; if
    not, every add of that domain counts as failed.
    """

    name = "registry-ingest"

    def __init__(self, seed: int, seconds: float, *,
                 plan: Sequence[Tuple[str, int]] = REGISTRY_PLAN):
        self.plan = tuple(plan)
        self.units = max(1, int(seconds // REGISTRY_INGEST_SECONDS))
        self.dataset_seeds = [seed + 1000 * k for k in range(self.units)]

    def setup(self):
        return [
            {domain: dataset_mod.build_domain_dataset(domain, n, seed)
             for domain, n in self.plan}
            for seed in self.dataset_seeds
        ]

    def unit(self, inputs, index: int, out: Outcome) -> None:
        datasets = inputs[index]
        config = WebIQConfig()
        wall = evaluated = 0.0
        for domain, _ in self.plan:
            dataset = datasets[domain]
            directory = _fresh_dir(os.path.join(WORKDIR, "registry", domain))
            store = RegistryStore(
                domain=domain, threshold=config.threshold,
                linkage=config.linkage, similarity=config.similarity)
            assimilator = RegistryAssimilator(store)

            def add(interface):
                with RegistryLock(directory, owner="perfbench"):
                    record = assimilator.assimilate(interface)
                    store.save(directory)
                return record

            for interface in dataset.interfaces:
                record = out.timed(lambda: add(interface))
                wall += out.last
                out.attempted += 1
                evaluated += record.evaluated
            induced, _ = induced_clusters(store)
            loaded = RegistryStore.load(directory).to_body()
            if induced != batch_induced_clusters(store) \
                    or loaded != store.to_body():
                for _ in dataset.interfaces:
                    out.fail("mismatched")
            pairs = {frozenset(pair) for members in induced
                     for pair in itertools.combinations(members, 2)}
            out.f1s.append(evaluate_matches(
                pairs, dataset.ground_truth.match_pairs()).f1)
            shutil.rmtree(directory, ignore_errors=True)
        out.walls.append(wall)
        # No run stopwatch ticks on this path: charge the similarity
        # evaluations at the pipeline's simulated matching rate.
        out.sim_seconds.append(evaluated * MATCHING_SECONDS_PER_EVALUATION)


def service_stream(seed: int, n_requests: int, *,
                   domains: Sequence[str] = DOMAINS,
                   sizes: Sequence[int] = SERVICE_SIZES) -> List[MatchRequest]:
    """The seeded request stream of ``service-mixed``.

    The stream is a run of seeded permutations of every
    (domain, size, dataset seed) combination, so each run serves nearly
    the same mix in a different order. Tenants are seeded picks, and
    every 5th request assimilates.
    """
    rng = random.Random(f"service-mixed/{seed}")
    combos = [(domain, size, dataset_seed) for domain in domains
              for size in sizes for dataset_seed in SERVICE_DATASET_SEEDS]
    requests: List[MatchRequest] = []
    while len(requests) < n_requests:
        rng.shuffle(combos)
        for domain, size, dataset_seed in combos[:n_requests - len(requests)]:
            requests.append(MatchRequest(
                tenant=rng.choice(SERVICE_TENANTS), domain=domain,
                n_interfaces=size, seed=dataset_seed,
                assimilate=(len(requests) + 1) % SERVICE_ASSIMILATE_EVERY == 0))
    return requests


class ServiceMixed(Workload):
    """``service-mixed``: one closed-loop client drives one service.

    One operation is one request: ``submit`` then ``run_pending``. Set-up
    builds the service with its boot epoch and the request stream; the
    datasets are built by the service, per request, inside the timed
    region. A request fails when ``run_pending`` raises, when it does not
    complete, or, judged after the timed region by :meth:`finish`, when
    its output differs from a reference.

    The stream keeps cross-domain assimilations and mixed dataset seeds
    on purpose, because both expose known service defects. The failures
    they cause are counted, and the client tells them apart from any
    other failure:

    - (a) cache keys carry no dataset identity, so a warm request can be
      served answers cached from another corpus. A request's payload
      then differs from the shipped cold digest of the same
      (domain, n_interfaces, seed), although the service's own oracle
      (the standalone replay in :meth:`finish`) agrees with it.
    - (b) registry assimilation runs outside the request's crash domain,
      so ``RegistryMismatchError`` escapes ``run_pending`` for a request
      of another domain than the registry's, and ``check_service`` then
      finds the admission and epoch laws broken.
    """

    name = "service-mixed"
    #: the laws defect (b) breaks
    DEFECT_B_LAWS = frozenset({"service-admission-accounting",
                               "service-epoch-publication"})

    def __init__(self, seed: int, seconds: float, *,
                 domains: Sequence[str] = DOMAINS,
                 sizes: Sequence[int] = SERVICE_SIZES,
                 n_requests: Optional[int] = None,
                 reference: Callable[[str, int, int], str] = shipped_reference):
        self.seed = seed
        self.domains = tuple(domains)
        self.sizes = tuple(sizes)
        self.n_requests = n_requests or max(
            10, round(seconds * SERVICE_REQUESTS_PER_SECOND))
        self.reference = reference
        self._service: Optional[MatchingService] = None
        #: (request, response, served payload digest, warm on another corpus?)
        self._served: List[Tuple[MatchRequest, Any, str, bool]] = []

    def setup(self):
        return MatchingService(), service_stream(
            self.seed, self.n_requests, domains=self.domains, sizes=self.sizes)

    def unit(self, inputs, index: int, out: Outcome) -> None:
        service, stream = inputs
        self._service = service
        built = [None]  # the latest request's dataset, for its payload
        build = server_mod.build_domain_dataset

        def capture(*args, **kwargs):
            built[0] = build(*args, **kwargs)
            return built[0]

        recorder = out.recorder
        corpora = set()  # (domain, seed) whose answers the warm state holds
        registry_domain = None
        wall = sim = 0.0
        with patched(server_mod, "build_domain_dataset", capture):
            for request in stream:
                first_span = len(recorder.spans) if recorder else 0
                ids = []

                def op():
                    ids.append(service.submit(request))
                    return service.run_pending()

                out.attempted += 1
                try:
                    responses = out.timed(op)
                except RegistryMismatchError:
                    responses = None
                    out.fail("raised", known_defect=(
                        request.assimilate and registry_domain is not None
                        and request.domain != registry_domain))
                except Exception:  # noqa: BLE001 — counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    responses = None
                    out.fail("raised")
                wall += out.last
                if recorder is not None and ids:
                    recorder.tag(first_span, ids[0])
                if responses is None:
                    continue
                response = responses[-1]
                if response.outcome != "completed":
                    out.fail(f"outcome.{response.outcome}")
                    continue
                corpus = (request.domain, request.seed)
                foreign = response.warm and bool(corpora - {corpus})
                corpora.add(corpus)
                if request.assimilate and registry_domain is None:
                    registry_domain = request.domain
                export = response.export
                out.f1s.append(export["metrics"]["f1"])
                sim += sum(export["overhead_seconds"].values())
                out.add("cache_hits", export["cache"]["hits"])
                out.add("cache_lookups",
                        export["cache"]["hits"] + export["cache"]["misses"])
                got = oracle.digest(oracle.payload_of_export(built[0], export))
                self._served.append((request, response, got, foreign))
        stats = service.stats
        out.counts["warm_share"] = (stats.warm_runs / stats.completed
                                    if stats.completed else 0.0)
        laws = {v.invariant for v in check_service(service).violations}
        out.add("law_violations", len(laws))
        if laws and not (laws <= self.DEFECT_B_LAWS
                         and out.counts.get("raised")):
            out.add("unexplained", 1)
        out.walls.append(wall)
        out.sim_seconds.append(sim)

    def finish(self, out: Outcome) -> None:
        """Judge every served request, outside the timed region.

        First by the service's own equivalence oracle: the same request
        run standalone, with the response's effective config and its
        parent epoch's warm state, must give the same export and the same
        payload. A divergence there is never explained by a known defect.
        A request that passes is then compared with the shipped cold
        digest; a mismatch there is laid to defect (a) only when the
        request ran warm on state that held another (domain, seed)'s
        answers. Last, a few served (domain, n_interfaces, seed) run warm
        on their own answers must match the cold digest; a mismatch there
        makes the run incorrect, although no served request failed.
        """
        epochs = self._service.warm.epochs
        for request, response, got, foreign in self._served:
            parent = epochs[response.epoch_parent].warm
            dataset = dataset_mod.build_domain_dataset(
                request.domain, request.n_interfaces, request.seed)
            result = WebIQMatcher(response.effective_config).run(
                dataset, warm=None if parent.is_empty else parent)
            replayed = (
                oracle.canonical(strip_service_section(response.export))
                == oracle.canonical(run_result_to_dict(result))
                and got == oracle.digest(
                    oracle.payload_of_result(dataset, result)))
            if not replayed:
                out.fail("diverged")
            elif got != self.reference(request.domain, request.n_interfaces,
                                       request.seed):
                out.fail("mismatched", known_defect=foreign)
        for request in self._own_warm_sample():
            if not self._own_warm_agrees(request):
                out.add("own_warm_mismatched", 1)
                out.add("unexplained", 1)
        self._served = []
        self._service = None

    def _own_warm_sample(self) -> List[MatchRequest]:
        """The first few distinct (domain, n_interfaces, seed) served."""
        sample: Dict[Tuple[str, int, int], MatchRequest] = {}
        for request, _, _, _ in self._served:
            if len(sample) == SERVICE_OWN_WARM_CHECKS:
                break
            sample.setdefault(
                (request.domain, request.n_interfaces, request.seed), request)
        return list(sample.values())

    def _own_warm_agrees(self, request: MatchRequest) -> bool:
        """Does a warm run on state that holds only its own corpus's
        answers match the cold reference? Defect (a) cannot touch such a
        run, so this checks the warm path itself, which the replay above
        shares with the served run."""
        config = WebIQConfig(cache=CacheConfig())
        key = (request.domain, request.n_interfaces, request.seed)
        cold = WebIQMatcher(config).run(dataset_mod.build_domain_dataset(*key))
        dataset = dataset_mod.build_domain_dataset(*key)
        warm = WebIQMatcher(config).run(dataset, warm=cold.cache_content)
        return oracle.digest(oracle.payload_of_result(dataset, warm)) \
            == self.reference(*key)

WORKLOADS = {cls.name: cls for cls in (Batch, RegistryIngest, ServiceMixed)}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
