"""Instance-acquisition orchestration (paper §5, "Instance Acquisition").

For every attribute ``X1`` across all interfaces:

1. If ``X1`` has **no** instances: gather from the Surface Web (Surface).
   a. If at least ``k`` instances were gathered, stop.
   b. Otherwise borrow from other attributes and validate via the Deep Web
      (Attr-Deep) — not via the Surface Web, which already failed.
2. If ``X1`` has pre-defined instances: borrow and validate via the Surface
   Web (Attr-Surface) — the Deep Web cannot be used because a SELECT widget
   physically rejects foreign values.

Borrowing is restricted to donors "whose domains are deemed potentially
similar": in case 1, donors with similar labels whose domain differs from
every other attribute on ``X1``'s interface; in case 2, donors sharing at
least two very similar values with ``X1``.

Implementation note: the paper iterates attributes one by one; we run the
Surface step for *all* attributes before any borrowing, so that every
Surface-acquired instance set is available as a donor regardless of
iteration order. This keeps results order-independent and matches the
paper's intent (donors in its examples already have instances).

The three phase loops are planned as an explicit
:class:`~repro.exec.dag.ExecutionDAG` — one :class:`~repro.exec.dag.WorkUnit`
per checkpoint unit, phases as barrier stages — and run serially, unit by
unit, in the DAG's canonical order. That order is the checkpoint journal's
record order, so the plan *is* the journal-boundary layout.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.checkpoint.session import CheckpointSession, ReplayedUnit, UnitCapture
from repro.core.attr_deep import AttrDeepValidator
from repro.core.attr_surface import AttrSurfaceValidator, ClassifierConfig
from repro.core.surface import SurfaceConfig, SurfaceDiscoverer, WebValidator
from repro.deepweb.models import Attribute, QueryInterface
from repro.deepweb.source import DeepWebSource
from repro.exec.context import unit_scope
from repro.exec.dag import ExecutionDAG, WorkUnit
from repro.matching.similarity import (
    containment,
    label_cosine,
    label_vector,
    values_similar,
)
from repro.obs.instrument import Observability
from repro.obs.provenance import (
    PHASE_ATTR_DEEP,
    PHASE_ATTR_SURFACE,
    InstanceLineage,
    ProbeVerdict,
    ProvenanceRecorder,
    ValidationEvidence,
)
from repro.perf.cache import ValidationCache
from repro.resilience.client import ResilientClient
from repro.surfaceweb.engine import SearchEngine
from repro.util.clock import SimulatedClock
from repro.webstack import component_scope

__all__ = [
    "AcquisitionConfig",
    "AcquisitionRecord",
    "AcquisitionReport",
    "InstanceAcquirer",
]

AttrKey = Tuple[str, str]


@dataclass(frozen=True)
class AcquisitionConfig:
    """Policy knobs of §5."""

    #: success bar: "if WebIQ obtains at least 10 instances, then the
    #: acquisition process is deemed successful"
    k: int = 10
    #: minimum label similarity for a case-1 donor
    label_sim_threshold: float = 0.3
    #: a case-1 donor is rejected if its domain overlaps any other attribute
    #: of X1's interface more than this
    domain_dissimilar_max: float = 0.3
    #: case-2 condition: "at least two values, one from each domain, which
    #: are very similar"
    min_similar_values: int = 2
    #: donors tried per attribute (bounds probing/validation cost)
    max_donors: int = 4
    #: donors tried per pre-defined attribute in case 2 (each costs many
    #: validation queries: Attr-Surface is the most query-hungry component)
    case2_max_donors: int = 2
    #: a case-2 donor whose domain already overlaps X1's this much is skipped:
    #: borrowing from it cannot make the domains noticeably more similar
    case2_skip_overlap: float = 0.5
    #: cap on values added to a pre-defined attribute by Attr-Surface
    max_borrow_enrichment: int = 12
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)


@dataclass
class AcquisitionRecord:
    """What happened for one attribute during acquisition."""

    interface_id: str
    attribute: str
    label: str
    had_instances: bool
    n_after_surface: int = 0
    n_after_borrow: int = 0
    surface_attempted: bool = False
    borrow_deep_attempted: bool = False
    borrow_surface_attempted: bool = False

    def success(self, k: int) -> bool:
        return self.n_after_borrow >= k

    def surface_success(self, k: int) -> bool:
        return self.n_after_surface >= k


@dataclass
class AcquisitionReport:
    """Per-attribute records plus per-component query accounting."""

    records: List[AcquisitionRecord] = field(default_factory=list)
    surface_queries: int = 0
    attr_surface_queries: int = 0
    attr_deep_probes: int = 0
    k: int = 10

    def record_for(self, interface_id: str, attribute: str) -> AcquisitionRecord:
        for record in self.records:
            if record.interface_id == interface_id and record.attribute == attribute:
                return record
        raise KeyError((interface_id, attribute))

    def _no_instance_records(self) -> List[AcquisitionRecord]:
        return [r for r in self.records if not r.had_instances]

    @property
    def surface_success_rate(self) -> float:
        """Table 1 column 6: Surface-only success over no-instance attributes."""
        targets = self._no_instance_records()
        if not targets:
            return 0.0
        return 100.0 * sum(r.surface_success(self.k) for r in targets) / len(targets)

    @property
    def final_success_rate(self) -> float:
        """Table 1 column 7: Surface + Deep success over no-instance attributes."""
        targets = self._no_instance_records()
        if not targets:
            return 0.0
        return 100.0 * sum(r.success(self.k) for r in targets) / len(targets)


class InstanceAcquirer:
    """Runs the §5 acquisition policy over a set of interfaces."""

    def __init__(
        self,
        engine: SearchEngine,
        sources: Dict[str, DeepWebSource],
        config: AcquisitionConfig = AcquisitionConfig(),
        resilience: Optional[ResilientClient] = None,
        validation_cache: Optional[ValidationCache] = None,
        clock: Optional[SimulatedClock] = None,
        obs: Optional[Observability] = None,
        checkpoint: Optional[CheckpointSession] = None,
    ) -> None:
        """``engine`` and ``sources`` may be the raw substrates or the
        facades of a :func:`~repro.webstack.build_web_stack` call chain,
        whose calls each phase spends on its own component; pass the
        chain's ``resilience`` client to skip attributes gracefully once
        their component's budget is exhausted.

        ``validation_cache``, when given, is shared by Surface discovery
        and the Attr-Surface classifier so they reuse each other's hit
        counts; when ``None`` each validator keeps its own memo (the
        uncached baseline behaviour).

        ``clock``, when given, is charged each phase's simulated remote
        latency as the phase completes (the pipeline used to charge the
        run's totals at the end; per-phase charging is equivalent — the
        same per-account count is charged exactly once — but gives
        observability spans meaningful end timestamps). ``obs`` wraps
        every phase in a trace span.

        ``checkpoint``, when given, brackets every per-attribute unit of
        work: completed units are journaled durably, and on resume the
        journaled ones are replayed without issuing a single engine query
        or source probe (see :mod:`repro.checkpoint`)."""
        self.engine = engine
        self.sources = sources
        self.config = config
        self.resilience = resilience
        self.clock = clock
        self.obs = obs
        self.checkpoint = checkpoint
        self._interfaces: List[QueryInterface] = []
        self._domain_keywords: List[str] = []
        self._object_name: str = "object"
        # The unit bracket currently open — exceptions escaping acquire()
        # are stamped with it so the supervisor can attribute the crash
        # to a (phase, interface, attribute) and quarantine repeat
        # offenders.
        self._current_unit: Optional[Tuple[str, str, str]] = None
        # Donor-scoring indexes, keyed by value content, and label word
        # vectors, keyed by label; both live for one acquire() call
        # (instance lists grow as the run proceeds).
        self._value_indexes: Dict[tuple, _ValueIndex] = {}
        self._label_vectors: Dict[str, Tuple[Dict[str, int], float]] = {}
        self.validation_cache = validation_cache
        self._discoverer = SurfaceDiscoverer(
            engine, config.surface, validation_cache=validation_cache,
            provenance=self.provenance,
        )
        self._web_validator = WebValidator(engine, cache=validation_cache)
        self._attr_surface = AttrSurfaceValidator(
            self._web_validator, config.classifier
        )
        self._attr_deep = AttrDeepValidator(sources)
        if checkpoint is not None:
            # Cross-unit memo stores whose growth each unit must journal:
            # with a shared validation cache there is one; without, the
            # Surface discoverer and the Attr-Surface validator each keep
            # a private memo that still spans units.
            if validation_cache is not None:
                checkpoint.register_validation_store(
                    "validation", validation_cache
                )
            else:
                checkpoint.register_validation_store(
                    "validation:surface", self._discoverer.validator.cache
                )
                checkpoint.register_validation_store(
                    "validation:attr_surface", self._web_validator.cache
                )
            checkpoint.register_probe_memo(self._attr_deep.probe_memo)

    def acquire(
        self,
        interfaces: Sequence[QueryInterface],
        domain_keywords: Sequence[str] = (),
        object_name: str = "object",
        enable_surface: bool = True,
        enable_attr_deep: bool = True,
        enable_attr_surface: bool = True,
    ) -> AcquisitionReport:
        """Acquire instances for every attribute; mutates ``attr.acquired``.

        Any exception escaping a unit bracket is stamped with the unit's
        ``(phase, interface, attribute)`` key (as ``exc.webiq_unit``) so a
        supervisor can attribute the crash without parsing messages.
        """
        try:
            return self._acquire(
                interfaces, domain_keywords, object_name,
                enable_surface, enable_attr_deep, enable_attr_surface,
            )
        except Exception as exc:
            if self._current_unit is not None \
                    and not hasattr(exc, "webiq_unit"):
                try:
                    exc.webiq_unit = self._current_unit
                except AttributeError:
                    pass  # exceptions with __slots__: crash stays unattributed
            raise
        finally:
            self._value_indexes.clear()
            self._label_vectors.clear()

    def _acquire(
        self,
        interfaces: Sequence[QueryInterface],
        domain_keywords: Sequence[str],
        object_name: str,
        enable_surface: bool,
        enable_attr_deep: bool,
        enable_attr_surface: bool,
    ) -> AcquisitionReport:
        self._interfaces = list(interfaces)
        self._domain_keywords = list(domain_keywords)
        self._object_name = object_name
        report = AcquisitionReport(k=self.config.k)
        for interface in interfaces:
            for attribute in interface.attributes:
                report.records.append(
                    AcquisitionRecord(
                        interface_id=interface.interface_id,
                        attribute=attribute.name,
                        label=attribute.label,
                        had_instances=attribute.has_instances,
                    )
                )

        if not enable_surface:
            for record in report.records:
                record.n_after_surface = 0
        dag = self.plan(
            interfaces, report,
            enable_surface=enable_surface,
            enable_attr_deep=enable_attr_deep,
            enable_attr_surface=enable_attr_surface,
        )
        for phase in dag.phases:
            self._run_phase(phase, report)

        # Final instance counts for attributes no borrowing phase touched.
        for interface in interfaces:
            for attribute in interface.attributes:
                record = report.record_for(interface.interface_id, attribute.name)
                record.n_after_borrow = max(
                    record.n_after_borrow, self._acquired_count(attribute)
                )
        return report

    # ----------------------------------------------------------- planning
    def plan(self, interfaces, report: AcquisitionReport,
             enable_surface: bool = True, enable_attr_deep: bool = True,
             enable_attr_surface: bool = True) -> ExecutionDAG:
        """Enumerate the run's checkpoint units into an explicit DAG.

        Enumeration is state-independent: which units exist depends only
        on the interfaces and the enabled phases, never on what earlier
        units produced (per-unit gates like "Surface already reached k"
        stay *inside* the unit, preserving the journal-boundary layout).
        """
        dag = ExecutionDAG()
        if enable_surface:
            dag.add_phase("surface", [
                WorkUnit("surface", interface, attribute,
                         report.record_for(interface.interface_id,
                                           attribute.name))
                for interface in interfaces
                for attribute in interface.attributes
                if not attribute.has_instances
            ])
        if enable_attr_deep:
            dag.add_phase("attr_deep", [
                WorkUnit("attr_deep", interface, attribute,
                         report.record_for(interface.interface_id,
                                           attribute.name))
                for interface in interfaces
                for attribute in interface.attributes
                # pre-defined values: handled by Attr-Surface
                if not attribute.has_instances
            ])
        if enable_attr_surface:
            dag.add_phase("attr_surface", [
                WorkUnit("attr_surface", interface, attribute,
                         report.record_for(interface.interface_id,
                                           attribute.name))
                for interface in interfaces
                for attribute in interface.attributes
                if attribute.has_instances
            ])
        return dag

    # ----------------------------------------------------------- execution
    def _run_phase(self, phase, report: AcquisitionReport) -> None:
        """Run one phase's units in canonical order.

        Accounting is accumulated per unit (not as one phase-wide counter
        delta): every query happens inside some unit, so the sum is
        identical — but per-unit deltas are what the checkpoint journal
        records and what replay re-charges.
        """
        with self._phase(phase.name):
            cost = sum(self._execute_unit(unit) for unit in phase.units)
            if phase.name == "surface":
                report.surface_queries += cost
                if self.clock is not None:
                    self.clock.charge_search_query("surface", cost)
            elif phase.name == "attr_deep":
                report.attr_deep_probes += cost
                if self.clock is not None:
                    self.clock.charge_deep_probe("attr_deep", cost)
            else:
                report.attr_surface_queries += cost
                if self.clock is not None:
                    self.clock.charge_search_query("attr_surface", cost)

    def _execute_unit(self, unit: WorkUnit) -> int:
        """One unit: replay it from the journal if a record is pending,
        honour quarantine, else run it fresh. Returns the unit's
        round-trip cost (queries, or probes for ``attr_deep``)."""
        replayed = self._replayed(unit.phase, unit.interface, unit.attribute,
                                  unit.record)
        if replayed is not None:
            queries, probes = replayed.queries, replayed.probes
        elif self._skip_quarantined(unit.phase, unit.interface,
                                    unit.attribute, unit.record):
            return 0
        else:
            # The unit scope partitions every sequential random stream
            # (backoff jitter, source fault fates) by unit key, making the
            # unit's draws independent of execution order and resume point.
            with unit_scope(unit.key):
                queries, probes = self._fresh_unit(unit)
        return probes if unit.phase == "attr_deep" else queries

    def _fresh_unit(self, unit: WorkUnit) -> Tuple[int, int]:
        """Run one unit fresh and journal it; returns its ``(queries,
        probes)``, measured here once for the phase charge and the
        journal record alike."""
        interface, attribute, record = unit.interface, unit.attribute, unit.record
        capture = self._begin(unit.phase, interface, attribute)
        if unit.phase == "attr_deep" \
                and record.n_after_surface >= self.config.k:
            record.n_after_borrow = record.n_after_surface
            # step 1.a succeeded — still a (zero-cost) journal
            # boundary, so replay enumerates the same units
            self._commit(capture, attribute, record, (0, 0))
            return 0, 0
        if self._skip_exhausted(unit.phase, interface, attribute):
            self._commit(capture, attribute, record, (0, 0), skipped=True)
            return 0, 0
        queries, probes = self._round_trips()
        if unit.phase == "surface":
            record.surface_attempted = True
            with self._subject(interface.interface_id, attribute.name):
                result = self._discoverer.discover(
                    attribute, self._domain_keywords, self._object_name
                )
            attribute.acquired.extend(result.instances)
            record.n_after_surface = self._acquired_count(attribute)
        elif unit.phase == "attr_deep":
            record.borrow_deep_attempted = True
            self._borrow_via_deep(interface, attribute)
            record.n_after_borrow = self._acquired_count(attribute)
        else:
            record.borrow_surface_attempted = True
            self._borrow_via_surface(interface, attribute)
            record.n_after_borrow = self._acquired_count(attribute)
        queries_after, probes_after = self._round_trips()
        cost = (queries_after - queries, probes_after - probes)
        self._commit(capture, attribute, record, cost)
        return cost

    def _round_trips(self) -> Tuple[int, int]:
        """The raw substrates' ``(queries, probes)`` counters, as of now."""
        return (self.engine.query_count,
                sum(s.probe_count for s in self.sources.values()))

    def _borrow_via_deep(self, interface: QueryInterface,
                         attribute: Attribute) -> None:
        donors = self._case1_donors(interface, attribute)
        have = {v.lower() for v in attribute.all_instances()}
        provenance = self.provenance
        for donor_interface_id, donor in donors[: self.config.max_donors]:
            if len(have) >= self.config.k:
                break
            values = [
                v for v in donor.all_instances() if v.lower() not in have
            ]
            result = self._attr_deep.validate(
                interface.interface_id, attribute.name, values
            )
            verdict = None
            if provenance is not None and result.accepted:
                verdict = ProbeVerdict(
                    successes=result.successes,
                    sampled=result.sampled,
                    probes_issued=result.probes_issued,
                    accept_ratio=self._attr_deep.accept_ratio,
                    accepted=True,
                )
            for value in result.accepted:
                if value.lower() not in have:
                    have.add(value.lower())
                    attribute.acquired.append(value)
                    if provenance is not None:
                        provenance.record_lineage(InstanceLineage(
                            interface_id=interface.interface_id,
                            attribute=attribute.name,
                            value=value,
                            phase=PHASE_ATTR_DEEP,
                            donor=(donor_interface_id, donor.name),
                            probe=verdict,
                        ))

    def _case1_donors(self, interface: QueryInterface,
                      attribute: Attribute) -> List[Tuple[str, Attribute]]:
        """Donor ``(interface_id, attribute)`` pairs for a no-instance
        attribute (§5 case 1) — the donor's identity travels with it so
        borrowed instances can carry a provenance-grade donor key.

        The donor's label must be similar to X1's, and its domain must
        differ from every *other* attribute on X1's interface ("if Y and X1
        have similar domains, it is very unlikely that Y has some
        pre-defined values while X1 does not"). Note the rationale is about
        *pre-defined* values, so only Y's pre-defined instances participate:
        instances Y itself acquired from the Web say nothing about what the
        interface designer pre-defined.
        """
        others = [
            frozenset(v.strip().lower() for v in y.instances)
            for y in interface.attributes
            if y.name != attribute.name and y.instances
        ]
        scored: List[Tuple[float, str, Attribute]] = []
        target = self._label_vector(attribute.label)
        for other_interface, donor in self._donor_candidates(interface):
            sim = label_cosine(*target, *self._label_vector(donor.label))
            if sim < self.config.label_sim_threshold:
                continue
            donor_values = self._value_index(donor).normalized
            if any(
                containment(donor_values, y_values)
                > self.config.domain_dissimilar_max
                for y_values in others
            ):
                continue
            scored.append((sim, other_interface.interface_id, donor))
        scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
        return [(interface_id, donor) for _, interface_id, donor in scored]

    def _borrow_via_surface(self, interface: QueryInterface,
                            attribute: Attribute) -> None:
        donors = self._case2_donors(interface, attribute)
        if not donors:
            return
        classifier = self._attr_surface.build_classifier(attribute, interface)
        if classifier is None:
            return
        have = {v.lower() for v in attribute.all_instances()}
        provenance = self.provenance
        added = 0
        for donor_interface_id, donor in donors[: self.config.case2_max_donors]:
            if added >= self.config.max_borrow_enrichment:
                break
            fresh = [v for v in donor.all_instances() if v.lower() not in have]
            for value in self._attr_surface.validate(classifier, fresh):
                if added >= self.config.max_borrow_enrichment:
                    break
                have.add(value.lower())
                attribute.acquired.append(value)
                added += 1
                if provenance is not None:
                    # Re-derives the already-memoised evidence (zero
                    # queries) behind the prediction that admitted value.
                    vector, features, posterior = classifier.explain(value)
                    provenance.record_lineage(InstanceLineage(
                        interface_id=interface.interface_id,
                        attribute=attribute.name,
                        value=value,
                        phase=PHASE_ATTR_SURFACE,
                        validation=ValidationEvidence(
                            phrases=tuple(classifier.phrases),
                            scores=tuple(vector),
                            score=posterior,
                        ),
                        features=tuple(features),
                        posterior=posterior,
                        donor=(donor_interface_id, donor.name),
                    ))

    def _case2_donors(self, interface: QueryInterface,
                      attribute: Attribute) -> List[Tuple[str, Attribute]]:
        """Donor ``(interface_id, attribute)`` pairs for a pre-defined
        attribute (§5 case 2): the domains share at least
        ``min_similar_values`` very similar values."""
        own = self._value_index(attribute)
        scored: List[Tuple[int, str, Attribute]] = []
        for other_interface, donor in self._donor_candidates(interface):
            donor_index = self._value_index(donor)
            if not donor_index.values:
                continue
            if (
                containment(own.normalized, donor_index.normalized)
                >= self.config.case2_skip_overlap
            ):
                continue  # domains already similar: nothing to gain
            overlap = _count_similar_values(own, donor_index)
            if overlap >= self.config.min_similar_values:
                scored.append((overlap, other_interface.interface_id, donor))
        scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
        return [(interface_id, donor) for _, interface_id, donor in scored]

    # ----------------------------------------------------------- checkpoint
    def _replayed(self, phase: str, interface: QueryInterface,
                  attribute: Attribute,
                  record: AcquisitionRecord) -> Optional[ReplayedUnit]:
        """Replay this unit from the journal, if a record is pending.

        A replayed unit applies its recorded effects (acquired values,
        record fields, memo/cache growth) and reports its recorded cost —
        without a single engine query or source probe.
        """
        if self.checkpoint is None:
            return None
        return self.checkpoint.replay_unit(
            (phase, interface.interface_id, attribute.name),
            attribute, record,
        )

    def _skip_quarantined(self, phase: str, interface: QueryInterface,
                          attribute: Attribute,
                          record: AcquisitionRecord) -> bool:
        """Skip a unit the supervisor quarantined after repeated crashes.

        The skip is itself journaled (``quarantined=True``, zero cost, no
        saboteur) so replay enumerates the same boundaries and the
        degradation report can account for every attempted unit.
        """
        unit_key = (phase, interface.interface_id, attribute.name)
        if self.checkpoint is None \
                or not self.checkpoint.is_quarantined(unit_key):
            return False
        capture = self.checkpoint.begin_unit(
            unit_key, attribute, sabotage=False
        )
        self.checkpoint.commit_unit(
            capture, attribute, record, (0, 0), skipped=True,
            quarantined=True,
        )
        return True

    def _begin(self, phase: str, interface: QueryInterface,
               attribute: Attribute) -> Optional[UnitCapture]:
        if self.checkpoint is None:
            return None
        self._current_unit = (phase, interface.interface_id, attribute.name)
        return self.checkpoint.begin_unit(
            self._current_unit, attribute
        )

    def _commit(self, capture: Optional[UnitCapture], attribute: Attribute,
                record: AcquisitionRecord, cost: Tuple[int, int],
                skipped: bool = False) -> None:
        if self.checkpoint is not None and capture is not None:
            self.checkpoint.commit_unit(
                capture, attribute, record, cost, skipped=skipped
            )
        self._current_unit = None

    # ------------------------------------------------------------- helpers
    @property
    def provenance(self) -> Optional[ProvenanceRecorder]:
        """The run's decision recorder, if observability carries one."""
        return self.obs.provenance if self.obs is not None else None

    @contextmanager
    def _subject(self, interface_id: str, attribute: str) -> Iterator[None]:
        """Scope provenance records to one attribute (no-op unobserved)."""
        provenance = self.provenance
        if provenance is None:
            yield
        else:
            with provenance.subject(interface_id, attribute):
                yield

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Phase scope: every Web call inside is spent on component
        ``name``; observed runs also get a ``phase`` trace span."""
        with component_scope(name):
            if self.obs is None:
                yield
            else:
                with self.obs.tracer.span(name, kind="phase"):
                    yield

    def _skip_exhausted(self, component: str, interface: QueryInterface,
                        attribute: Attribute) -> bool:
        """Graceful degradation: once a component's budget is spent, skip
        its remaining attributes outright (recording each skip) instead of
        issuing calls that would all fast-fail anyway."""
        if self.resilience is None:
            return False
        if not self.resilience.budget_exhausted(component):
            return False
        self.resilience.skip_attribute(interface.interface_id, attribute.name)
        return True

    def _value_index(self, attribute: Attribute) -> "_ValueIndex":
        """The donor-scoring index of ``attribute.all_instances()``, built
        once per (pre-defined, acquired) content within this acquire()
        call."""
        key = (attribute.instances, tuple(attribute.acquired))
        index = self._value_indexes.get(key)
        if index is None:
            index = self._value_indexes[key] = _ValueIndex(
                attribute.all_instances())
        return index

    def _label_vector(self, label: str) -> Tuple[Dict[str, int], float]:
        """:func:`~repro.matching.similarity.label_vector` of ``label``,
        built once within this acquire() call."""
        vector = self._label_vectors.get(label)
        if vector is None:
            vector = self._label_vectors[label] = label_vector(label)
        return vector

    def _donor_candidates(self, interface: QueryInterface):
        """Attributes whose instance sets are trustworthy donor domains.

        Pre-defined SELECT values always qualify (however few — the
        interface designer vouches for them). Acquired instance sets only
        qualify when the acquisition *succeeded* (reached ``k``): a handful
        of leftover candidates from a failed extraction is mostly noise and
        would crowd out genuine donors.
        """
        for other in self._interfaces:
            if other.interface_id == interface.interface_id:
                continue
            for donor in other.attributes:
                if donor.has_instances or len(donor.acquired) >= self.config.k:
                    yield other, donor

    @staticmethod
    def _acquired_count(attribute: Attribute) -> int:
        return len(attribute.all_instances()) if not attribute.has_instances \
            else len(attribute.acquired)


class _ValueIndex:
    """One instance list, normalised once, for §5 donor scoring.

    ``normalized`` is the ``strip().lower()`` value set that
    :func:`~repro.matching.similarity.containment` compares; ``postings``
    maps each word of a normalised value to the positions of the values
    containing it. The per-value ``normalized_values`` and ``tokens``
    serve the list when it is the target side of
    :func:`_count_similar_values`.
    """

    __slots__ = ("values", "normalized_values", "tokens", "normalized",
                 "postings")

    def __init__(self, values: Sequence[str]) -> None:
        self.values: Tuple[str, ...] = tuple(values)
        self.normalized_values = tuple(v.strip().lower() for v in self.values)
        self.tokens = tuple(v.split() for v in self.normalized_values)
        self.normalized = frozenset(self.normalized_values)
        self.postings: Dict[str, List[int]] = {}
        for position, tokens in enumerate(self.tokens):
            for token in tokens:
                self.postings.setdefault(token, []).append(position)


def _count_similar_values(target: _ValueIndex, donor: _ValueIndex) -> int:
    """How many of ``target``'s values have a very similar partner among
    ``donor``'s values (paper §5, case 2).

    Equal normalised values match outright. Otherwise a word Jaccard of
    at least 0.5 needs a shared word, so only donor values sharing one
    can match (prefix filtering: no true partner is skipped); each is
    decided by :func:`~repro.matching.similarity.values_similar`.
    """
    count = 0
    postings, donor_values = donor.postings, donor.values
    for value, normalized, tokens in zip(
            target.values, target.normalized_values, target.tokens):
        if normalized in donor.normalized:
            count += 1
            continue
        candidates = {position for token in tokens
                      for position in postings.get(token, ())}
        if candidates and any(values_similar(value, donor_values[position])
                              for position in sorted(candidates)):
            count += 1
    return count
