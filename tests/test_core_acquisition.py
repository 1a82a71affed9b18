"""Tests for the §5 acquisition policy."""

import pytest

from repro.core.acquisition import (
    AcquisitionConfig,
    AcquisitionRecord,
    AcquisitionReport,
    InstanceAcquirer,
)
from repro.datasets import build_domain_dataset
from repro.deepweb.models import AttributeKind
from repro.exec import ExecutionDAG, WorkUnit


@pytest.fixture()
def airfare():
    ds = build_domain_dataset("airfare", n_interfaces=8, seed=7)
    ds.clear_acquired()
    ds.reset_counters()
    return ds


def acquire(ds, **flags):
    acquirer = InstanceAcquirer(ds.engine, ds.sources)
    return acquirer.acquire(
        ds.interfaces,
        domain_keywords=ds.spec.keyword_terms(),
        object_name=ds.spec.object_name,
        **flags,
    )


class TestPolicy:
    def test_records_cover_all_attributes(self, airfare):
        report = acquire(airfare)
        total = sum(len(i.attributes) for i in airfare.interfaces)
        assert len(report.records) == total

    def test_predefined_attributes_never_surface(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if record.had_instances:
                assert not record.surface_attempted
                assert not record.borrow_deep_attempted

    def test_no_instance_attributes_surface_first(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if not record.had_instances:
                assert record.surface_attempted

    def test_surface_success_skips_borrowing(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if not record.had_instances and record.surface_success(report.k):
                assert not record.borrow_deep_attempted

    def test_surface_failure_triggers_deep_borrowing(self, airfare):
        report = acquire(airfare)
        attempted = [
            r for r in report.records
            if not r.had_instances and not r.surface_success(report.k)
        ]
        assert attempted
        assert all(r.borrow_deep_attempted for r in attempted)

    def test_predefined_attributes_borrow_via_surface(self, airfare):
        report = acquire(airfare)
        assert any(
            r.borrow_surface_attempted for r in report.records
            if r.had_instances
        )

    def test_borrowing_rescues_prepositional_labels(self, airfare):
        report = acquire(airfare)
        rescued = [
            r for r in report.records
            if r.label in ("From", "To")
            and r.n_after_surface == 0 and r.n_after_borrow > 0
        ]
        assert rescued

    def test_select_values_never_mutated(self, airfare):
        before = {
            (i.interface_id, a.name): a.instances
            for i in airfare.interfaces for a in i.attributes
        }
        acquire(airfare)
        for interface in airfare.interfaces:
            for attr in interface.attributes:
                assert attr.instances == before[(interface.interface_id, attr.name)]

    def test_acquired_instances_attached(self, airfare):
        acquire(airfare)
        enriched = [
            a for i in airfare.interfaces for a in i.attributes
            if a.kind is AttributeKind.TEXT and a.acquired
        ]
        assert enriched

    def test_success_rates_bounded(self, airfare):
        report = acquire(airfare)
        assert 0 <= report.surface_success_rate <= 100
        assert report.surface_success_rate <= report.final_success_rate <= 100

    def test_query_accounting_split(self, airfare):
        report = acquire(airfare)
        assert report.surface_queries > 0
        assert report.attr_deep_probes > 0
        assert airfare.engine.query_count == \
            report.surface_queries + report.attr_surface_queries


class TestComponentFlags:
    def test_surface_disabled(self, airfare):
        report = acquire(airfare, enable_surface=False)
        assert report.surface_queries == 0
        assert all(not r.surface_attempted for r in report.records)

    def test_deep_disabled(self, airfare):
        report = acquire(airfare, enable_attr_deep=False)
        assert report.attr_deep_probes == 0
        assert report.final_success_rate == report.surface_success_rate

    def test_attr_surface_disabled(self, airfare):
        report = acquire(airfare, enable_attr_surface=False)
        assert report.attr_surface_queries == 0

    def test_deep_only_still_borrows(self, airfare):
        report = acquire(airfare, enable_surface=False,
                         enable_attr_surface=False)
        # donors are pre-defined selects; prepositional-label attrs whose
        # labels match a select (e.g. date selects) can still be rescued
        assert report.attr_deep_probes > 0


class TestReport:
    def test_record_lookup(self, airfare):
        report = acquire(airfare)
        interface = airfare.interfaces[0]
        record = report.record_for(interface.interface_id,
                                   interface.attributes[0].name)
        assert record.label == interface.attributes[0].label

    def test_record_lookup_missing(self, airfare):
        report = acquire(airfare)
        with pytest.raises(KeyError):
            report.record_for("nope", "nope")

    def test_empty_dataset_rates(self):
        report = AcquisitionReport()
        assert report.surface_success_rate == 0.0
        assert report.final_success_rate == 0.0


class _Iface:
    def __init__(self, iid):
        self.interface_id = iid


class _Attr:
    def __init__(self, name):
        self.name = name


def _unit(phase, iface, attr):
    return WorkUnit(phase, _Iface(iface), _Attr(attr), record=None)


class TestExecutionDAG:
    """The unit plan: its canonical order is the journal's record order."""

    def build(self):
        dag = ExecutionDAG()
        dag.add_phase("surface", [_unit("surface", "if0", "a"),
                                  _unit("surface", "if0", "b")])
        dag.add_phase("attr_deep", [_unit("attr_deep", "if1", "c")])
        return dag

    def test_canonical_order_is_plan_order(self):
        dag = self.build()
        assert [u.key for u in dag.units()] == [
            ("surface", "if0", "a"),
            ("surface", "if0", "b"),
            ("attr_deep", "if1", "c"),
        ]
        assert [u.index for u in dag.units()] == [0, 1, 2]
        assert dag.n_units == 3
        assert [p.name for p in dag.phases] == ["surface", "attr_deep"]

    def test_rejects_duplicate_phase(self):
        dag = self.build()
        with pytest.raises(ValueError, match="duplicate phase"):
            dag.add_phase("surface", [])

    def test_rejects_mismatched_unit(self):
        dag = ExecutionDAG()
        with pytest.raises(ValueError, match="declares phase"):
            dag.add_phase("surface", [_unit("attr_deep", "if0", "a")])

    def test_pipeline_plan_covers_every_checkpoint_unit(self):
        """The DAG enumerates exactly the pre-DAG serial iteration."""
        dataset = build_domain_dataset("book", 3, 1)
        acquirer = InstanceAcquirer(dataset.engine, dataset.sources)
        report = AcquisitionReport()
        for interface in dataset.interfaces:
            for attribute in interface.attributes:
                report.records.append(AcquisitionRecord(
                    interface_id=interface.interface_id,
                    attribute=attribute.name,
                    label=attribute.label,
                    had_instances=attribute.has_instances,
                ))
        dag = acquirer.plan(dataset.interfaces, report)
        assert [p.name for p in dag.phases] == [
            "surface", "attr_deep", "attr_surface"]
        keys = [u.key for u in dag.units()]
        assert len(keys) == len(set(keys))  # no unit twice
        # every non-prefilled attribute appears in surface and attr_deep;
        # every prefilled one in attr_surface
        for interface in dataset.interfaces:
            for attribute in interface.attributes:
                expected = (("attr_surface",) if attribute.has_instances
                            else ("surface", "attr_deep"))
                phases = [k[0] for k in keys
                          if k[1:] == (interface.interface_id,
                                       attribute.name)]
                assert tuple(phases) == expected
