"""Focused tests for the §5 donor-selection rules."""

import pytest

from repro.core.acquisition import (
    AcquisitionConfig,
    InstanceAcquirer,
    _count_similar_values,
    _ValueIndex,
)
from repro.deepweb.models import Attribute, AttributeKind, QueryInterface
from repro.surfaceweb.engine import SearchEngine


def select(name, label, values):
    return Attribute(name=name, label=label, kind=AttributeKind.SELECT,
                     instances=tuple(values))


def text(name, label, acquired=()):
    attr = Attribute(name=name, label=label)
    attr.acquired.extend(acquired)
    return attr


def acquirer_with(interfaces, config=None):
    acq = InstanceAcquirer(SearchEngine([]), {},
                           config or AcquisitionConfig())
    acq._interfaces = interfaces
    return acq


class TestCountSimilarValues:
    def test_exact_matches(self):
        assert _count_similar_values(
            _ValueIndex(["a", "b"]), _ValueIndex(["A", "c"])) == 1

    def test_word_overlap_matches(self):
        assert _count_similar_values(
            _ValueIndex(["United Airlines"]),
            _ValueIndex(["United", "Delta"])) == 1

    def test_empty(self):
        assert _count_similar_values(_ValueIndex([]), _ValueIndex(["a"])) == 0


class TestCase1Donors:
    def make_world(self):
        target_if = QueryInterface("t", "airfare", "flight", [
            text("from", "From"),
            select("class", "Class", ["Economy", "Business"]),
        ])
        donor_if = QueryInterface("d", "airfare", "flight", [
            text("fromcity", "From city",
                 acquired=[f"City{i}" for i in range(10)]),
            select("class", "Class", ["Economy", "First Class"]),
        ])
        return target_if, donor_if

    def test_label_similar_donor_found(self):
        target_if, donor_if = self.make_world()
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert [(i, d.label) for i, d in donors] == [("d", "From city")]

    def test_label_threshold_gates(self):
        target_if, donor_if = self.make_world()
        config = AcquisitionConfig(label_sim_threshold=0.9)
        acq = acquirer_with([target_if, donor_if], config)
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert donors == []

    def test_donor_similar_to_sibling_predefined_rejected(self):
        # donor's domain overlaps the target interface's Class values ->
        # "very unlikely that Y has pre-defined values while X1 does not"
        target_if, donor_if = self.make_world()
        clash = text("fromclash", "From options",
                     acquired=["Economy", "Business"] +
                              [f"v{i}" for i in range(8)])
        donor_if.attributes.append(clash)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert "From options" not in [d.label for _, d in donors]

    def test_failed_acquisitions_not_donors(self):
        target_if, donor_if = self.make_world()
        junky = text("fromjunk", "From place", acquired=["junk1", "junk2"])
        donor_if.attributes.append(junky)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert "From place" not in [d.label for _, d in donors]

    def test_same_interface_never_donates(self):
        target_if, _ = self.make_world()
        lonely = acquirer_with([target_if])
        donors = lonely._case1_donors(target_if, target_if.attribute("from"))
        assert donors == []

    def test_donors_sorted_by_label_similarity(self):
        target_if, donor_if = self.make_world()
        exact = text("from2", "From", acquired=[f"X{i}" for i in range(10)])
        donor_if.attributes.append(exact)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert donors[0][1].label == "From"


class TestCase2Donors:
    def make_world(self, donor_values):
        # enough own values that a 2-value overlap stays well under the
        # case2_skip_overlap containment threshold
        target_if = QueryInterface("t", "airfare", "flight", [
            select("airline", "Airline",
                   ["Air Canada", "United Airlines", "Delta Air Lines",
                    "Southwest Airlines", "Alaska Airlines",
                    "JetBlue Airways"]),
        ])
        donor_if = QueryInterface("d", "airfare", "flight", [
            select("airline", "Carrier", donor_values),
        ])
        return target_if, donor_if

    def test_two_shared_values_qualify(self):
        target_if, donor_if = self.make_world(
            ["Air Canada", "United Airlines", "Aer Lingus", "KLM",
             "Alitalia", "Iberia", "Finnair"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert [(i, d.label) for i, d in donors] == [("d", "Carrier")]

    def test_one_shared_value_insufficient(self):
        target_if, donor_if = self.make_world(
            ["Air Canada", "Aer Lingus", "KLM", "Alitalia"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert donors == []

    def test_near_identical_domain_skipped(self):
        # nothing to gain from a donor whose values X1 already has
        target_if, donor_if = self.make_world(
            ["Air Canada", "United Airlines", "Delta Air Lines",
             "Southwest Airlines", "Alaska Airlines"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert donors == []
