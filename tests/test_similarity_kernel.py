"""Differential tests: the profile/index kernels against the references.

IceQ evaluates ``Sim`` from per-view :class:`AttributeProfile` objects,
and §5 case-2 donor scoring searches a token-indexed
:class:`~repro.core.acquisition._ValueIndex`. Both are fast paths over
definitions kept as plain functions — ``label_similarity``,
``domain_similarity``, ``value_similarity`` and ``values_similar`` — and
must agree with them exactly (``==``, not ``approx``): the exports
pinned by ``tests/test_kernel_golden.py`` depend on every float.

The string strategies mix the inputs normalisation code most easily
gets wrong: surrounding and inner whitespace, case changes, duplicates,
empty and blank strings, malformed numbers (``"1,2,3"``), money
(``"$1,200"``) and the two date shapes (``"Jan 15"``, ``"12/25/2006"``).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    InstanceAcquirer,
    _count_similar_values,
    _ValueIndex,
)
from repro.datasets import build_domain_dataset
from repro.matching.similarity import (
    AttributeView,
    SimilarityConfig,
    containment,
    domain_similarity,
    label_similarity,
    similarity_components,
    value_similarity,
    values_similar,
)

EDGE_VALUES = [
    "", " ", "  \t", "1,2,3", "12,34", "$1,200", "$ 15,200.50", "1200",
    "3.5", "0", "Jan 15", "jan 15", "January", "12/25/2006", "1-2",
    "United", "United Airlines", "united  airlines ", "Delta Air Lines",
    "Air Canada", "AIR canada", "New York", "new york city", "York",
]
WORDS = ["air", "Air", "lines", "united", "New", "york", "city", "15",
         "jan", "$5", "the", "a"]
LABEL_WORDS = ["from", "From", "city", "Cities", "departure", "date",
               "Price", "to", "on", "the", "airport", "city"]
SEPARATORS = [" ", "  ", "\t", " \n "]


@st.composite
def phrases(draw, vocabulary=WORDS, max_words=4):
    """A few vocabulary words joined by mixed whitespace, maybe padded."""
    words = draw(st.lists(st.sampled_from(vocabulary), min_size=0,
                          max_size=max_words))
    text = ""
    for index, word in enumerate(words):
        if index:
            text += draw(st.sampled_from(SEPARATORS))
        text += word
    return draw(st.sampled_from(["", " "])) + text + draw(
        st.sampled_from(["", " ", "\t"]))


values = st.one_of(st.sampled_from(EDGE_VALUES), phrases())
value_lists = st.lists(values, max_size=12)
labels = st.one_of(
    st.sampled_from(["", "From city", "Departure Cities", "Airline",
                     "the Carrier", "Price ($)", "Depart on", "to"]),
    phrases(LABEL_WORDS, max_words=5),
)
configs = st.sampled_from([
    SimilarityConfig(),
    SimilarityConfig(alpha=0.3, beta=0.7, numeric_family_factor=0.9),
])


def view(name, label, instances):
    return AttributeView("i-" + name, name, label, tuple(instances))


def naive_count(values_a, values_b):
    """The §5 partner count as first written: every pair compared."""
    return sum(1 for a in values_a if any(values_similar(a, b)
                                          for b in values_b))


class TestProfileSimilarity:
    @settings(max_examples=400, deadline=None)
    @given(labels, value_lists, labels, value_lists, configs)
    # word-count norms sqrt(2) and sqrt(3): where a reassociated cosine
    # denominator first loses the last bit
    @example("From city", ["Boston"], "Departure city airport", ["boston "],
             SimilarityConfig())
    def test_components_equal_reference_blend(self, label_a, values_a,
                                              label_b, values_b, config):
        a, b = view("a", label_a, values_a), view("b", label_b, values_b)
        label_sim = label_similarity(label_a, label_b)
        dom_sim = domain_similarity(values_a, values_b, config)
        expected = (label_sim, dom_sim,
                    config.alpha * label_sim + config.beta * dom_sim)
        assert similarity_components(a, b, config) == expected
        # a second evaluation reads the cached profiles
        assert similarity_components(a, b, config) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["1", "25", "3.5", "$1,200", "$30",
                                     "1,2,3", "12/25/2006", "Jan 15", "x"]),
                    min_size=1, max_size=8),
           st.lists(st.sampled_from(["2", "40", "7.25", "$15", "$ 9",
                                     "12,34", "1/2", "Feb", "y"]),
                    min_size=1, max_size=8))
    def test_numeric_and_date_domains(self, values_a, values_b):
        a, b = view("a", "Price", values_a), view("b", "Price", values_b)
        assert similarity_components(a, b)[1] == domain_similarity(
            values_a, values_b)

    def test_profile_is_built_once(self):
        a = view("a", "Departure city", ["Boston", "Chicago"])
        assert a.profile is a.profile


class TestPartnerIndex:
    @settings(max_examples=400, deadline=None)
    @given(value_lists, value_lists)
    def test_indexed_count_equals_naive_loop(self, values_a, values_b):
        assert _count_similar_values(
            _ValueIndex(values_a), _ValueIndex(values_b)
        ) == naive_count(values_a, values_b)

    @settings(max_examples=300, deadline=None)
    @given(value_lists, value_lists)
    def test_index_containment_equals_value_similarity(self, values_a,
                                                       values_b):
        assert containment(
            _ValueIndex(values_a).normalized, _ValueIndex(values_b).normalized
        ) == value_similarity(values_a, values_b)

    def test_duplicates_count_once_per_target_value(self):
        target = ["United", "united ", "United"]
        assert _count_similar_values(
            _ValueIndex(target), _ValueIndex(["United Airlines"])
        ) == naive_count(target, ["United Airlines"]) == 3


# ---------------------------------------------------------------- donors
def reference_case1(acquirer, interface, attribute):
    """``_case1_donors`` as written against the reference functions."""
    config = acquirer.config
    others = [y for y in interface.attributes
              if y.name != attribute.name and y.instances]
    scored = []
    for other_interface, donor in acquirer._donor_candidates(interface):
        sim = label_similarity(attribute.label, donor.label)
        if sim < config.label_sim_threshold:
            continue
        donor_values = donor.all_instances()
        if any(value_similarity(donor_values, list(y.instances))
               > config.domain_dissimilar_max for y in others):
            continue
        scored.append((sim, other_interface.interface_id, donor))
    scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
    return [(interface_id, donor) for _, interface_id, donor in scored]


def reference_case2(acquirer, interface, attribute):
    """``_case2_donors`` as written against the reference functions."""
    config = acquirer.config
    own = attribute.all_instances()
    scored = []
    for other_interface, donor in acquirer._donor_candidates(interface):
        donor_values = donor.all_instances()
        if not donor_values:
            continue
        if value_similarity(own, donor_values) >= config.case2_skip_overlap:
            continue
        overlap = naive_count(own, donor_values)
        if overlap >= config.min_similar_values:
            scored.append((overlap, other_interface.interface_id, donor))
    scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
    return [(interface_id, donor) for _, interface_id, donor in scored]


def identities(donors):
    return [(interface_id, id(donor)) for interface_id, donor in donors]


class CheckedAcquirer(InstanceAcquirer):
    """Checks every donor list the run computes against the reference,
    at the run's own state (acquired lists grow between calls)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = {"case1": 0, "case2": 0, "donors": 0}

    def _case1_donors(self, interface, attribute):
        got = super()._case1_donors(interface, attribute)
        assert identities(got) == identities(
            reference_case1(self, interface, attribute))
        self.checked["case1"] += 1
        self.checked["donors"] += len(got)
        return got

    def _case2_donors(self, interface, attribute):
        got = super()._case2_donors(interface, attribute)
        assert identities(got) == identities(
            reference_case2(self, interface, attribute))
        self.checked["case2"] += 1
        self.checked["donors"] += len(got)
        return got


@pytest.fixture(scope="module")
def airfare20():
    return build_domain_dataset("airfare", n_interfaces=20, seed=0)


def test_donor_lists_equal_reference_on_airfare20(airfare20):
    acquirer = CheckedAcquirer(airfare20.engine, airfare20.sources)
    acquirer.acquire(
        airfare20.interfaces,
        domain_keywords=airfare20.spec.keyword_terms(),
        object_name=airfare20.spec.object_name,
    )
    # both cases ran, and on real donor lists, not only empty ones
    assert acquirer.checked["case1"] > 0
    assert acquirer.checked["case2"] > 0
    assert acquirer.checked["donors"] > 0
    # the run-scoped index memo is released when acquire() returns
    assert not acquirer._value_indexes
