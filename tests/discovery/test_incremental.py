"""Tests for incremental RFD maintenance under insertions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import MISSING, Attribute, AttributeType, Relation
from repro.datasets import load_dataset
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.discovery.incremental import (
    IncrementalDiscovery,
    MaintenanceReport,
)
from repro.distance import kernels
from repro.distance.levenshtein import levenshtein_bounded
from repro.distance.pattern import PatternCalculator
from repro.evaluation.injection import inject_missing
from repro.exceptions import DiscoveryError
from repro.rfd import holds


def _base() -> Relation:
    return Relation.from_rows(
        ["Zip", "City"],
        [
            ["90001", "Los Angeles"],
            ["90001", "Los Angeles"],
            ["94101", "San Francisco"],
            ["94101", "San Francisco"],
        ],
        name="inc",
    )


@pytest.fixture()
def tracker() -> IncrementalDiscovery:
    return IncrementalDiscovery(
        _base(), DiscoveryConfig(threshold_limit=3, grid_size=3)
    )


class TestInvariant:
    def test_initial_set_matches_batch(self, tracker):
        batch = discover_rfds(
            _base(), DiscoveryConfig(threshold_limit=3, grid_size=3)
        )
        assert set(tracker.rfds) == set(batch.rfds)

    def test_maintained_rfds_hold_after_inserts(self, tracker):
        tracker.insert([["90001", "Los Angles"]])   # typo, distance 1
        tracker.insert([["10001", "New York"]])
        calculator = PatternCalculator(tracker.relation)
        for rfd in tracker.rfds:
            assert holds(rfd, calculator), str(rfd)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["90001", "94101", "10001"]),
                st.sampled_from(
                    ["Los Angeles", "San Francisco", "New York", "LA"]
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_property_holding_invariant(self, rows):
        tracker = IncrementalDiscovery(
            _base(), DiscoveryConfig(threshold_limit=4, grid_size=3)
        )
        tracker.insert(list(map(list, rows)))
        calculator = PatternCalculator(tracker.relation)
        assert all(holds(rfd, calculator) for rfd in tracker.rfds)


class TestMaintenance:
    def test_clean_insert_keeps_everything(self, tracker):
        before = set(tracker.rfds)
        report = tracker.insert([["90001", "Los Angeles"]])
        assert report.unchanged == len(before)
        assert not report.dropped and not report.loosened

    def test_violating_insert_loosens_within_limit(self, tracker):
        zip_city = [
            rfd for rfd in tracker.rfds
            if rfd.lhs_attributes == ("Zip",)
            and rfd.rhs_attribute == "City"
        ]
        assert zip_city
        tightest = min(rfd.rhs_threshold for rfd in zip_city)
        # A same-zip tuple whose city differs by a small edit distance.
        report = tracker.insert([["90001", "Los Angelas"]])
        loosened_pairs = [
            (old, new) for old, new in report.loosened
            if old.rhs_attribute == "City"
        ]
        if tightest < 1:
            assert loosened_pairs, report.summary()
            for old, new in loosened_pairs:
                assert new.rhs_threshold > old.rhs_threshold

    def test_violating_insert_beyond_limit_drops(self, tracker):
        report = tracker.insert([["90001", "A Completely Different Town"]])
        dropped_city = [
            rfd for rfd in report.dropped if rfd.rhs_attribute == "City"
        ]
        assert dropped_city
        calculator = PatternCalculator(tracker.relation)
        assert all(holds(rfd, calculator) for rfd in tracker.rfds)

    def test_key_becomes_usable(self):
        relation = Relation.from_rows(
            ["K", "V"],
            [["aaaa", "x"], ["zzzz", "y"]],
        )
        tracker = IncrementalDiscovery(
            relation, DiscoveryConfig(threshold_limit=2, grid_size=3)
        )
        keyish = [
            rfd for rfd in tracker.key_rfds
            if rfd.lhs_attributes == ("K",)
        ]
        assert keyish  # K(<=0)-style dependency starts as a key
        report = tracker.insert([["aaaa", "x"]])
        assert report.dekeyed
        calculator = PatternCalculator(tracker.relation)
        assert all(holds(rfd, calculator) for rfd in tracker.rfds)

    def test_report_summary(self, tracker):
        report = tracker.insert([["90001", "Los Angeles"]])
        assert "+1 tuples" in report.summary()

    def test_bad_row_width(self, tracker):
        with pytest.raises(DiscoveryError):
            tracker.insert([["only-one"]])

    def test_original_relation_untouched(self):
        base = _base()
        tracker = IncrementalDiscovery(
            base, DiscoveryConfig(threshold_limit=3)
        )
        tracker.insert([["10001", "New York"]])
        assert base.n_tuples == 4


class PerPairOracle(IncrementalDiscovery):
    """Maintenance with the per-pair distance loops: every (new row,
    other row) pair once, LHS constraints with an early exit, string
    distances banded at the attribute's cap behind a length filter."""

    def _new_pairs(self, rfds, new_rows):
        calculator = PatternCalculator(self.relation)
        caps = {
            name: int(math.ceil(cap))
            for name, cap in self._attribute_caps().items()
            if calculator.function_for(name).name == "edit_distance"
        }

        def distance(row_a, row_b, name):
            cap = caps.get(name)
            if cap is None:
                return calculator.distance(row_a, row_b, name)
            a = self.relation.value(row_a, name)
            b = self.relation.value(row_b, name)
            if a is MISSING or b is MISSING:
                return MISSING
            a, b = str(a), str(b)
            if abs(len(a) - len(b)) > cap:
                return float(cap + 1)
            return float(levenshtein_bounded(a, b, cap))

        def lhs_pairs(rfd):
            new_set = set(new_rows)
            for new_row in new_rows:
                for other in range(self.relation.n_tuples):
                    if other == new_row:
                        continue
                    if other in new_set and other > new_row:
                        continue  # new-new pairs once
                    if all(
                        constraint.is_satisfied_by(
                            distance(new_row, other, constraint.attribute)
                        )
                        for constraint in rfd.lhs
                    ):
                        yield new_row, other

        matched, worsts = [], []
        for rfd in rfds:
            worst = None
            found = False
            for new_row, other in lhs_pairs(rfd):
                found = True
                value = distance(new_row, other, rfd.rhs_attribute)
                if value is MISSING:
                    continue
                if worst is None or float(value) > worst:
                    worst = float(value)
            matched.append(found)
            worsts.append(worst)
        return matched, worsts


_SCHEMA = [
    Attribute("Name"),
    Attribute("City"),
    Attribute("Year", AttributeType.INTEGER),
    Attribute("Open", AttributeType.BOOLEAN),
]
_ROWS = st.tuples(
    st.one_of(st.none(), st.sampled_from(
        ["Granita", "Granite", "Citrus", "Citrüs", "Fenix", "Fenix Argyle",
         ""]
    )),
    st.one_of(st.none(), st.sampled_from(
        ["LA", "L.A.", "Los Angeles", "Los Angles", "Malibu"]
    )),
    st.one_of(st.none(), st.integers(1990, 1996)),
    st.one_of(st.none(), st.booleans()),
)


class TestPerPairOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(_ROWS, min_size=2, max_size=7),
        batches=st.lists(
            st.lists(_ROWS, min_size=1, max_size=3), min_size=1, max_size=3
        ),
        limit=st.sampled_from([1, 2, 4]),
    )
    def test_maintenance_matches_per_pair_oracle(self, base, batches, limit):
        relation = Relation(
            _SCHEMA,
            {
                attribute.name: [
                    MISSING if row[i] is None else row[i] for row in base
                ]
                for i, attribute in enumerate(_SCHEMA)
            },
        )
        config = DiscoveryConfig(threshold_limit=limit, grid_size=3)
        initial = discover_rfds(relation, config)
        tracker = IncrementalDiscovery(relation, config, initial=initial)
        oracle = PerPairOracle(relation, config, initial=initial)
        for batch in batches:
            rows = [[MISSING if v is None else v for v in row]
                    for row in batch]
            report = tracker.insert(rows)
            expected = oracle.insert(rows)
            assert report == expected
            assert tracker.rfds == oracle.rfds
            assert tracker.key_rfds == oracle.key_rfds


#: The maintained set of the seed-1 restaurant batch: every RFD holds.
RESTAURANT_RFDS = [
    "Phone(<=0) -> Address(<=0)",
    "Name(<=3), Phone(<=2) -> Address(<=0)",
    "Address(<=0), City(<=3) -> Phone(<=1)",
    "Address(<=0), Name(<=3) -> Phone(<=1)",
    "Address(<=0), Type(<=3) -> Phone(<=1)",
    "Address(<=0) -> Class(<=0)",
    "Phone(<=0) -> Class(<=0)",
    "Phone(<=2) -> Class(<=1)",
    "Type(<=0) -> Class(<=0)",
    "Type(<=3) -> Class(<=2)",
    "Address(<=3), Phone(<=2) -> Class(<=0)",
    "Address(<=3), Phone(<=3) -> Class(<=2)",
    "City(<=3), Phone(<=2) -> Class(<=0)",
    "Name(<=3), Phone(<=2) -> Class(<=0)",
    "Name(<=3), Phone(<=3) -> Class(<=2)",
    "Phone(<=2), Type(<=3) -> Class(<=0)",
]
#: Edit distances the kernels compute for that batch.
RESTAURANT_EDIT_DISTANCES = 1382


class TestWorkCounts:
    """The work one maintenance batch does, pinned: a change that keeps
    the maintained set but compares more values fails here."""

    def test_restaurant_batch_work_is_pinned(self, monkeypatch):
        clean = load_dataset("restaurant", seed=0)
        arriving = inject_missing(clean, rate=0.03, seed=1).relation
        batch = sorted(random.Random(1).sample(range(clean.n_tuples), 16))
        rest = sorted(set(range(clean.n_tuples)) - set(batch))
        base = Relation.from_rows(
            list(clean.attributes),
            [clean.row_values(row) for row in rest],
            name="restaurant",
        )
        tracker = IncrementalDiscovery(
            base,
            DiscoveryConfig(threshold_limit=3, max_lhs_size=2, grid_size=3),
        )
        pairs = []
        bounded_many = kernels.levenshtein_bounded_many

        def counted(sources, targets, limit):
            pairs.append(len(sources))
            return bounded_many(sources, targets, limit)

        monkeypatch.setattr(kernels, "levenshtein_bounded_many", counted)
        report = tracker.insert([arriving.row_values(row) for row in batch])
        assert sum(pairs) == RESTAURANT_EDIT_DISTANCES
        assert report == MaintenanceReport(
            inserted_tuples=16, unchanged=len(RESTAURANT_RFDS)
        )
        assert [str(rfd) for rfd in tracker.rfds] == RESTAURANT_RFDS
        assert tracker.key_rfds == []
