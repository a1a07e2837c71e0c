"""Tests for RFD discovery: soundness, limits, keys, determinism."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import MISSING, Relation
from repro.datasets import load_dataset
from repro.discovery import DiscoveryConfig, count_lhs_sets, discover_rfds
from repro.distance.pattern import PatternCalculator
from repro.exceptions import DiscoveryError
from repro.rfd import holds
from repro.telemetry import Telemetry


class TestSoundness:
    def test_discovered_rfds_hold(self, zip_city_relation):
        result = discover_rfds(
            zip_city_relation,
            DiscoveryConfig(threshold_limit=3, max_lhs_size=2),
        )
        calculator = PatternCalculator(zip_city_relation)
        for rfd in result.rfds:
            assert holds(rfd, calculator), f"{rfd} does not hold"

    def test_finds_zip_city_dependency(self, zip_city_relation):
        result = discover_rfds(
            zip_city_relation, DiscoveryConfig(threshold_limit=3)
        )
        found = {
            (rfd.lhs_attributes, rfd.rhs_attribute) for rfd in result.rfds
        }
        assert (("Zip",), "City") in found

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ax", "bx", "cx", "dx"]),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=3,
            max_size=12,
        )
    )
    def test_property_soundness_on_random_relations(self, rows):
        relation = Relation.from_rows(["S", "N"], rows)
        result = discover_rfds(
            relation, DiscoveryConfig(threshold_limit=4, grid_size=3)
        )
        calculator = PatternCalculator(relation)
        assert all(holds(rfd, calculator) for rfd in result.rfds)


class TestLimits:
    def test_rhs_threshold_respects_limit(self, zip_city_relation):
        result = discover_rfds(
            zip_city_relation, DiscoveryConfig(threshold_limit=2)
        )
        assert all(rfd.rhs_threshold <= 2 for rfd in result.rfds)

    def test_lhs_threshold_respects_limit(self, zip_city_relation):
        config = DiscoveryConfig(threshold_limit=5, lhs_threshold_limit=1)
        result = discover_rfds(zip_city_relation, config)
        for rfd in result.rfds:
            for constraint in rfd.lhs:
                assert constraint.threshold <= 1

    def test_max_lhs_size(self, zip_city_relation):
        result = discover_rfds(
            zip_city_relation,
            DiscoveryConfig(threshold_limit=3, max_lhs_size=1),
        )
        assert all(len(rfd.lhs) == 1 for rfd in result.rfds)

    def test_higher_limit_finds_at_least_as_many(self, zip_city_relation):
        counts = []
        for limit in (1, 3, 6):
            result = discover_rfds(
                zip_city_relation,
                DiscoveryConfig(threshold_limit=limit, grid_size=4),
            )
            counts.append(len(result.rfds))
        assert counts == sorted(counts)

    def test_max_per_rhs_cap(self, zip_city_relation):
        capped = discover_rfds(
            zip_city_relation,
            DiscoveryConfig(threshold_limit=6, max_per_rhs=1),
        )
        per_rhs: dict[str, int] = {}
        for rfd in capped.rfds:
            per_rhs[rfd.rhs_attribute] = per_rhs.get(rfd.rhs_attribute, 0) + 1
        assert all(count <= 1 for count in per_rhs.values())


class TestKeys:
    def test_key_rfds_emitted_separately(self):
        # All-distinct strings with tight limits: everything is a key.
        relation = Relation.from_rows(
            ["A", "B"],
            [["aaaaaaaa", "bbbbbbbb"], ["cccccccc", "dddddddd"],
             ["eeeeeeee", "ffffffff"]],
        )
        result = discover_rfds(
            relation, DiscoveryConfig(threshold_limit=1)
        )
        assert result.rfds == []
        assert len(result.key_rfds) > 0
        assert len(result.all_rfds) == len(result.key_rfds)

    def test_include_keys_false(self):
        relation = Relation.from_rows(
            ["A", "B"], [["aaaaaaaa", "bbbbbbbb"], ["cccccccc", "dddddddd"]]
        )
        result = discover_rfds(
            relation,
            DiscoveryConfig(threshold_limit=1, include_keys=False),
        )
        assert result.key_rfds == []


class TestMissingData:
    def test_discovery_tolerates_missing_values(self):
        relation = Relation.from_rows(
            ["K", "V"],
            [["a", "x"], ["a", "x"], [MISSING, "y"], ["b", MISSING]],
        )
        result = discover_rfds(
            relation, DiscoveryConfig(threshold_limit=2)
        )
        calculator = PatternCalculator(relation)
        assert all(holds(rfd, calculator) for rfd in result.rfds)


class TestDeterminismAndStats:
    def test_deterministic(self, zip_city_relation):
        config = DiscoveryConfig(threshold_limit=3)
        first = discover_rfds(zip_city_relation, config)
        second = discover_rfds(zip_city_relation, config)
        assert first.rfds == second.rfds

    def test_sampled_discovery_deterministic(self):
        relation = Relation.from_rows(
            ["A", "B"], [[i % 7, (i * 3) % 5] for i in range(40)]
        )
        config = DiscoveryConfig(threshold_limit=3, max_pairs=100, seed=9)
        first = discover_rfds(relation, config)
        second = discover_rfds(relation, config)
        assert first.rfds == second.rfds
        assert not first.exact

    def test_summary_and_counts(self, zip_city_relation):
        result = discover_rfds(
            zip_city_relation, DiscoveryConfig(threshold_limit=3)
        )
        assert "discovered" in result.summary()
        assert sum(result.per_rhs_counts.values()) == len(result.rfds)
        assert len(result) == len(result.rfds) + len(result.key_rfds)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold_limit": -1},
            {"lhs_threshold_limit": -2},
            {"max_lhs_size": 0},
            {"grid_size": 0},
            {"max_pairs": 0},
            {"min_support_pairs": 0},
            {"max_per_rhs": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["threshold_limit", "lhs_threshold_limit", "attribute"]
    )
    def test_non_finite_limits_rejected(self, field, value):
        kwargs = (
            {"attribute_limits": {"LENGTH": value}}
            if field == "attribute"
            else {field: value}
        )
        with pytest.raises(DiscoveryError, match="finite"):
            DiscoveryConfig(**kwargs)

    def test_effective_lhs_limit(self):
        assert DiscoveryConfig(threshold_limit=5).effective_lhs_limit == 5
        assert (
            DiscoveryConfig(
                threshold_limit=5, lhs_threshold_limit=2
            ).effective_lhs_limit
            == 2
        )


class TestTelemetry:
    @pytest.fixture(scope="class")
    def traced(self):
        relation = load_dataset("bridges", seed=0)
        telemetry = Telemetry()
        result = discover_rfds(
            relation,
            DiscoveryConfig(threshold_limit=3, max_lhs_size=2, grid_size=3),
            telemetry=telemetry,
        )
        return relation, result, telemetry

    def test_lhs_sets_metric_counts_rhs_lhs_pairs(self, traced):
        relation, _, telemetry = traced
        assert relation.n_attributes == 13
        assert telemetry.metrics.value(
            "renuver_discovery_lhs_sets_total"
        ) == 13 * count_lhs_sets(13, 2)

    def test_one_level_span_per_lhs_size(self, traced):
        _, _, telemetry = traced
        by_id = {span.span_id: span for span in telemetry.tracer.spans}
        levels = [
            span for span in telemetry.tracer.ordered_spans()
            if span.name == "discover_level"
        ]
        assert [span.attributes["size"] for span in levels] == [1, 2]
        assert [span.attributes["lhs_sets"] for span in levels] == [
            13 * 12, 13 * 66,
        ]
        assert all(span.attributes["emitted"] >= 0 for span in levels)
        assert {by_id[span.parent_id].name for span in levels} == {
            "discover"
        }
