"""Tests for the donor-scan engines and their kernel layer.

Covers the vectorized engine's contract with the scalar reference on the
paper's running example and on seed datasets, with and without an index
plan (including capped plans whose probes partly fall back), the
dirty-cell hook that keeps kernel vectors honest across tentative
writes, and the length-blocking string kernels.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryConfig, discover_rfds, load_dataset
from repro.core.donor_scan import (
    ScalarEngine,
    VectorizedEngine,
    string_clamp_limits,
)
from repro.core.renuver import Renuver, RenuverConfig
from repro.core.selection import (
    cluster_by_rhs_threshold,
    select_rfds_for_attribute,
)
from repro.core.verification import relevant_rfds
from repro.dataset import MISSING, Attribute, Relation
from repro.distance.kernels import DonorScanKernels
from repro.distance.levenshtein import levenshtein, levenshtein_bounded
from repro.distance.pattern import PatternCalculator
from repro.evaluation.injection import inject_missing
from repro.exceptions import ImputationError
from repro.index import IndexPlan
from repro.rfd import parse_rfd

#: Index plans the vectorized engine runs with: none (full scans), the
#: default cap, and caps small enough that some probes of one cluster
#: are served while others decline to the full scan.
PLANS = {"none": None, "plan": 4096, "cap3": 3, "cap1": 1}


def make_engines(relation, rfds, plan="none"):
    calculator = PatternCalculator(relation)
    cap = PLANS[plan]
    index_plan = (
        None if cap is None
        else IndexPlan(relation, rfds, max_group_size=cap)
    )
    return ScalarEngine(calculator), VectorizedEngine(
        calculator, rfds, plan=index_plan, owns_plan=True
    )


class TestStringClampLimits:
    def test_max_threshold_per_attribute(self, paper_rfds):
        limits = string_clamp_limits(paper_rfds)
        # Name appears with thresholds 8, 4, 8, 6 -> 8; City with 2, 9 -> 9.
        assert limits["Name"] == 8
        assert limits["City"] == 9
        assert limits["Phone"] == 2
        # RHS-only attributes are clamped too (Type <= 0 and <= 5).
        assert limits["Type"] == 5


class TestKernels:
    def test_numeric_vector(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        vector = kernels.vector(0, "Class")
        assert vector.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_string_vector_nan_for_missing(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        vector = kernels.vector(0, "Phone")
        assert np.isnan(vector[3]) and np.isnan(vector[6])
        assert vector[0] == 0.0

    def test_missing_target_gives_all_nan(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        assert np.isnan(kernels.vector(3, "Phone")).all()

    def test_vector_cache_hits(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        first = kernels.vector(0, "Name")
        again = kernels.vector(0, "Name")
        assert again is first
        assert kernels.counters["vector_cache_hits"] == 1
        assert kernels.counters["vector_builds"] == 1

    def test_length_blocking_skips_dp_and_clamps(self, restaurant_sample):
        kernels = DonorScanKernels(
            restaurant_sample, string_limits={"Name": 2}
        )
        vector = kernels.vector(0, "Name")  # "Granita" (7 chars)
        assert kernels.counters["levenshtein_dp_blocked"] > 0
        # "Chinos Main" is 11 chars: |11 - 7| > 2 -> stored as limit + 1
        # without running the DP.
        assert vector[1] == 3.0
        # Within-limit distances stay exact: "Granita" vs itself.
        assert vector[0] == 0.0

    @pytest.mark.parametrize("limit", [126, 127, 128])
    def test_clamp_fits_the_memo_row_type(self, limit):
        # limit + 1 = 128 is the first clamp past int8's range.
        relation = Relation(
            [Attribute("S")], {"S": ["", "y" * 129, "y" * 127]}
        )
        kernels = DonorScanKernels(relation, string_limits={"S": limit})
        expected = [0.0, min(129.0, limit + 1.0), min(127.0, limit + 1.0)]
        assert kernels.vector(0, "S").tolist() == expected

    def test_clamped_distances_never_exceed_limit_plus_one(
        self, restaurant_sample
    ):
        kernels = DonorScanKernels(
            restaurant_sample, string_limits={"Name": 3}
        )
        vector = kernels.vector(2, "Name")
        present = ~np.isnan(vector)
        assert (vector[present] <= 4.0).all()


#: Short, empty, unicode and longer-than-one-word (64 characters) values.
_STRINGS = st.one_of(
    st.sampled_from(
        ["", "a", "ab", "Citrus", "Citrüs", "日本語", "x" * 64, "x" * 65,
         "x" * 63 + "yz"]
    ),
    st.text(max_size=6),
    st.text(alphabet="ab", min_size=60, max_size=72),
)


def _oracle_vector(column, target_row, limit):
    """Per-pair reference: NaN wherever a side is missing."""
    target = column[target_row]
    out = []
    for value in column:
        if target is MISSING or value is MISSING:
            out.append(np.nan)
        elif limit is None:
            out.append(float(levenshtein(target, value)))
        else:
            out.append(float(levenshtein_bounded(target, value, limit)))
    return np.array(out)


def _draw_write(data, column, step):
    """One ``set_value``: a new distinct value (a near copy of a present
    one), a rollback to MISSING, an overwrite of the last row holding
    its value, or any value."""
    n = len(column)
    kind = data.draw(
        st.sampled_from(["new", "missing", "last_holder", "any"])
    )
    if kind == "new":
        present = [v for v in column if v is not MISSING] or [""]
        value = data.draw(st.sampled_from(present)) + f"~{step}"
        return data.draw(st.integers(0, n - 1)), value
    if kind == "missing":
        return data.draw(st.integers(0, n - 1)), MISSING
    row = data.draw(st.integers(0, n - 1))
    if kind == "last_holder":
        counts = Counter(v for v in column if v is not MISSING)
        sole = [r for r, v in enumerate(column)
                if v is not MISSING and counts[v] == 1]
        if sole:
            row = data.draw(st.sampled_from(sole))
    return row, data.draw(st.one_of(st.just(MISSING), _STRINGS))


class TestKernelOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_gathers_match_per_pair_oracle(self, data):
        column = data.draw(
            st.lists(st.one_of(st.just(MISSING), _STRINGS),
                     min_size=1, max_size=10)
        )
        limit = data.draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
        relation = Relation(
            [Attribute("S")], {"S": column}, name="oracle"
        )
        kernels = DonorScanKernels(
            relation,
            string_limits=None if limit is None else {"S": limit},
        )
        kernels.attach()
        try:
            for step in range(data.draw(st.integers(0, 8)) + 1):
                if step:
                    row, value = _draw_write(data, column, step)
                    relation.set_value(row, "S", value)
                    column[row] = value
                n = len(column)
                # Subsets first, so they fill the memo on their own.
                subsets = [
                    np.array(sorted(data.draw(
                        st.sets(st.integers(0, n - 1), max_size=n)
                    )), dtype=np.int64)
                    for _ in range(n)
                ]
                subset_vectors = [
                    kernels.subset_vector(target, "S", rows)
                    for target, rows in enumerate(subsets)
                ]
                for target, rows in enumerate(subsets):
                    full = kernels.vector(target, "S")
                    np.testing.assert_array_equal(
                        full, _oracle_vector(column, target, limit)
                    )
                    assert (
                        subset_vectors[target].tobytes()
                        == full[rows].tobytes()
                    )
                    empty = np.array([], dtype=np.int64)
                    assert kernels.subset_vector(
                        target, "S", empty
                    ).shape == (0,)
        finally:
            kernels.close()


class TestCacheReport:
    def test_hits_misses_and_size_are_distinct_counts(self):
        relation = Relation(
            [Attribute("S")],
            {"S": ["abc", "abd", "abc", MISSING, "zzzzzzzz"]},
        )
        kernels = DonorScanKernels(relation, string_limits={"S": 1})
        kernels.vector(0, "S")
        # Three cells filled: "abc" to itself when the row is made,
        # "zzzzzzzz" by the length filter and "abd" by the kernel.  The
        # hits are the two "abc" rows and the MISSING row, which reads
        # the memo's sentinel cell.
        assert kernels.cache_report() == {"S": (3, 1, 3)}
        # Row 2 holds "abc" too: its vector is served by the same row.
        kernels.vector(2, "S")
        assert kernels.cache_report() == {"S": (8, 1, 3)}
        # A new target value computes only the cell it reads.
        kernels.subset_vector(1, "S", np.array([0, 3]))
        assert kernels.cache_report() == {"S": (9, 2, 5)}
        assert kernels.counters["levenshtein_dp_calls"] == 2
        assert kernels.counters["levenshtein_dp_blocked"] == 1

    def test_numeric_attributes_have_no_memo(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        kernels.vector(0, "Class")
        assert kernels.cache_report() == {}


class TestDirtyCellHook:
    """The tentpole regression: remove the mutation listener and these
    tests fail on stale vectors."""

    def test_write_invalidates_and_rebuilds(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        kernels.attach()
        before = kernels.vector(4, "Phone")
        assert before[2] > 0.0  # t3's phone differs from t5's
        restaurant_sample.set_value(2, "Phone", "213/848-6677")
        after = kernels.vector(4, "Phone")
        assert after is not before
        assert after[2] == 0.0
        assert kernels.counters["invalidations"] == 1
        kernels.close()

    def test_rollback_to_missing_yields_nan(self, restaurant_sample):
        """The driver's tentative write / rollback cycle: after rolling
        the target cell back to MISSING, its vector must be all-NaN."""
        kernels = DonorScanKernels(restaurant_sample)
        kernels.attach()
        restaurant_sample.set_value(3, "Phone", "213/857-0034")
        assert kernels.vector(3, "Phone")[2] == 0.0
        restaurant_sample.set_value(3, "Phone", MISSING)
        assert np.isnan(kernels.vector(3, "Phone")).all()
        kernels.close()

    def test_close_detaches_listener(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        kernels.attach()
        kernels.vector(0, "Phone")
        kernels.close()
        restaurant_sample.set_value(0, "Phone", "000")
        # Detached: no invalidation was recorded for the write.
        assert kernels.counters["invalidations"] == 0

    def test_attach_and_close_are_idempotent(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        kernels.attach()
        kernels.attach()
        kernels.vector(0, "Phone")
        restaurant_sample.set_value(1, "Phone", "111")
        assert kernels.counters["invalidations"] == 1
        kernels.close()
        kernels.close()

    def test_engine_verification_sees_tentative_write(
        self, restaurant_sample, paper_rfds
    ):
        """End-to-end hook check through the engine: a tentative write
        changes the faultlessness verdict, the rollback restores it."""
        calculator = PatternCalculator(restaurant_sample)
        engine = VectorizedEngine(calculator, paper_rfds)
        scalar = ScalarEngine(calculator)
        try:
            for value in ("213/857-0034", "310-932-9025"):
                restaurant_sample.set_value(3, "Phone", value)
                assert engine.is_faultless(
                    3, "Phone", paper_rfds
                ) == scalar.is_faultless(3, "Phone", paper_rfds)
                restaurant_sample.set_value(3, "Phone", MISSING)
        finally:
            engine.close()


class TestEngineEquivalenceOnPaperExample:
    """Each operation against the scalar oracle, under every plan."""

    def test_candidates_match(self, restaurant_sample, paper_rfds):
        for plan in PLANS:
            scalar, vectorized = make_engines(
                restaurant_sample, paper_rfds, plan
            )
            try:
                for row, attribute in [
                    (3, "Phone"), (4, "Type"), (5, "City"), (6, "Phone"),
                ]:
                    clusters = cluster_by_rhs_threshold(
                        select_rfds_for_attribute(paper_rfds, attribute),
                        attribute,
                    )
                    scalar_scan = scalar.cell_scan(row, attribute, clusters)
                    vector_scan = vectorized.cell_scan(
                        row, attribute, clusters
                    )
                    for cluster in clusters:
                        assert scalar_scan.candidates(
                            cluster
                        ) == vector_scan.candidates(cluster), (
                            plan, row, attribute
                        )
            finally:
                vectorized.close()

    def test_candidates_respect_max_candidates(
        self, restaurant_sample, paper_rfds
    ):
        scalar, vectorized = make_engines(restaurant_sample, paper_rfds)
        try:
            clusters = cluster_by_rhs_threshold(
                select_rfds_for_attribute(paper_rfds, "Phone"), "Phone"
            )
            scalar_scan = scalar.cell_scan(3, "Phone", clusters)
            vector_scan = vectorized.cell_scan(3, "Phone", clusters)
            for cluster in clusters:
                assert scalar_scan.candidates(
                    cluster, max_candidates=1
                ) == vector_scan.candidates(cluster, max_candidates=1)
        finally:
            vectorized.close()

    def test_first_fault_matches(self, restaurant_sample, paper_rfds):
        for plan in PLANS:
            scalar, vectorized = make_engines(
                restaurant_sample, paper_rfds, plan
            )
            try:
                restaurant_sample.set_value(3, "Phone", "310/456-0488")
                for check_rhs in (False, True):
                    assert vectorized.first_fault(
                        3, "Phone", paper_rfds, check_rhs_rfds=check_rhs
                    ) == scalar.first_fault(
                        3, "Phone", paper_rfds, check_rhs_rfds=check_rhs
                    ), plan
            finally:
                vectorized.close()

    def test_is_faultless_matches(self, restaurant_sample, paper_rfds):
        verdicts = set()
        for plan in PLANS:
            scalar, vectorized = make_engines(
                restaurant_sample, paper_rfds, plan
            )
            try:
                for value in (
                    "310/456-0488", "213/857-0034", "310-932-9025"
                ):
                    restaurant_sample.set_value(3, "Phone", value)
                    for check_rhs in (False, True):
                        expected = scalar.is_faultless(
                            3, "Phone", paper_rfds, check_rhs_rfds=check_rhs
                        )
                        assert vectorized.is_faultless(
                            3, "Phone", paper_rfds, check_rhs_rfds=check_rhs
                        ) == expected, (plan, value, check_rhs)
                        verdicts.add(expected)
                    restaurant_sample.set_value(3, "Phone", MISSING)
            finally:
                vectorized.close()
        assert verdicts == {True, False}  # both outcomes exercised

    def test_cluster_attribute_mismatch_raises(
        self, restaurant_sample, paper_rfds
    ):
        _, vectorized = make_engines(restaurant_sample, paper_rfds)
        try:
            clusters = cluster_by_rhs_threshold(
                select_rfds_for_attribute(paper_rfds, "Phone"), "Phone"
            )
            scan = vectorized.cell_scan(5, "City", clusters)
            with pytest.raises(ValueError):
                scan.candidates(clusters[0])
        finally:
            vectorized.close()


class TestKeynessEquivalence:
    @pytest.mark.parametrize("scope", ["all", "complete"])
    def test_partition_matches_scalar(
        self, restaurant_sample, paper_rfds, scope
    ):
        for plan in PLANS:
            scalar, vectorized = make_engines(
                restaurant_sample, paper_rfds, plan
            )
            try:
                assert vectorized.partition_key_rfds(
                    paper_rfds, scope=scope
                ) == scalar.partition_key_rfds(paper_rfds, scope=scope), plan
            finally:
                vectorized.close()

    @pytest.mark.parametrize("scope", ["all", "complete"])
    def test_pair_reactivates_matches_scalar(
        self, restaurant_sample, paper_rfds, scope
    ):
        for plan in PLANS:
            scalar, vectorized = make_engines(
                restaurant_sample, paper_rfds, plan
            )
            try:
                for rfd in paper_rfds:
                    for row in range(restaurant_sample.n_tuples):
                        assert vectorized.pair_reactivates(
                            rfd, row, scope=scope
                        ) == scalar.pair_reactivates(
                            rfd, row, scope=scope
                        ), (plan, rfd, row)
            finally:
                vectorized.close()


#: Seed datasets at smoke scale, discovered RFDs, 4% missing cells.
ORACLE_SIZES = {"restaurant": 120, "physician": 80, "cars": 100}

ORACLE_DISCOVERY = DiscoveryConfig(
    threshold_limit=3,
    max_lhs_size=2,
    grid_size=2,
    max_per_rhs=8,
    max_pairs=200_000,
)


@pytest.fixture(scope="module", params=sorted(ORACLE_SIZES))
def seed_case(request):
    name = request.param
    relation = load_dataset(name, n_tuples=ORACLE_SIZES[name], seed=0)
    rfds = list(discover_rfds(relation, ORACLE_DISCOVERY).all_rfds)
    injection = inject_missing(relation, rate=0.04, seed=3)
    return injection.relation, rfds, injection.ground_truth


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_oracle_on_seed_dataset(seed_case, plan):
    """Candidates, verification and keyness on every missing cell of a
    seed dataset, with tentative writes of the true and the top donor
    value, match the scalar engine."""
    dirty, rfds, truth = seed_case
    relation = dirty.copy()
    scalar, vectorized = make_engines(relation, rfds, plan)
    try:
        for scope in ("all", "complete"):
            assert vectorized.partition_key_rfds(
                rfds, scope=scope
            ) == scalar.partition_key_rfds(rfds, scope=scope)
        for row, attribute in relation.missing_cells():
            clusters = cluster_by_rhs_threshold(
                select_rfds_for_attribute(rfds, attribute), attribute
            )
            scalar_scan = scalar.cell_scan(row, attribute, clusters)
            vector_scan = vectorized.cell_scan(row, attribute, clusters)
            values = [truth[(row, attribute)]]
            for cluster in clusters:
                found = vector_scan.candidates(cluster)
                assert found == scalar_scan.candidates(cluster)
                values += [candidate.value for candidate in found[:1]]
            for value in values:
                relation.set_value(row, attribute, value)
                for check_rhs in (False, True):
                    assert vectorized.first_fault(
                        row, attribute, rfds, check_rhs_rfds=check_rhs
                    ) == scalar.first_fault(
                        row, attribute, rfds, check_rhs_rfds=check_rhs
                    )
                    assert vectorized.is_faultless(
                        row, attribute, rfds, check_rhs_rfds=check_rhs
                    ) == scalar.is_faultless(
                        row, attribute, rfds, check_rhs_rfds=check_rhs
                    )
                for rfd in relevant_rfds(rfds, attribute):
                    for scope in ("all", "complete"):
                        assert vectorized.pair_reactivates(
                            rfd, row, scope=scope
                        ) == scalar.pair_reactivates(rfd, row, scope=scope)
            relation.set_value(row, attribute, MISSING)
        counters = vectorized.counters()
    finally:
        vectorized.close()
    if plan != "none":
        assert counters["index_served_probes"] > 0
    if plan in ("cap3", "cap1"):
        assert counters["index_fallbacks"] > 0


class TestEngineConfig:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ImputationError):
            RenuverConfig(engine="warp")

    def test_scalar_engine_selectable(self, restaurant_sample, paper_rfds):
        result = Renuver(
            paper_rfds, RenuverConfig(engine="scalar")
        ).impute(restaurant_sample)
        # Unified seam counters: the scalar engine reports per-op kernel
        # call counts through the same code path as the vectorized one.
        counters = result.report.kernel_counters
        assert counters["calls_cell_scan"] > 0
        assert counters["calls_candidates"] > 0
        assert "vector_builds" not in counters  # no vector layer
        assert result.report.imputed_count > 0

    def test_engines_agree_on_paper_example(
        self, restaurant_sample, paper_rfds
    ):
        scalar = Renuver(
            paper_rfds, RenuverConfig(engine="scalar")
        ).impute(restaurant_sample)
        vectorized = Renuver(
            paper_rfds, RenuverConfig(engine="vectorized")
        ).impute(restaurant_sample)
        assert scalar.report.outcomes == vectorized.report.outcomes
        assert scalar.relation.equals(vectorized.relation)

    def test_vectorized_reports_kernel_counters(
        self, restaurant_sample, paper_rfds
    ):
        report = Renuver(paper_rfds).impute(restaurant_sample).report
        counters = report.kernel_counters
        assert counters["vector_builds"] > 0
        assert counters["invalidations"] > 0  # tentative writes happened
        assert "kernels" in report.summary()

    def test_engine_detaches_listener_after_impute(
        self, restaurant_sample, paper_rfds
    ):
        result = Renuver(paper_rfds).impute(restaurant_sample)
        # The returned relation must carry no leftover engine hook:
        # further writes are plain mutations.
        assert not result.relation._listeners  # noqa: SLF001

    def test_explain_matches_engine_candidates(
        self, restaurant_sample, paper_rfds
    ):
        scalar = Renuver(paper_rfds, RenuverConfig(engine="scalar"))
        vectorized = Renuver(paper_rfds, RenuverConfig(engine="vectorized"))
        assert scalar.explain(
            restaurant_sample, 3, "Phone"
        ) == vectorized.explain(restaurant_sample, 3, "Phone")


class TestOverrides:
    def test_override_attribute_uses_generic_codec(
        self, restaurant_sample, paper_rfds
    ):
        from repro.distance import jaro_winkler_function

        overrides = {"Name": jaro_winkler_function()}
        scalar = Renuver(
            paper_rfds,
            RenuverConfig(engine="scalar"),
            distance_overrides=overrides,
        ).impute(restaurant_sample)
        vectorized = Renuver(
            paper_rfds,
            RenuverConfig(engine="vectorized"),
            distance_overrides=overrides,
        ).impute(restaurant_sample)
        assert scalar.report.outcomes == vectorized.report.outcomes
        assert scalar.relation.equals(vectorized.relation)
