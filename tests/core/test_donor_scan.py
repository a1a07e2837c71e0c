"""Tests for the donor-scan engines and their kernel layer.

Covers the vectorized engine's contract with the scalar reference on the
paper's running example and on seed datasets, with the engine's own
index plan and with capped plans whose probes are partly declined,
kernels that read the live encoding across tentative writes and
rollbacks, and the length-blocking string kernels.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from unittest import mock

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
from repro.dataset.missing import is_missing
from repro.distance import kernels as kernels_module
from repro.distance.kernels import DistanceMemoPool, DonorScanKernels
from repro.distance.levenshtein import levenshtein, levenshtein_bounded
from repro.distance.pattern import PatternCalculator
from repro.evaluation.injection import inject_missing
from repro.index import IndexPlan
from repro.rfd import parse_rfd
from tests.oracle import ScalarRenuver

#: Index plans the vectorized engine runs with: its own (the default
#: cap), and caps small enough that some probes of one cluster are
#: served while others are declined and confirmed by the engine.
PLANS = {"plan": None, "cap3": 3, "cap1": 1}


def make_engines(relation, rfds, plan="plan"):
    calculator = PatternCalculator(relation)
    cap = PLANS[plan]
    index_plan = (
        None if cap is None
        else IndexPlan(relation, rfds, max_group_size=cap)
    )
    return ScalarEngine(calculator), VectorizedEngine(
        relation, rfds, plan=index_plan
    )


def close(vectorized):
    """Close the engine and its plan, whoever built it."""
    vectorized.close()
    vectorized.plan.close()


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
            [Attribute("S")], {"S": ["x", "y" * 129, "y" * 127]}
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
    """Per-pair reference: NaN wherever a side is missing (the empty
    string included, as the relation stores it)."""
    target = column[target_row]
    out = []
    for value in column:
        if is_missing(target) or is_missing(value):
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


def _column_strategy(max_size):
    return st.lists(
        st.one_of(st.just(MISSING), _STRINGS), min_size=1, max_size=max_size
    )


def _shared_memo_sequence(data, pool):
    """Two relations read one pool through their own kernels, each
    under its own clamp limit; writes intern new values, and fresh
    kernels (a new run) join mid-way.  Every gather of every run must
    equal the per-pair oracle."""
    limits = [
        data.draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
        for _ in range(2)
    ]
    columns = [data.draw(_column_strategy(8)) for _ in range(2)]
    relations = [
        Relation([Attribute("S")], {"S": list(column)}, name=f"r{index}")
        for index, column in enumerate(columns)
    ]

    def run(index):
        limit = limits[index]
        return DonorScanKernels(
            relations[index],
            string_limits=None if limit is None else {"S": limit},
            memo_pool=pool,
        )

    runs = [run(index) for index in range(2)]
    for step in range(data.draw(st.integers(0, 6)) + 1):
        written = data.draw(st.integers(0, 1))
        if step:
            row, value = _draw_write(data, columns[written], step)
            relations[written].set_value(row, "S", value)
            columns[written][row] = value
        if data.draw(st.booleans()):
            runs[written] = run(written)
        for kernels, column, limit in zip(runs, columns, limits):
            n = len(column)
            for target in range(n):
                rows = np.array(sorted(data.draw(
                    st.sets(st.integers(0, n - 1), max_size=n)
                )), dtype=np.int64)
                subset = kernels.subset_vector(target, "S", rows)
                full = kernels.vector(target, "S")
                np.testing.assert_array_equal(
                    full, _oracle_vector(column, target, limit)
                )
                assert subset.tobytes() == full[rows].tobytes()


class TestSharedMemoOracle:
    """One :class:`DistanceMemoPool` under many runs over different
    relations answers what a private memo answers."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_runs_sharing_one_pool_match_oracle(self, data):
        _shared_memo_sequence(data, DistanceMemoPool())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eviction_mid_sequence_matches_oracle(self, data):
        budget = data.draw(st.sampled_from([0, 64, 512, 2048]))
        with mock.patch.object(kernels_module, "MEMO_POOL_BYTES", budget):
            _shared_memo_sequence(data, DistanceMemoPool())

    def test_later_runs_reuse_and_eviction_forgets(self):
        column = ["abc", "abd", "abcd", MISSING, "zzzzzzzz"]

        def distances_computed(pool):
            relation = Relation([Attribute("S")], {"S": list(column)})
            kernels = DonorScanKernels(
                relation, string_limits={"S": 1}, memo_pool=pool
            )
            for target in range(len(column)):
                kernels.vector(target, "S")
            return kernels.counters["levenshtein_dp_calls"], kernels

        pool = DistanceMemoPool()
        first, _ = distances_computed(pool)
        assert first > 0
        assert pool.nbytes > 0
        # A second run over another relation with the same values
        # computes nothing, and reports only its own (empty) work.
        again, kernels = distances_computed(pool)
        assert again == 0
        assert all(
            (misses, size) == (0, 0)
            for _, misses, size in kernels.cache_report().values()
        )
        with mock.patch.object(kernels_module, "MEMO_POOL_BYTES", 0):
            # Over budget: the holder's first growth forgets the memo,
            # so the next run starts from nothing — yet the holder
            # keeps reading the forgotten memo correctly.
            relation = Relation([Attribute("S")], {"S": ["abc", "abe"]})
            holder = DonorScanKernels(
                relation, string_limits={"S": 1}, memo_pool=pool
            )
            holder.vector(0, "S")
            evicted, _ = distances_computed(pool)
            assert evicted == first
            relation.set_value(1, "S", "abf")
            np.testing.assert_array_equal(
                holder.vector(0, "S"), [0.0, 1.0]
            )


class TestSharedMemoBounds:
    """What one run pays for sharing stays bounded by its own column,
    and what the pool keeps by :data:`MEMO_POOL_BYTES`."""

    @staticmethod
    def _run(pool, column, limit=2):
        relation = Relation([Attribute("S")], {"S": list(column)})
        kernels = DonorScanKernels(
            relation, string_limits={"S": limit}, memo_pool=pool
        )
        for target in range(len(column)):
            np.testing.assert_array_equal(
                kernels.vector(target, "S"),
                _oracle_vector(column, target, limit),
            )
        return kernels._strings["S"].memo

    def test_a_small_run_is_not_handed_a_wide_memo(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_MIN_ROW_CELLS", 0)
        pool = DistanceMemoPool()
        wide = self._run(pool, [f"v{index}" for index in range(40)])
        assert len(wide.values) == 40
        # Five rows may read a memo of up to 40 values: shared.
        assert self._run(pool, ["v1", "v2", "x", "v3", "y"]) is wide
        # Four rows may not read one of 42: a fresh memo, whose rows
        # are as wide as this run's own values.
        small = self._run(pool, ["v1", "z", MISSING, "v1"])
        assert small is not wide
        assert small.values == ["v1", "z"]
        assert {row.size for row in small.rows.values()} == {3}
        # The fresh memo is the one later runs share.
        assert self._run(pool, ["z", "v1"]) is small

    def test_every_growth_keeps_the_pool_within_budget(self, monkeypatch):
        # 200 values fit the budget; their 200 memo rows do not.
        budget = 48 * 2**10
        monkeypatch.setattr(kernels_module, "MEMO_POOL_BYTES", budget)
        pool = DistanceMemoPool()
        seen = []
        row = kernels_module._ValueMemo.row

        def recording(memo, target, size):
            answer = row(memo, target, size)
            seen.append(pool.nbytes)
            return answer

        monkeypatch.setattr(kernels_module._ValueMemo, "row", recording)
        self._run(pool, [f"value-{index}" for index in range(200)])
        assert len(seen) == 200
        assert budget // 2 < max(seen) <= budget
        assert pool.nbytes <= budget


class TestSharedMemoThreads:
    def test_threads_sharing_one_pool_stay_consistent(self):
        """More threads than cores, switching as often as the
        interpreter allows, each write the same new value into their own
        relation at the same step, then gather over the one shared memo.
        Every vector must match the oracle, and a lost update while
        interning would leave a value twice in the memo or a wrong
        length beside it."""
        pool = DistanceMemoPool()
        words = ["", "a", "ab", "abc", "bca", "cab", "abcab", "ccc"]
        steps = 60
        barrier = threading.Barrier(6)
        errors: list = []

        def worker(seed):
            try:
                local = random.Random(seed)
                column = [local.choice(words) for _ in range(8)]
                relation = Relation([Attribute("S")], {"S": list(column)})
                kernels = DonorScanKernels(
                    relation, string_limits={"S": 2}, memo_pool=pool
                )
                for step in range(steps):
                    row = local.randrange(len(column))
                    value = f"{words[step % len(words)]}{step}"
                    barrier.wait(timeout=60)
                    relation.set_value(row, "S", value)
                    column[row] = value
                    for target in range(len(column)):
                        expected = _oracle_vector(column, target, 2)
                        if not np.array_equal(
                            kernels.vector(target, "S"), expected,
                            equal_nan=True,
                        ):
                            errors.append((seed, step, target))
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                barrier.abort()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:5]
        memo = pool.memo("S", 2, rows=8)
        values = memo.values
        assert len(set(values)) == len(values) == len(memo._index)
        assert all(memo._index[value] == code
                   for code, value in enumerate(values))
        assert memo.lengths[:len(values)].tolist() == [
            len(value) for value in values
        ]


class TestPerRunCounters:
    def test_concurrent_runs_report_what_serial_runs_report(self):
        """Two library imputes on two threads, each with a private
        memo pool, report the kernel counters they report one after the
        other: no counter reads state another run also moves."""
        relation = load_dataset("restaurant", n_tuples=120, seed=0)
        rfds = list(discover_rfds(relation, ORACLE_DISCOVERY).all_rfds)
        dirty = inject_missing(relation, rate=0.04, seed=3).relation
        serial = Renuver(rfds).impute(dirty).report.kernel_counters
        assert serial["levenshtein_dp_calls"] > 0
        assert Renuver(rfds).impute(dirty).report.kernel_counters == serial
        barrier = threading.Barrier(2)
        reports: list = [None, None]
        errors: list = []

        def worker(slot):
            try:
                barrier.wait(timeout=60)
                reports[slot] = Renuver(rfds).impute(
                    dirty
                ).report.kernel_counters
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                barrier.abort()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert reports == [serial, serial]


class TestDirtyCellHook:
    """Writes reach the kernels without a hook: every gather reads the
    relation's live encoding, so no vector goes stale."""

    def test_write_invalidates_and_rebuilds(self, restaurant_sample):
        kernels = DonorScanKernels(restaurant_sample)
        before = kernels.vector(4, "Phone")
        assert before[2] > 0.0  # t3's phone differs from t5's
        restaurant_sample.set_value(2, "Phone", "213/848-6677")
        after = kernels.vector(4, "Phone")
        assert after is not before
        assert after[2] == 0.0
        assert kernels.subset_vector(
            4, "Phone", np.array([2])
        ).tolist() == [0.0]

    def test_rollback_to_missing_yields_nan(self, restaurant_sample):
        """The driver's tentative write / rollback cycle: after rolling
        the target cell back to MISSING, its vector must be all-NaN."""
        kernels = DonorScanKernels(restaurant_sample)
        restaurant_sample.set_value(3, "Phone", "213/857-0034")
        assert kernels.vector(3, "Phone")[2] == 0.0
        assert kernels.subset_vector(
            3, "Phone", np.array([2])
        ).tolist() == [0.0]
        restaurant_sample.set_value(3, "Phone", MISSING)
        assert np.isnan(kernels.vector(3, "Phone")).all()
        assert np.isnan(
            kernels.subset_vector(3, "Phone", np.array([0, 2]))
        ).all()

    def test_engine_verification_sees_tentative_write(
        self, restaurant_sample, paper_rfds
    ):
        """End-to-end hook check through the engine: a tentative write
        changes the faultlessness verdict, the rollback restores it."""
        calculator = PatternCalculator(restaurant_sample)
        engine = VectorizedEngine(restaurant_sample, paper_rfds)
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
                close(vectorized)

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
            close(vectorized)

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
                close(vectorized)
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
            close(vectorized)


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
                close(vectorized)

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
                close(vectorized)


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
        close(vectorized)
    assert counters["index_served_probes"] > 0
    if plan in ("cap3", "cap1"):
        assert counters["index_fallbacks"] > 0


def test_ranked_view_matches_scalar_lists(seed_case):
    """The lazy ranked view reads like the scalar engine's sorted list:
    length, iteration, indexing, slicing and ``max_candidates``."""
    dirty, rfds, _ = seed_case
    relation = dirty.copy()
    scalar, vectorized = make_engines(relation, rfds)
    compared = 0
    try:
        for row, attribute in relation.missing_cells():
            clusters = cluster_by_rhs_threshold(
                select_rfds_for_attribute(rfds, attribute), attribute
            )
            scalar_scan = scalar.cell_scan(row, attribute, clusters)
            vector_scan = vectorized.cell_scan(row, attribute, clusters)
            for cluster in clusters:
                expected = scalar_scan.candidates(cluster)
                view = vector_scan.candidates(cluster)
                assert len(view) == len(expected)
                assert list(view) == expected
                assert view == expected and expected == view
                assert bool(view) == bool(expected)
                for part in (slice(1, 3), slice(None, None, 2),
                             slice(-2, None)):
                    assert view[part] == expected[part]
                if expected:
                    assert view[0] == expected[0]
                    assert view[-1] == expected[-1]
                    compared += 1
                with pytest.raises(IndexError):
                    view[len(expected)]
                for cap in (1, 2):
                    capped = vector_scan.candidates(
                        cluster, max_candidates=cap
                    )
                    assert len(capped) == min(cap, len(expected))
                    assert capped == scalar_scan.candidates(
                        cluster, max_candidates=cap
                    )
    finally:
        close(vectorized)
    assert compared > 0


def test_driver_builds_only_the_candidates_it_tries(monkeypatch):
    """Per cell, the driver builds at most ``candidates_tried``
    candidates: the ranked view materializes only what is reached."""
    from repro.core import donor_scan
    from repro.core.candidates import Candidate
    from repro.telemetry import NULL_TRACER, MetricsRegistry, Telemetry

    relation = load_dataset("restaurant", n_tuples=120, seed=0)
    rfds = list(discover_rfds(relation, ORACLE_DISCOVERY).all_rfds)
    dirty = inject_missing(relation, rate=0.04, seed=3).relation
    built: list[Candidate] = []

    def counting_candidate(*args):
        candidate = Candidate(*args)
        built.append(candidate)
        return candidate

    monkeypatch.setattr(donor_scan, "Candidate", counting_candidate)
    per_cell: list[tuple[int, int]] = []
    impute_cell = Renuver._impute_cell

    def recording_impute_cell(self, state, row, attribute, **kwargs):
        before = len(built)
        outcome = impute_cell(self, state, row, attribute, **kwargs)
        per_cell.append((len(built) - before, outcome.candidates_tried))
        return outcome

    monkeypatch.setattr(Renuver, "_impute_cell", recording_impute_cell)
    telemetry = Telemetry(tracer=NULL_TRACER, metrics=MetricsRegistry())
    Renuver(rfds, telemetry=telemetry).impute(dirty)
    generated = sum(
        instrument.value
        for family in telemetry.metrics.families()
        if family.name == "renuver_candidates_generated_total"
        for instrument in family.instruments.values()
    )
    assert per_cell
    assert all(made <= tried for made, tried in per_cell), per_cell
    assert len(built) == sum(tried for _, tried in per_cell)
    assert len(built) < generated


class TestEngineConfig:
    def test_invalid_engine_rejected(self):
        # The engine is not a setting: the scalar engine is only the
        # test oracle (tests/oracle.py).
        with pytest.raises(TypeError):
            RenuverConfig(engine="scalar")

    def test_scalar_engine_selectable(self, restaurant_sample, paper_rfds):
        result = ScalarRenuver(paper_rfds).impute(restaurant_sample)
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
        scalar = ScalarRenuver(paper_rfds).impute(restaurant_sample)
        vectorized = Renuver(paper_rfds).impute(restaurant_sample)
        assert scalar.report.outcomes == vectorized.report.outcomes
        assert scalar.relation.equals(vectorized.relation)

    def test_vectorized_reports_kernel_counters(
        self, restaurant_sample, paper_rfds
    ):
        report = Renuver(paper_rfds).impute(restaurant_sample).report
        counters = report.kernel_counters
        assert counters["index_served_probes"] > 0
        assert counters["subset_builds"] > 0
        assert counters["index_updates"] > 0  # tentative writes happened
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
        scalar = ScalarRenuver(paper_rfds)
        vectorized = Renuver(paper_rfds)
        assert scalar.explain(
            restaurant_sample, 3, "Phone"
        ) == vectorized.explain(restaurant_sample, 3, "Phone")


class TestOverrides:
    def test_override_attribute_uses_generic_codec(
        self, restaurant_sample, paper_rfds
    ):
        from repro.distance import jaro_winkler_function

        overrides = {"Name": jaro_winkler_function()}
        scalar = ScalarRenuver(
            paper_rfds, distance_overrides=overrides
        ).impute(restaurant_sample)
        vectorized = Renuver(
            paper_rfds, distance_overrides=overrides
        ).impute(restaurant_sample)
        assert scalar.report.outcomes == vectorized.report.outcomes
        assert scalar.relation.equals(vectorized.relation)
