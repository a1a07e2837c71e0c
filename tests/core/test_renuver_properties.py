"""Property-based tests of RENUVER's core invariants.

Random small relations and injections, discovered RFDs, then:

* imputation never crashes and never touches non-missing cells,
* every imputed value is donated (exists in the original column),
* the report covers exactly the missing cells,
* runs are deterministic,
* per cell, verification only ever rejects candidates, and
* across cells a verified fill can donate to a later cell.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    DiscoveryConfig,
    Renuver,
    RenuverConfig,
    discover_rfds,
    inject_missing,
)
from repro.dataset import Relation, is_missing

_keys = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_values = st.sampled_from(["red", "blue", "green"])
_numbers = st.integers(min_value=0, max_value=9)

relations = st.lists(
    st.tuples(_keys, _values, _numbers), min_size=4, max_size=14
).map(
    lambda rows: Relation.from_rows(["K", "V", "N"], rows, name="prop")
)


def _engine_for(relation: Relation) -> Renuver | None:
    discovery = discover_rfds(
        relation, DiscoveryConfig(threshold_limit=4, grid_size=3)
    )
    if not discovery.all_rfds:
        return None
    return Renuver(discovery.all_rfds)


_CASCADE = Relation.from_rows(
    ["K", "V", "N"],
    [("alpha", "blue", 0), ("alpha", "red", 5), ("alpha", "blue", 0),
     ("alpha", "blue", 0), ("alpha", "green", 0), ("alpha", "red", 1)],
    name="prop",
)


class TestImputationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(relations, st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    def test_only_missing_cells_change(self, relation, count, seed):
        engine = _engine_for(relation)
        if engine is None:
            return
        injection = inject_missing(relation, count=count, seed=seed)
        result = engine.impute(injection.relation)
        changed = result.relation.diff_cells(injection.relation)
        assert set(changed) <= set(injection.cells)

    @settings(max_examples=25, deadline=None)
    @given(relations, st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    def test_imputed_values_are_donated(self, relation, count, seed):
        engine = _engine_for(relation)
        if engine is None:
            return
        injection = inject_missing(relation, count=count, seed=seed)
        result = engine.impute(injection.relation)
        for outcome in result.report.imputed_cells():
            column = injection.relation.column(outcome.attribute)
            donations = [v for v in column if not is_missing(v)]
            assert outcome.value in donations

    @settings(max_examples=20, deadline=None)
    @given(relations, st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    def test_report_covers_exactly_missing_cells(self, relation, count,
                                                 seed):
        engine = _engine_for(relation)
        if engine is None:
            return
        injection = inject_missing(relation, count=count, seed=seed)
        result = engine.impute(injection.relation)
        reported = {(o.row, o.attribute) for o in result.report}
        assert reported == set(injection.relation.missing_cells())

    @settings(max_examples=10, deadline=None)
    @given(relations, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    def test_deterministic(self, relation, count, seed):
        engine = _engine_for(relation)
        if engine is None:
            return
        injection = inject_missing(relation, count=count, seed=seed)
        first = engine.impute(injection.relation)
        second = engine.impute(injection.relation)
        assert first.relation.equals(second.relation)

    # Per cell, with the rest of the relation fixed, the unverified run
    # takes the top-ranked candidate and the verified run takes the
    # first candidate that passes verification from the same ranking.
    @settings(max_examples=10, deadline=None)
    @given(relations, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    @example(_CASCADE, 2, 0)
    def test_verify_only_reduces_fill(self, relation, count, seed):
        engine = _engine_for(relation)
        if engine is None:
            return
        unverified_engine = Renuver(engine.rfds, RenuverConfig(verify=False))
        injection = inject_missing(relation, count=count, seed=seed)
        for row, name in injection.cells:
            single = relation.copy()
            single.clear_value(row, name)
            ranked = [
                (c.row, c.value) for c in engine.explain(single, row, name)
            ]
            verified = engine.impute(single).report
            unverified = unverified_engine.impute(single).report
            assert [
                (o.source_row, o.value) for o in unverified.imputed_cells()
            ] == ranked[:1]
            for outcome in verified.imputed_cells():
                assert ranked[outcome.candidates_tried - 1] == (
                    outcome.source_row, outcome.value
                )
            assert verified.imputed_count <= unverified.imputed_count

    def test_verified_fill_donates_to_later_cell(self):
        # Alg. 1: an accepted fill is a donor for every later cell.  Here
        # verification rejects 'blue' for (1, V) and accepts 'green',
        # which makes tuple 1 match tuple 4 on V and donate N=5 to
        # (4, N).  The unverified run keeps 'blue' and (4, N) finds no
        # candidate, so over the whole injection the verified run fills
        # more cells.
        engine = _engine_for(_CASCADE)
        injection = inject_missing(_CASCADE, count=2, seed=0)
        assert injection.cells == [(1, "V"), (4, "N")]
        verified = engine.impute(injection.relation)
        unverified = Renuver(
            engine.rfds, RenuverConfig(verify=False)
        ).impute(injection.relation)
        assert verified.relation.value(1, "V") == "green"
        assert verified.relation.value(4, "N") == 5
        assert unverified.relation.value(1, "V") == "blue"
        assert unverified.relation.is_missing_cell(4, "N")
        assert verified.report.imputed_count == 2
        assert unverified.report.imputed_count == 1
