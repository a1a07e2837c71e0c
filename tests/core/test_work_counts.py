"""The work a blocked imputation does, pinned.

Outcome digests say *what* an imputation produced; these counts say how
much work it took to get there: index probes issued (one per index
walk: a match the plan memoized is not probed again) and LHS queries
served, declined constraints, subset distance vectors built, engine
calls per operation and candidates ranked.  A change that keeps the
outputs but probes more, declines more, builds more distance vectors or
ranks more candidates fails here, before any benchmark run.

The instance is physician at 5000 tuples, 500 injected cells over the
five columns the ``physician-10k`` benchmark blanks, and that
benchmark's eight pinned RFDs.  Keyness settles all eight by duplicate
LHS values, so no index is built before the first cell.
"""

from __future__ import annotations

from repro.core.renuver import Renuver
from repro.dataset.missing import MISSING
from repro.datasets.physician import generate_physician
from repro.distance import kernels
from repro.evaluation.injection import inject_missing
from repro.rfd import parse_rfd
from repro.telemetry import NULL_TRACER, MetricsRegistry, Telemetry

PHYSICIAN_RFDS = (
    "Zip(<=0) -> City(<=0)",
    "Zip(<=0) -> State(<=0)",
    "OrgId(<=0) -> Street(<=0)",
    "OrgId(<=0) -> Zip(<=0)",
    "Organization(<=1) -> City(<=2)",
    "Street(<=1) -> Zip(<=2)",
    "Street(<=1) -> City(<=2)",
    "OrgId(<=0), GradYear(<=1) -> YearsExperience(<=1)",
)
INJECTED = ("City", "State", "Street", "Zip", "YearsExperience")

#: Counts of the seed-1 run.
EXPECTED_COUNTERS = {
    "calls_candidates": 503,
    "calls_cell_scan": 500,
    "calls_is_faultless": 535,
    "calls_partition_key_rfds": 1,
    "index_builds": 5,
    "index_fallbacks": 0,
    "index_probes": 413,
    "index_pruned_pairs": 4665399,
    "index_served_probes": 938,
    "index_updates": 304,
    "subset_builds": 1271,
}
EXPECTED_CANDIDATES = 10838
EXPECTED_IMPUTED = 477
#: Values interned into the string memos: each distinct value of the
#: five string columns the kernels read, once.
EXPECTED_INTERNED = 463
STRING_COLUMNS = ("City", "State", "Street", "Zip", "Organization")


def test_blocked_physician_work_is_pinned():
    relation = generate_physician(1000, seed=0, scale=5)
    dirty = inject_missing(
        relation, count=500, seed=1, attributes=INJECTED
    ).relation
    telemetry = Telemetry(tracer=NULL_TRACER, metrics=MetricsRegistry())
    result = Renuver(
        [parse_rfd(text) for text in PHYSICIAN_RFDS], telemetry=telemetry
    ).impute(dirty)
    counters = {
        name: value
        for name, value in result.report.kernel_counters.items()
        if name.startswith(("calls_", "index_")) or name == "subset_builds"
    }
    assert counters == EXPECTED_COUNTERS
    candidates = sum(
        instrument.value
        for family in telemetry.metrics.families()
        if family.name == "renuver_candidates_generated_total"
        for instrument in family.instruments.values()
    )
    assert candidates == EXPECTED_CANDIDATES
    assert result.report.imputed_count == EXPECTED_IMPUTED


def test_each_distinct_string_is_interned_once(monkeypatch):
    """The string kernels map the relation's codes to memo codes, so a
    run interns each distinct value of a string column once, not each
    row."""
    relation = generate_physician(1000, seed=0, scale=5)
    dirty = inject_missing(
        relation, count=500, seed=1, attributes=INJECTED
    ).relation
    calls = []
    intern = kernels._ValueMemo._intern

    def counted(memo, value):
        calls.append(value)
        return intern(memo, value)

    monkeypatch.setattr(kernels._ValueMemo, "_intern", counted)
    Renuver([parse_rfd(text) for text in PHYSICIAN_RFDS]).impute(dirty)
    distinct = sum(
        len(set(dirty.column(name)) - {MISSING}) for name in STRING_COLUMNS
    )
    assert len(calls) == distinct == EXPECTED_INTERNED
