"""Differential suite: grouped discovery against the per-combination oracle.

:func:`repro.discovery.discover_rfds` must return exactly the lists the
direct transcription in ``tests/discovery/oracle.py`` returns — same
RFDs, same order — for every relation and configuration.  The
hypothesis phase draws small mixed string/numeric relations with
missing cells; ``REPRO_DISCOVERY_EQUIV_EXAMPLES`` sets its example
count.  The paper-dataset phase runs the four paper-size datasets at
the benchmark's discovery configuration; the glass-at-LHS-3 case, whose
oracle alone takes 10-30 seconds, runs only when
``REPRO_DISCOVERY_EQUIV_SLOW=1``.  Run the suite with
``pytest -m discovery``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataset import MISSING, Relation
from repro.dataset.attribute import Attribute, AttributeType
from repro.datasets import load_dataset
from repro.discovery import DiscoveryConfig, PairDistanceMatrix, discover_rfds
from repro.evaluation.injection import inject_missing
from tests.discovery.oracle import oracle_discover

pytestmark = pytest.mark.discovery

EXAMPLES = int(os.environ.get("REPRO_DISCOVERY_EQUIV_EXAMPLES", "60"))
SLOW = os.environ.get("REPRO_DISCOVERY_EQUIV_SLOW") == "1"

#: perfbench's ``paper-cold`` discovery configuration.
PAPER_CONFIG = DiscoveryConfig(
    threshold_limit=3, max_lhs_size=2, grid_size=3, max_per_rhs=40,
    max_pairs=300_000,
)

_VALUES = {
    AttributeType.STRING: st.text(alphabet="abcx", min_size=1, max_size=5),
    AttributeType.INTEGER: st.integers(min_value=0, max_value=9),
    # Fractions whose differences carry float noise exercise the grid's
    # 6-decimal rounding against the exact ``d <= g`` comparison.
    AttributeType.FLOAT: st.sampled_from(
        [0.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1.25, 2.5, 3.0000001, 4.7]
    ),
}


@st.composite
def relations(draw) -> Relation:
    types = draw(st.lists(
        st.sampled_from(sorted(_VALUES, key=lambda t: t.value)),
        min_size=2, max_size=5,
    ))
    n_tuples = draw(st.integers(min_value=2, max_value=12))
    missing_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rows = []
    for _ in range(n_tuples):
        row = []
        for attr_type in types:
            if missing_rate and draw(st.floats(0, 1)) < missing_rate:
                row.append(MISSING)
            else:
                row.append(draw(_VALUES[attr_type]))
        rows.append(row)
    attributes = [
        Attribute(f"A{position}", attr_type)
        for position, attr_type in enumerate(types)
    ]
    return Relation.from_rows(attributes, rows)


@st.composite
def configs(draw, names: tuple[str, ...], n_pairs: int) -> DiscoveryConfig:
    limits = st.sampled_from([0, 0.5, 1, 2, 3, 6])
    attribute_limits = draw(st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(names), limits, max_size=2),
    ))
    return DiscoveryConfig(
        threshold_limit=draw(limits),
        lhs_threshold_limit=draw(st.one_of(st.none(), limits)),
        max_lhs_size=draw(st.integers(1, 3)),
        grid_size=draw(st.integers(1, 5)),
        include_keys=draw(st.booleans()),
        max_pairs=draw(st.one_of(
            st.none(), st.integers(1, max(1, n_pairs))
        )),
        seed=draw(st.integers(0, 3)),
        min_support_pairs=draw(st.integers(1, 4)),
        max_per_rhs=draw(st.one_of(st.none(), st.integers(1, 5))),
        attribute_limits=attribute_limits,
    )


def assert_matches_oracle(relation, config, matrix=None):
    result = discover_rfds(relation, config)
    rfds, key_rfds = oracle_discover(relation, config, matrix)
    assert [str(rfd) for rfd in result.rfds] == [str(rfd) for rfd in rfds]
    assert result.rfds == rfds
    assert result.key_rfds == key_rfds
    return result


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_grouped_discovery_matches_oracle(data):
    relation = data.draw(relations())
    n = relation.n_tuples
    config = data.draw(
        configs(tuple(relation.attribute_names), n * (n - 1) // 2)
    )
    assert_matches_oracle(relation, config)


@pytest.mark.parametrize("name", ["restaurant", "cars", "glass", "bridges"])
def test_paper_datasets_match_oracle(name):
    relation = inject_missing(
        load_dataset(name, seed=0), rate=0.03, seed=1
    ).relation
    matrix = PairDistanceMatrix(
        relation,
        string_limit=PAPER_CONFIG.threshold_limit,
        max_pairs=PAPER_CONFIG.max_pairs,
        seed=PAPER_CONFIG.seed,
    )
    result = assert_matches_oracle(relation, PAPER_CONFIG, matrix)
    assert result.rfds


@pytest.mark.skipif(
    not SLOW,
    reason="set REPRO_DISCOVERY_EQUIV_SLOW=1 (the oracle takes 10-30 s)",
)
def test_glass_lhs3_matches_oracle():
    relation = inject_missing(
        load_dataset("glass", seed=0), rate=0.03, seed=1
    ).relation
    config = DiscoveryConfig(
        threshold_limit=3, max_lhs_size=3, grid_size=3, max_per_rhs=40,
    )
    assert_matches_oracle(relation, config)
