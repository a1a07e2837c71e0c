"""JSON serialization of discovery artifacts (the service persists
these); the textual RFD grammar round-trips by property."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.dataset.csv_io import read_csv_text
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.discovery.dime import DiscoveryResult
from repro.rfd.constraint import Constraint
from repro.rfd.parser import parse_rfd
from repro.rfd.rfd import RFD

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,111\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)
CONFIG = DiscoveryConfig(threshold_limit=1, max_lhs_size=1)

attribute_names = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")),
    min_size=1, max_size=8,
).filter(lambda name: name[0].isalpha())

# The grammar reads plain decimal notation, so keep generated floats
# on a grid that never renders in scientific notation.
thresholds = st.one_of(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=396).map(lambda n: n / 4.0),
)


@st.composite
def rfds(draw):
    names = draw(st.lists(
        attribute_names, min_size=2, max_size=4, unique=True
    ))
    lhs = tuple(
        Constraint(name, draw(thresholds)) for name in names[:-1]
    )
    return RFD(lhs, Constraint(names[-1], draw(thresholds)))


class TestRfdTextRoundTrip:
    @given(rfds())
    def test_parse_of_format_is_identity(self, rfd):
        reparsed = parse_rfd(str(rfd))
        assert str(reparsed) == str(rfd)
        assert reparsed.rhs_attribute == rfd.rhs_attribute
        assert reparsed.rhs_threshold == rfd.rhs_threshold
        assert reparsed.lhs_attributes == rfd.lhs_attributes

    @given(rfds())
    def test_double_round_trip_is_stable(self, rfd):
        once = parse_rfd(str(rfd))
        twice = parse_rfd(str(once))
        assert str(once) == str(twice)


class TestDiscoveryResultJson:
    @pytest.fixture()
    def result(self):
        relation = read_csv_text(CSV, name="t")
        return discover_rfds(relation, CONFIG)

    def test_round_trip_preserves_everything(self, result):
        restored = DiscoveryResult.from_json(result.to_json())
        assert [str(r) for r in restored.rfds] == [
            str(r) for r in result.rfds
        ]
        assert [str(r) for r in restored.key_rfds] == [
            str(r) for r in result.key_rfds
        ]
        assert restored.config == result.config
        assert restored.n_pairs == result.n_pairs
        assert restored.exact == result.exact
        assert restored.per_rhs_counts == result.per_rhs_counts

    def test_payload_is_plain_json(self, result):
        import json

        assert json.loads(json.dumps(result.to_json())) == result.to_json()

    def test_rfds_persist_in_the_paper_notation(self, result):
        payload = result.to_json()
        for text in payload["rfds"] + payload["key_rfds"]:
            assert "->" in text
            parse_rfd(text)  # must be readable by the standard parser
