"""The durable-envelope primitive, driven through all three of its stores.

Every case runs against the pipeline's ``RunStateStore``, the service's
``SessionStore`` and the ``ArtifactStore`` through one small adapter per
store.  The first two keep a ``.prev`` generation; the artifact cache
does not, so wherever a two-generation store falls back, the cache
counts a miss instead.  What "both copies unreadable" means is each
store's own policy: the pipeline raises ``StateError``, a session is
dropped, an artifact is a counted miss.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.csv_io import read_csv_text, to_csv_text
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.discovery.dime import DiscoveryResult
from repro.exceptions import StateError
from repro.pipeline.state import PipelineState, RunStateStore, Watermark
from repro.rfd.parser import parse_rfd
from repro.service.artifacts import ArtifactStore
from repro.service.durability import SessionStore
from repro.telemetry import Telemetry
from repro.utils.atomic import disk_fault_injection
from repro.utils.fingerprint import payload_fingerprint
from tests.pipeline.test_state import pipeline_states

pytestmark = pytest.mark.chaos

RECOVERIES = "renuver_envelope_recoveries_total"
MISSES = "renuver_artifact_cache_misses_total"

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,111\n"
    "bob,oslo,222\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)
CONFIG = DiscoveryConfig(threshold_limit=1, max_lhs_size=1)
SESSION_ID = "s000001"


# ----------------------------------------------------------------------
# Hypothesis strategies, one per store's payload type
# ----------------------------------------------------------------------
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=30)
)

session_journals = st.fixed_dictionaries({
    "created": st.dictionaries(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
            max_size=12,
        ),
        json_scalars,
        max_size=6,
    ),
    "events": st.lists(
        st.fixed_dictionaries({
            "type": st.sampled_from(["append", "impute"]),
            "rows": st.lists(
                st.lists(json_scalars, max_size=4), max_size=3
            ),
        }),
        max_size=5,
    ),
})

_ATTRIBUTES = ("Name", "City", "Phone")


@st.composite
def rfd_texts(draw):
    lhs, rhs = draw(st.permutations(_ATTRIBUTES))[:2]
    low, high = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    return f"{lhs}(<={low}) -> {rhs}(<={high})"


discovery_results = st.builds(
    lambda rfds, keys, n_pairs, exact, counts: DiscoveryResult(
        rfds=[parse_rfd(text) for text in rfds],
        key_rfds=[parse_rfd(text) for text in keys],
        config=CONFIG,
        n_pairs=n_pairs,
        exact=exact,
        per_rhs_counts=counts,
    ),
    st.lists(rfd_texts(), max_size=6),
    st.lists(rfd_texts(), max_size=2),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.dictionaries(
        st.sampled_from(_ATTRIBUTES), st.integers(0, 100), max_size=3
    ),
)


# ----------------------------------------------------------------------
# One adapter per store
# ----------------------------------------------------------------------
class PipelineStateAdapter:
    name = "pipeline_state"
    generations = 2
    identity_field = None
    values = pipeline_states
    fresh = PipelineState()

    def __init__(self, root: Path) -> None:
        self.root = root
        self.telemetry = Telemetry()
        self.writer = RunStateStore(root, telemetry=self.telemetry)
        self.path = root / "state.json"

    def value(self, i: int) -> PipelineState:
        return PipelineState(
            runs_started=i, watermark=Watermark(files=(f"b{i}.csv",))
        )

    def save(self, value):
        return self.writer.save(value)

    def load(self):
        return RunStateStore(self.root, telemetry=self.telemetry).load()

    def comparable(self, value):
        return value

    def assert_lost(self, reason: str) -> None:
        with pytest.raises(StateError, match=f"both unreadable \\({reason}"):
            self.load()

    def assert_failed_save(self, value) -> None:
        with pytest.raises(StateError, match="cannot persist"):
            self.save(value)

    def legacy_text(self, value) -> str:
        # The previous writer: indent=2, checksum over the payload.
        payload = value.to_payload()
        return json.dumps({
            "state_version": 1,
            "envelope_seq": 1,
            "checksum": payload_fingerprint(payload),
            "payload": payload,
        }, ensure_ascii=False, indent=2)

    def rejected_payload(self) -> dict:
        return {"runs_started": -1}


class SessionAdapter:
    name = "session"
    generations = 2
    identity_field = "session_id"
    values = session_journals
    fresh = None

    def __init__(self, root: Path) -> None:
        self.root = root
        self.telemetry = Telemetry()
        self.writer = SessionStore(root, telemetry=self.telemetry)
        self.path = self.writer.path_for(SESSION_ID)

    def value(self, i: int) -> dict:
        return {"created": {"a": 1}, "events": [{"type": "impute"}] * i}

    def save(self, value):
        return self.writer.save(SESSION_ID, value)

    def load(self):
        return SessionStore(self.root, telemetry=self.telemetry).load(
            SESSION_ID
        )

    def comparable(self, value):
        return value

    def assert_lost(self, reason: str) -> None:
        assert self.load() is None  # dropped, whatever the reason

    def assert_failed_save(self, value) -> None:
        assert self.save(value) is False
        assert self.writer.persist_failures == 1

    def legacy_text(self, value) -> str:
        return json.dumps({
            "session_version": 1,
            "session_id": SESSION_ID,
            "envelope_seq": 1,
            "checksum": payload_fingerprint(value),
            "payload": value,
        }, ensure_ascii=False)


class ArtifactAdapter:
    name = "artifact"
    generations = 1
    identity_field = "fingerprint"
    values = discovery_results
    fresh = None

    def __init__(self, root: Path) -> None:
        self.telemetry = Telemetry()
        self.store = ArtifactStore(root / "cache", telemetry=self.telemetry)
        self.relation = read_csv_text(CSV, name="t")
        ref = self.store.discovery_ref(self.relation, CONFIG)
        self.path = self.store.path_for(
            "discovery", ref["fingerprint"], ref["config_key"]
        )

    def value(self, i: int) -> DiscoveryResult:
        return DiscoveryResult(
            rfds=[parse_rfd(f"City(<={i}) -> Name(<=0)")], key_rfds=[],
            config=CONFIG, n_pairs=10, exact=True,
        )

    def save(self, value):
        return self.store.save_discovery(self.relation, CONFIG, value)

    def load(self):
        return self.store.load_discovery(self.relation, CONFIG)

    def comparable(self, value):
        return None if value is None else value.to_json()

    def miss_count(self, reason: str) -> int:
        counter = self.telemetry.metrics.get(
            MISSES, kind="discovery", reason=reason
        )
        return 0 if counter is None else counter.value

    def assert_lost(self, reason: str) -> None:
        corruptions = self.store.corruptions
        assert self.load() is None
        assert self.miss_count(reason) == 1
        assert self.store.corruptions == corruptions + (
            reason != "key_mismatch"
        )

    def legacy_text(self, value) -> str:
        ref = self.store.discovery_ref(self.relation, CONFIG)
        return json.dumps({
            "artifact_version": 1,
            "kind": "discovery",
            "fingerprint": ref["fingerprint"],
            "config_key": ref["config_key"],
            "payload": value.to_json(),
        }, ensure_ascii=False)

    def rejected_payload(self) -> dict:
        return {"rfds": "not-a-list"}


ADAPTERS = {
    "pipeline_state": PipelineStateAdapter,
    "session": SessionAdapter,
    "artifact": ArtifactAdapter,
}


def stores(*names: str) -> list:
    """Parameters over ``names``; the pipeline's also carry its marker."""
    return [
        pytest.param(name, marks=pytest.mark.pipeline)
        if name == "pipeline_state" else name
        for name in names
    ]


ALL = stores(*ADAPTERS)
TWO_GENERATIONS = stores("pipeline_state", "session")


@pytest.fixture(params=ALL)
def adapter(request, tmp_path):
    return ADAPTERS[request.param](tmp_path)


@pytest.fixture(params=TWO_GENERATIONS)
def two_gen(request, tmp_path):
    return ADAPTERS[request.param](tmp_path)


def no_recoveries(adapter) -> bool:
    return RECOVERIES not in {
        family.name for family in adapter.telemetry.metrics.families()
    }


def recoveries(adapter, outcome: str) -> int:
    counter = adapter.telemetry.metrics.get(
        RECOVERIES, store=adapter.name, outcome=outcome
    )
    return 0 if counter is None else counter.value


def truncate(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def rewrite(path: Path, edit) -> None:
    """Apply ``edit`` to the parsed envelope; the JSON stays valid."""
    envelope = json.loads(path.read_text(encoding="utf-8"))
    edit(envelope)
    path.write_text(json.dumps(envelope), encoding="utf-8")


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL)
def test_round_trip_is_identity(name, tmp_path_factory):
    @settings(max_examples=25, deadline=None)
    @given(value=ADAPTERS[name].values)
    def check(value):
        adapter = ADAPTERS[name](tmp_path_factory.mktemp("envelope"))
        adapter.save(value)
        assert adapter.comparable(adapter.load()) == adapter.comparable(
            value
        )
        assert no_recoveries(adapter)
        if name == "session":
            assert adapter.writer.persist_failures == 0
        if name == "artifact":
            assert adapter.store.hits == 1 and adapter.store.misses == 0

    check()


def test_fresh_root_is_absent(adapter):
    assert adapter.load() == adapter.fresh
    assert no_recoveries(adapter)
    if adapter.name == "artifact":
        assert adapter.store.misses == 1
        assert adapter.miss_count("absent") == 1
        assert adapter.store.corruptions == 0


def test_envelope_seq_and_identity_on_disk(two_gen):
    returned = [two_gen.save(two_gen.value(i)) for i in (1, 2)]
    envelope = json.loads(two_gen.path.read_text(encoding="utf-8"))
    assert envelope["envelope_seq"] == 2
    assert list(envelope)[-2:] == ["checksum", "payload"]
    if two_gen.name == "pipeline_state":
        assert returned == [1, 2]
    else:
        assert returned == [True, True]
        assert envelope["session_id"] == SESSION_ID


# ----------------------------------------------------------------------
# Torn and edited current files
# ----------------------------------------------------------------------
def test_truncated_current_file(adapter):
    first, second = adapter.value(1), adapter.value(2)
    adapter.save(first)
    adapter.save(second)
    truncate(adapter.path)
    if adapter.generations == 1:
        adapter.assert_lost("corrupt")
        return
    assert adapter.load() == first  # one save's rollback
    assert recoveries(adapter, "prev") == 1
    assert recoveries(adapter, "lost") == 0


def test_checksum_mismatch_falls_back_to_prev(two_gen):
    two_gen.save(two_gen.value(1))
    two_gen.save(two_gen.value(2))
    rewrite(two_gen.path, lambda e: e["payload"].update(bit="flip"))
    assert two_gen.load() == two_gen.value(1)
    assert recoveries(two_gen, "prev") == 1


def test_checksum_mismatch_without_prev_is_lost(adapter):
    adapter.save(adapter.value(1))
    rewrite(adapter.path, lambda e: e["payload"].update(bit="flip"))
    adapter.assert_lost("checksum")


@pytest.mark.parametrize("edit", ["in_place", "reserialized"])
@pytest.mark.parametrize("lookup", ["by_relation", "by_reparsed"])
def test_edited_artifact_threshold_is_a_checksum_miss(
    tmp_path, lookup, edit
):
    telemetry = Telemetry()
    store = ArtifactStore(tmp_path, telemetry=telemetry)
    relation = read_csv_text(CSV, name="t")
    path = store.save_discovery(
        relation, CONFIG, discover_rfds(relation, CONFIG)
    )
    original, loosened = "City(<=0) -> Name(<=0)", "City(<=1) -> Name(<=0)"
    text = path.read_text(encoding="utf-8")
    assert f'"{original}"' in text
    if edit == "in_place":  # the writer's own layout, one byte changed
        path.write_text(text.replace(original, loosened, 1), encoding="utf-8")
    else:
        def loosen(envelope):
            rfds = envelope["payload"]["rfds"]
            rfds[rfds.index(original)] = loosened

        rewrite(path, loosen)
    if lookup == "by_reparsed":
        # Session replay's lookup: the relation re-read from its CSV
        # text, under another name, keys the same artifact.
        relation = read_csv_text(to_csv_text(relation), name="replayed")
    loaded = store.load_discovery(relation, CONFIG)
    assert loaded is None
    assert store.hits == 0
    assert store.corruptions == 1
    assert telemetry.metrics.get(
        MISSES, kind="discovery", reason="checksum"
    ).value == 1


def test_wrong_version_is_rejected(adapter):
    adapter.save(adapter.value(1))
    field = {
        "pipeline_state": "state_version",
        "session": "session_version",
        "artifact": "artifact_version",
    }[adapter.name]
    rewrite(adapter.path, lambda e: e.update({field: 99}))
    adapter.assert_lost("version")


@pytest.mark.parametrize("name", ["session", "artifact"])
def test_wrong_identity_is_rejected(name, tmp_path):
    adapter = ADAPTERS[name](tmp_path)
    adapter.save(adapter.value(1))
    rewrite(
        adapter.path, lambda e: e.update({adapter.identity_field: "0" * 64})
    )
    adapter.assert_lost("key_mismatch")


def test_non_object_envelope_is_corrupt(adapter):
    adapter.save(adapter.value(1))
    adapter.path.write_text("[1, 2, 3]", encoding="utf-8")
    adapter.assert_lost("corrupt")


@pytest.mark.parametrize("name", stores("pipeline_state", "artifact"))
def test_payload_the_store_rejects(name, tmp_path):
    """A checksum-valid payload the store's own validators refuse."""
    adapter = ADAPTERS[name](tmp_path)
    adapter.save(adapter.value(1))
    adapter.save(adapter.value(2))
    bad = adapter.rejected_payload()

    def replace_payload(envelope):
        envelope["payload"] = bad
        envelope["checksum"] = payload_fingerprint(bad)

    rewrite(adapter.path, replace_payload)
    if name == "artifact":
        adapter.assert_lost("undeserializable")
    else:
        assert adapter.load() == adapter.value(1)
        assert recoveries(adapter, "prev") == 1


# ----------------------------------------------------------------------
# Both generations unreadable: each store's own policy
# ----------------------------------------------------------------------
def test_both_copies_unreadable(adapter):
    adapter.save(adapter.value(1))
    adapter.save(adapter.value(2))
    adapter.path.write_bytes(b"\xff\xfe{torn")  # not even UTF-8
    prev = adapter.path.with_name(adapter.path.name + ".prev")
    if adapter.generations == 2:
        prev.write_text("{also torn", encoding="utf-8")
    else:
        assert not prev.exists()
    adapter.assert_lost("corrupt")
    if adapter.generations == 2:
        assert recoveries(adapter, "lost") == 1
        assert recoveries(adapter, "prev") == 0


def test_save_after_a_lost_envelope_heals(adapter):
    adapter.save(adapter.value(1))
    adapter.path.write_text("garbage", encoding="utf-8")
    adapter.assert_lost("corrupt")
    adapter.save(adapter.value(2))
    assert adapter.comparable(adapter.load()) == adapter.comparable(
        adapter.value(2)
    )


def test_failed_save_after_fallback_keeps_the_good_prev(two_gen):
    """A save must never stage a torn current file over ``.prev``."""
    first = two_gen.value(1)
    two_gen.save(first)
    two_gen.save(two_gen.value(2))
    truncate(two_gen.path)
    assert two_gen.load() == first  # falls back

    current = two_gen.path.resolve()

    def fail_current(path: Path) -> None:
        if path.resolve() == current:
            raise OSError(28, "No space left on device")

    with disk_fault_injection(fail_current):
        two_gen.assert_failed_save(two_gen.value(3))
    assert two_gen.load() == first
    assert recoveries(two_gen, "prev") == 2
    assert recoveries(two_gen, "lost") == 0


# ----------------------------------------------------------------------
# Envelopes written before the shared primitive
# ----------------------------------------------------------------------
def test_previous_writer_format(adapter):
    value = adapter.value(1)
    adapter.path.parent.mkdir(parents=True, exist_ok=True)
    adapter.path.write_text(adapter.legacy_text(value), encoding="utf-8")
    if adapter.name == "artifact":
        # v1 artifacts carry no checksum: one miss, then recomputed.
        adapter.assert_lost("version")
        adapter.save(value)
        assert adapter.comparable(adapter.load()) == adapter.comparable(
            value
        )
        return
    assert adapter.load() == value
    assert no_recoveries(adapter)
    # The next save stages the old-format file as a valid ``.prev``.
    adapter.save(adapter.value(2))
    truncate(adapter.path)
    assert adapter.load() == value
