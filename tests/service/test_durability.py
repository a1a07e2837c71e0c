"""Session files and journal replay recovery.

The envelope itself (round trip, torn files, ``.prev`` fallback) is
covered with the other envelope stores in ``tests/utils/test_envelope.py``.
"""

import json
import shutil
import threading
from pathlib import Path

import pytest

from repro.discovery import DiscoveryConfig
from repro.service import ServiceConfig, SessionStore, build_server
from repro.telemetry import Telemetry

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,\n"
    "bob,oslo,222\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)
RFD_TEXTS = ["Name(<=0),City(<=0) -> Phone(<=0)"]
DISCOVERY = DiscoveryConfig(threshold_limit=1, max_lhs_size=1)

#: An artifact directory written by a version whose creation records
#: carried a ``discovery_ref`` next to the inline discovery result: one
#: session over discovered RFDs (physician columns, discovery options
#: journaled) with one append and one impute event, its discovery
#: artifact, and in ``expected.json`` that version's answers to the
#: session's next append and impute round.
LEGACY_SESSION = Path(__file__).parent / "data" / "durable_session"


class TestSessionFiles:
    def test_delete_removes_both_copies(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("s000001", {"created": {}, "events": []})
        store.save("s000001", {"created": {}, "events": [1]})
        store.delete("s000001")
        assert store.path_for("s000001").exists() is False
        assert not list(tmp_path.glob("*.prev"))
        assert store.session_ids() == []

    def test_session_ids_ignores_foreign_files(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("s000002", {"created": {}, "events": []})
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "sXYZ.json").write_text("{}", encoding="utf-8")
        assert store.session_ids() == ["s000002"]


# ----------------------------------------------------------------------
# End-to-end recovery through the HTTP layer (in-process)
# ----------------------------------------------------------------------
def _serve(artifact_dir):
    server = build_server(
        "127.0.0.1", 0,
        config=ServiceConfig(discovery=DISCOVERY),
        artifact_dir=str(artifact_dir),
        telemetry=Telemetry(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def _call(server, method, path, body=None):
    import urllib.request

    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", data=data,
        method=method, headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


class TestJournalReplayRecovery:
    def test_recovered_session_answers_bit_identical(self, tmp_path):
        body = {"csv": CSV, "rfds": RFD_TEXTS}
        rows = [["ann", "rome", None], ["dot", "kiev", "444"]]

        # Control: an uninterrupted server runs the whole sequence.
        control = _serve(tmp_path / "a")
        try:
            sid = _call(control, "POST", "/v1/sessions", body)["id"]
            _call(control, "POST", f"/v1/sessions/{sid}/tuples",
                  {"rows": rows})
            expected = _call(
                control, "POST", f"/v1/sessions/{sid}/impute"
            )
        finally:
            control.drain()

        # Crash case: same create+append, then the process "dies" (the
        # server is abandoned without drain) and a new one boots over
        # the same artifact directory.
        crashed = _serve(tmp_path / "b")
        sid = _call(crashed, "POST", "/v1/sessions", body)["id"]
        _call(crashed, "POST", f"/v1/sessions/{sid}/tuples",
              {"rows": rows})
        # Stop without deleting anything: the journal on disk is
        # all the next boot gets (the real SIGKILL run lives in
        # test_chaos_http.py).
        crashed.drain()

        revived = _serve(tmp_path / "b")
        try:
            assert revived.recovery == {"recovered": 1, "dropped": 0}
            snapshot = _call(revived, "GET", f"/v1/sessions/{sid}")
            assert snapshot["durable"] is True
            assert snapshot["appended_tuples"] == len(rows)
            replayed = _call(
                revived, "POST", f"/v1/sessions/{sid}/impute"
            )
            assert replayed["csv"] == expected["csv"]
            assert replayed["outcomes"] == expected["outcomes"]
        finally:
            revived.drain()

    def test_retired_engine_override_replays_identically(
        self, tmp_path, caplog
    ):
        """A session journaled under the retired scalar brownout tier
        (creation record ``overrides={"engine": "scalar"}``) recovers
        and answers byte-identically to the same session without it."""
        body = {"csv": CSV, "rfds": RFD_TEXTS}
        first = _serve(tmp_path / "plain")
        sid = _call(first, "POST", "/v1/sessions", body)["id"]
        _call(first, "POST", f"/v1/sessions/{sid}/tuples",
              {"rows": [["ann", "rome", None], ["dot", "kiev", "444"]]})
        first.drain()

        plain_dir = tmp_path / "plain" / "sessions"
        payload = SessionStore(plain_dir).load(sid)
        assert payload["created"]["overrides"] is None
        payload["created"]["overrides"] = {"engine": "scalar"}
        SessionStore(tmp_path / "legacy" / "sessions").save(sid, payload)

        answers = []
        for name in ("plain", "legacy"):
            revived = _serve(tmp_path / name)
            try:
                assert revived.recovery == {"recovered": 1, "dropped": 0}
                answers.append(
                    _call(revived, "POST", f"/v1/sessions/{sid}/impute")
                )
            finally:
                revived.drain()
        plain, legacy = answers
        assert legacy["csv"] == plain["csv"]
        assert legacy["outcomes"] == plain["outcomes"]
        assert plain["report"]["imputed_cells"] >= 1
        retired = [
            record for record in caplog.records
            if "retired 'engine'" in record.getMessage()
        ]
        assert len(retired) == 1

    def test_discovery_session_recovers_without_rediscovery(
        self, tmp_path
    ):
        serve_dir = tmp_path / "cache"
        first = _serve(serve_dir)
        sid = _call(first, "POST", "/v1/sessions", {"csv": CSV})["id"]
        _call(first, "POST", f"/v1/sessions/{sid}/tuples",
              {"rows": [["eve", "bern", "555"]]})
        first.drain()

        revived = _serve(serve_dir)
        try:
            assert revived.recovery["recovered"] == 1
            ready = _call(revived, "GET", "/healthz/ready")
            assert ready["recovered_sessions"] == 1
            outcome = _call(
                revived, "POST", f"/v1/sessions/{sid}/impute"
            )
            assert outcome["report"]["missing_cells"] >= 1
        finally:
            revived.drain()

    @pytest.mark.parametrize("damage", ["deleted", "garbage"])
    def test_discovery_session_replays_from_its_inline_copy(
        self, tmp_path, damage
    ):
        """A discovered session whose artifact cache is gone or garbled
        replays from the RFD set its creation record carries, looks
        nothing up in the cache and answers as if never interrupted."""
        rows = [["eve", "bern", "555"], ["bob", "oslo", None]]
        control = _serve(tmp_path / "a")
        try:
            sid = _call(control, "POST", "/v1/sessions", {"csv": CSV})["id"]
            _call(control, "POST", f"/v1/sessions/{sid}/tuples",
                  {"rows": rows})
            expected = _call(
                control, "POST", f"/v1/sessions/{sid}/impute"
            )
        finally:
            control.drain()

        serve_dir = tmp_path / "b"
        crashed = _serve(serve_dir)
        sid = _call(crashed, "POST", "/v1/sessions", {"csv": CSV})["id"]
        _call(crashed, "POST", f"/v1/sessions/{sid}/tuples",
              {"rows": rows})
        crashed.drain()
        artifacts = list((serve_dir / "discovery").rglob("*.json"))
        assert len(artifacts) == 1
        if damage == "deleted":
            shutil.rmtree(serve_dir / "discovery")
        else:
            artifacts[0].write_text("garbage", encoding="utf-8")

        revived = _serve(serve_dir)
        try:
            assert revived.recovery == {"recovered": 1, "dropped": 0}
            store = revived.engine.store
            assert (store.hits, store.misses) == (0, 0)
            replayed = _call(
                revived, "POST", f"/v1/sessions/{sid}/impute"
            )
            assert replayed["csv"] == expected["csv"]
            assert replayed["outcomes"] == expected["outcomes"]
        finally:
            revived.drain()

    def test_corrupt_envelope_drops_session_but_boots(self, tmp_path):
        serve_dir = tmp_path / "cache"
        first = _serve(serve_dir)
        sid = _call(
            first, "POST", "/v1/sessions",
            {"csv": CSV, "rfds": RFD_TEXTS},
        )["id"]
        first.drain()

        sessions_dir = serve_dir / "sessions"
        for path in sessions_dir.glob(f"{sid}.json*"):
            path.write_text("garbage", encoding="utf-8")
        revived = _serve(serve_dir)
        try:
            assert revived.recovery == {"recovered": 0, "dropped": 1}
            ready = _call(revived, "GET", "/healthz/ready")
            assert ready["dropped_sessions"] == 1
            # The server still serves new work.
            out = _call(revived, "POST", "/v1/impute",
                        {"csv": CSV, "rfds": RFD_TEXTS})
            assert out["rfd_source"] == "provided"
        finally:
            revived.drain()


class TestLegacySessionEnvelope:
    @pytest.mark.parametrize("cache", ["present", "deleted"])
    def test_next_round_answers_as_before(self, tmp_path, cache):
        root = tmp_path / "artifacts"
        shutil.copytree(LEGACY_SESSION / "sessions", root / "sessions")
        if cache == "present":
            shutil.copytree(
                LEGACY_SESSION / "discovery", root / "discovery"
            )
        expected = json.loads(
            (LEGACY_SESSION / "expected.json").read_text(encoding="utf-8")
        )
        created = SessionStore(root / "sessions").load("s000001")[
            "created"
        ]
        assert created["discovery_ref"] and created["discovery_inline"]

        server = _serve(root)
        try:
            assert server.recovery == {"recovered": 1, "dropped": 0}
            # Replay reads the inline copy, never the cache.
            assert server.engine.store.hits == 0
            appended = _call(
                server, "POST", "/v1/sessions/s000001/tuples",
                {"rows": expected["next_rows"]},
            )
            appended.pop("budget_remaining_seconds")
            assert appended == expected["append"]
            answer = _call(server, "POST", "/v1/sessions/s000001/impute")
            assert answer["csv"] == expected["impute"]["csv"]
            assert answer["outcomes"] == expected["impute"]["outcomes"]
        finally:
            server.drain()
