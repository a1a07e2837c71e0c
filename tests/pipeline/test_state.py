"""Run-state payloads and the pipeline lease.

The ``state.json`` envelope itself (round trip, torn files, ``.prev``
fallback) is covered with the other envelope stores in
``tests/utils/test_envelope.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LeaseError, StateError
from repro.pipeline.state import (
    Lease,
    PipelineState,
    RunRecord,
    StoreVersion,
    Watermark,
)

pytestmark = pytest.mark.pipeline

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


# ----------------------------------------------------------------------
# Envelope round trip (hypothesis)
# ----------------------------------------------------------------------
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-._", min_size=1,
    max_size=20,
)

watermarks = st.builds(
    Watermark,
    files=st.lists(names, max_size=5).map(tuple),
    rows=st.integers(min_value=0, max_value=10**9),
)

store_versions = st.builds(
    StoreVersion,
    version=st.integers(min_value=1, max_value=10**6),
    filename=names,
    fingerprint=st.text(
        alphabet="0123456789abcdef", min_size=8, max_size=64
    ),
    rows=st.integers(min_value=0, max_value=10**9),
)

cell_records = st.fixed_dictionaries({
    "type": st.just("cell"),
    "row": st.integers(min_value=0, max_value=10**6),
    "attribute": names,
    "status": st.sampled_from(["no_candidates", "all_rejected", "skipped"]),
    "value": st.none(),
    "candidates_tried": st.integers(min_value=0, max_value=50),
})

run_records = st.builds(
    RunRecord,
    run_id=names,
    mode=st.sampled_from(["full", "incr"]),
    status=st.sampled_from(["running", "committed", "failed"]),
    files=st.lists(names, max_size=5).map(tuple),
    new_files=st.lists(names, max_size=3).map(tuple),
    base_version=st.none() | st.integers(min_value=1, max_value=100),
    requested_mode=st.sampled_from(["auto", "full", "incr"]),
    degraded_reason=st.none() | names,
    started_unix=st.floats(
        min_value=0, max_value=2e9, allow_nan=False
    ),
    finished_unix=st.none() | st.floats(
        min_value=0, max_value=2e9, allow_nan=False
    ),
    rows_ingested=st.integers(min_value=0, max_value=10**6),
    cells_imputed=st.integers(min_value=0, max_value=10**6),
)

pipeline_states = st.builds(
    PipelineState,
    runs_started=st.integers(min_value=0, max_value=10**6),
    watermark=watermarks,
    store=st.none() | store_versions,
    run=st.none() | run_records,
    history=st.lists(run_records, max_size=3).map(tuple),
    unresolved=st.lists(cell_records, max_size=3).map(tuple),
)


class TestEnvelopeRoundTrip:
    @given(state=pipeline_states)
    @settings(max_examples=60, deadline=None)
    def test_payload_round_trip_is_identity(self, state):
        assert PipelineState.from_payload(state.to_payload()) == state

    def test_payload_is_json_serializable(self):
        state = PipelineState(
            runs_started=2,
            watermark=Watermark(files=("a.csv",), rows=10),
            store=StoreVersion(1, "imputed-000001.csv", "ab" * 32, 10),
        )
        json.dumps(state.to_payload())  # must not raise

    def test_invalid_payloads_raise_state_error(self):
        bad = [
            "not-an-object",
            {"runs_started": -1},
            {"watermark": {"files": "nope"}},
            {"store": {"version": 0}},
            {"run": {"run_id": "x", "mode": "sideways"}},
            {"unresolved": [{"type": "header"}]},
        ]
        for payload in bad:
            with pytest.raises(StateError):
                PipelineState.from_payload(payload)


# ----------------------------------------------------------------------
# The lease
# ----------------------------------------------------------------------
class TestLease:
    def test_acquire_release_cycle(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        lease = Lease(lock, owner="one")
        lease.acquire()
        assert lock.exists()
        assert lease.peek()["owner"] == "one"
        lease.release()
        assert not lock.exists()

    def test_live_lease_refuses_second_holder(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        first = Lease(lock, owner="one")
        first.acquire()
        try:
            with pytest.raises(LeaseError, match="held by one"):
                Lease(lock, owner="two").acquire()
        finally:
            first.release()

    def test_dead_pid_lease_is_taken_over(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        import socket

        lock.write_text(json.dumps({
            "owner": "crashed", "pid": _exited_pid(),
            "host": socket.gethostname(),
            "acquired_unix": time.time(), "ttl_seconds": 3600.0,
            "token": "deadbeef",
        }))
        taker = Lease(lock, owner="two", ttl_seconds=3600.0)
        taker.acquire()
        try:
            assert taker.peek()["owner"] == "two"
        finally:
            taker.release()

    def test_corrupt_lock_file_is_stale(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        lock.write_text("{torn write")
        lease = Lease(lock, owner="two")
        lease.acquire()
        try:
            assert lease.peek()["owner"] == "two"
        finally:
            lease.release()

    def test_expired_heartbeat_is_stale(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        holder = Lease(lock, owner="remote", ttl_seconds=0.05)
        holder.acquire()
        time.sleep(0.2)  # let the (unrenewed) heartbeat expire
        # Fake a remote host so pid liveness cannot decide it.
        payload = json.loads(lock.read_text())
        payload["host"] = "elsewhere.example"
        lock.write_text(json.dumps(payload))
        os.utime(lock, (time.time() - 10, time.time() - 10))
        taker = Lease(lock, owner="two", ttl_seconds=0.05)
        taker.acquire()
        try:
            assert taker.peek()["owner"] == "two"
        finally:
            taker.release()

    def test_heartbeat_keeps_short_ttl_lease_alive(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        holder = Lease(lock, owner="busy", ttl_seconds=0.3)
        with holder.held():
            time.sleep(0.8)  # several TTLs; heartbeat must renew
            with pytest.raises(LeaseError, match="held by busy"):
                Lease(lock, owner="two", ttl_seconds=0.3).acquire()

    def test_release_leaves_taken_over_lock_alone(self, tmp_path):
        lock = tmp_path / "pipeline.lock"
        import socket

        lock.write_text(json.dumps({
            "owner": "crashed", "pid": _exited_pid(),
            "host": socket.gethostname(),
            "acquired_unix": time.time(), "ttl_seconds": 3600.0,
            "token": "deadbeef",
        }))
        loser = Lease(lock, owner="loser")
        loser.acquire()
        winner_payload = loser.peek()
        # Simulate the old holder's belated release: token mismatch
        # means the file stays.
        stale = Lease(lock, owner="crashed")
        stale._held = True
        stale.release()
        assert lock.exists()
        assert loser.peek() == winner_payload
        loser.release()

    def test_contender_mid_acquisition_cannot_take_over(
        self, tmp_path, monkeypatch
    ):
        """A contender arriving while the first holder is still
        preparing its payload must not see a half-written lock (which
        would look corrupt, hence stale): exactly one of them holds."""
        lock = tmp_path / "pipeline.lock"
        first = Lease(lock, owner="first")
        second = Lease(lock, owner="second")
        outcomes: dict[str, str] = {}
        payload = Lease._payload

        def try_acquire(lease: Lease) -> None:
            try:
                lease.acquire()
            except LeaseError:
                outcomes[lease.owner] = "LOST"
            else:
                outcomes[lease.owner] = "WON"

        def racing_payload(lease: Lease) -> dict:
            if lease is first and "second" not in outcomes:
                try_acquire(second)
            return payload(lease)

        monkeypatch.setattr(Lease, "_payload", racing_payload)
        try_acquire(first)
        assert sorted(outcomes.values()) == ["LOST", "WON"], outcomes
        for lease in (first, second):
            lease.release()


def _exited_pid() -> int:
    """The pid of a process guaranteed to have exited."""
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    return probe.pid


_CONTENDER = textwrap.dedent("""
    import sys, time
    from pathlib import Path
    from repro.pipeline.state import Lease
    from repro.exceptions import LeaseError

    lock, go = Path(sys.argv[1]), Path(sys.argv[2])
    while not go.exists():          # start gate: maximise the race
        time.sleep(0.001)
    lease = Lease(lock, owner=sys.argv[3], ttl_seconds=3600.0)
    try:
        lease.acquire()
    except LeaseError:
        print("LOST")
    else:
        time.sleep(0.5)             # hold while the other contends
        print("WON")
        lease.release()
""")


@pytest.mark.chaos
class TestLeaseContention:
    def test_two_processes_exactly_one_takeover_winner(self, tmp_path):
        """Two real processes race for one stale lease; the rename-based
        takeover admits exactly one."""
        import socket

        lock = tmp_path / "pipeline.lock"
        go = tmp_path / "go"
        lock.write_text(json.dumps({
            "owner": "crashed", "pid": _exited_pid(),
            "host": socket.gethostname(),
            "acquired_unix": time.time(), "ttl_seconds": 3600.0,
            "token": "deadbeef",
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        )
        contenders = [
            subprocess.Popen(
                [sys.executable, "-c", _CONTENDER, str(lock),
                 str(go), f"contender-{index}"],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for index in range(2)
        ]
        go.write_text("")  # open the gate
        outputs = [
            process.communicate(timeout=60)[0].strip()
            for process in contenders
        ]
        assert sorted(outputs) == ["LOST", "WON"], outputs
