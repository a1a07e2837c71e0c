"""Service-level chaos: SIGKILL + replay, 2x overload, HTTP faults.

Marked ``service_chaos`` — CI runs it as its own job.  The suite holds
the PR's acceptance bar:

* a real ``python -m repro serve`` subprocess SIGKILLed mid-session
  comes back (same artifact dir) with the session recovered, and the
  next request answers **bit-identical** to an uninterrupted control
  run;
* a sustained 2x-overload burst engages the brownout ladder, every
  refused request is a counted 429 with ``Retry-After``, and overload
  alone produces **zero 5xx**;
* the hardened :class:`~repro.service.ServiceClient` survives every
  injected HTTP fault kind (reset, slow-loris, mid-response kill,
  handler crash) without surfacing a transport error for idempotent
  work.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.robustness.chaos import ChaosConfig, ChaosInjector
from repro.service import ServiceClient, ServiceConfig, build_server
from repro.telemetry import Telemetry

pytestmark = pytest.mark.service_chaos

ROOT = Path(__file__).resolve().parents[2]

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,\n"
    "bob,oslo,222\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)
RFD_TEXTS = ["Name(<=0),City(<=0) -> Phone(<=0)"]
SESSION_BODY = {"csv": CSV, "rfds": RFD_TEXTS}
APPEND_ROWS = [["ann", "rome", None], ["dot", "kiev", "444"]]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start_server(*extra_args):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_env(), cwd=str(ROOT),
        start_new_session=True,
    )
    banner = process.stderr.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if match is None:
        process.kill()
        out, err = process.communicate(timeout=10)
        raise AssertionError(f"no banner: {banner!r} / {err!r}")
    return process, int(match.group(1))


def _run_session(port, *, impute=True):
    """Create + append (+ optionally impute) one session; returns
    (session id, impute response or None)."""
    client = ServiceClient(f"http://127.0.0.1:{port}", seed=5)
    sid = client.open_session(SESSION_BODY)["id"]
    client.append_tuples(sid, APPEND_ROWS)
    if not impute:
        return sid, None
    return sid, client.impute_session(sid)


class TestSigkillRecovery:
    def test_killed_server_replays_bit_identical(self, tmp_path):
        # Control: an uninterrupted server runs the whole sequence.
        process, port = _start_server(
            "--artifact-dir", str(tmp_path / "control")
        )
        try:
            _, expected = _run_session(port)
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)

        # Chaos run: same create+append, then SIGKILL before the
        # imputation round ever runs.
        chaos_dir = str(tmp_path / "chaos")
        process, port = _start_server("--artifact-dir", chaos_dir)
        try:
            sid, _ = _run_session(port, impute=False)
        finally:
            process.kill()  # SIGKILL: no drain, no atexit, nothing
            process.communicate(timeout=30)

        # Restart over the same artifact dir: recovery replays the
        # journal before the socket binds.
        process, port = _start_server("--artifact-dir", chaos_dir)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", seed=5)
            ready = client.readiness()
            assert ready["recovered_sessions"] == 1
            assert ready["dropped_sessions"] == 0
            snapshot = client.session(sid)
            assert snapshot["durable"] is True
            assert snapshot["appended_tuples"] == len(APPEND_ROWS)
            replayed = client.impute_session(sid)
            # The acceptance bar: byte-identical to the control run.
            assert replayed["csv"] == expected["csv"]
            assert replayed["outcomes"] == expected["outcomes"]
            assert replayed["report"] == expected["report"] | {
                "elapsed_seconds": replayed["report"]["elapsed_seconds"],
            }
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err[-2000:]

    def test_sigkill_between_rounds_preserves_later_rounds(
        self, tmp_path
    ):
        chaos_dir = str(tmp_path / "chaos")
        process, port = _start_server("--artifact-dir", chaos_dir)
        try:
            sid, first_round = _run_session(port)
        finally:
            process.kill()
            process.communicate(timeout=30)

        process, port = _start_server("--artifact-dir", chaos_dir)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", seed=5)
            snapshot = client.session(sid)
            # The imputation round itself was journaled and replayed.
            assert snapshot["rounds"] == 1
            assert snapshot["pending"] == 0
            again = client.impute_session(sid)
            # Round 2 on the recovered state: nothing left to impute,
            # and the relation bytes match round 1's output.
            assert again["csv"] == first_round["csv"]
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)


class TestOverloadBrownout:
    def test_2x_overload_sheds_audits_and_never_5xxes(self, tmp_path):
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(
                max_inflight=1,
                max_queue_depth=0,
                brownout_step_up_sheds=2,
                brownout_window_seconds=30.0,
                brownout_cooldown_seconds=300.0,
            ),
            telemetry=Telemetry(),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        statuses = []
        lock = threading.Lock()
        # A relation heavy enough that each admitted request holds the
        # single permit for a visible stretch — the 5-row fixture
        # finishes faster than the next connection can arrive, which
        # would make the "overload" accidentally sequential.
        rows = []
        for i in range(400):
            phone = "" if i % 17 == 0 else f"{600 + i % 23}"
            rows.append(f"n{i % 40},c{i % 15},{phone}")
        heavy_csv = "Name,City,Phone\n" + "\n".join(rows) + "\n"
        data = json.dumps(
            {"csv": heavy_csv, "rfds": RFD_TEXTS}
        ).encode("utf-8")

        def hammer():
            for _ in range(8):
                request = urllib.request.Request(
                    base + "/v1/impute", data=data,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request) as response:
                        response.read()
                        status, retry_after = response.status, None
                except urllib.error.HTTPError as error:
                    error.read()
                    status = error.code
                    retry_after = error.headers.get("Retry-After")
                with lock:
                    statuses.append((status, retry_after))

        try:
            # 4 open-loop clients against 1 permit: sustained overload.
            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()

            shed = [s for s in statuses if s[0] == 429]
            server_errors = [s for s in statuses if s[0] >= 500]
            assert server_errors == [], server_errors
            assert shed, "2x overload produced no sheds"
            # Every shed carries a Retry-After and was counted.
            assert all(
                ra is not None and int(ra) >= 1 for _, ra in shed
            )
            assert sum(server.admission.shed_counts.values()) >= len(
                shed
            )
            # Sustained saturation climbed the ladder, audited.
            assert server.brownout.level >= 1
            assert server.brownout.transitions >= 1
            record = server.brownout.audit[0]
            assert record.from_tier == "normal"
            # ... and the metrics endpoint exposes the whole story.
            with urllib.request.urlopen(base + "/metrics") as response:
                text = response.read().decode("utf-8")
            assert "renuver_service_shed_total" in text
            assert "renuver_service_brownout_total" in text
            assert "renuver_service_brownout_level" in text
        finally:
            server.drain()

    @staticmethod
    def _force_tier(server, level):
        # Pin the ladder at ``level``: a fresh controller has never
        # shed, so ``observe()`` would otherwise decay the forced
        # level on the very next request.
        server.brownout._level = level
        server.brownout._last_shed = server.brownout._clock()

    def test_cache_only_tier_sheds_fresh_discovery(self, tmp_path):
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(
                max_inflight=2,
                brownout_cooldown_seconds=3600.0,
            ),
            artifact_dir=str(tmp_path / "cache"),
            telemetry=Telemetry(),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", max_retries=0
        )
        try:
            # Warm the artifact cache for this relation, then brown out.
            warm = client.impute({
                "csv": CSV, "discovery": {"limit": 1, "max_lhs": 1},
            })
            assert warm["rfd_source"] == "discovered"
            self._force_tier(server, 1)

            # Pinned RFDs: still served.
            pinned = client.impute(SESSION_BODY)
            assert pinned["brownout_tier"] == "cache_only"

            # Warm artifact: still served.
            cached = client.impute({
                "csv": CSV, "discovery": {"limit": 1, "max_lhs": 1},
            })
            assert cached["rfd_source"] == "cache"

            # Fresh discovery (different config key): shed, not erred.
            with pytest.raises(Exception) as info:
                client.impute({
                    "csv": CSV,
                    "discovery": {"limit": 2, "max_lhs": 1},
                })
            assert getattr(info.value, "status", None) == 429
            assert server.admission.shed_counts["cache_only"] >= 1
        finally:
            server.drain()


class TestHTTPFaults:
    def _faulty_server(self, rates):
        chaos = ChaosInjector(ChaosConfig(
            seed=42, http_slow_seconds=0.01, **rates
        ))
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(max_inflight=4),
            telemetry=Telemetry(),
            chaos=chaos,
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        return server, chaos

    def test_client_survives_every_fault_kind(self):
        server, chaos = self._faulty_server({
            "http_reset_rate": 0.15,
            "http_slow_read_rate": 0.1,
            "http_mid_kill_rate": 0.15,
            "http_crash_rate": 0.1,
        })
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}",
            max_retries=8, timeout_seconds=10.0, seed=7,
        )
        try:
            expected = None
            for _ in range(20):
                out = client.impute(SESSION_BODY)
                if expected is None:
                    expected = out["csv"]
                # Fault or no fault, every answer is the same bytes.
                assert out["csv"] == expected
            assert chaos.http_faults_injected > 0
            assert client.retries > 0
        finally:
            server.drain()

    def test_crash_fault_is_500_and_the_server_keeps_serving(self):
        server, chaos = self._faulty_server({"http_crash_rate": 1.0})
        base = f"http://127.0.0.1:{server.port}"
        try:
            request = urllib.request.Request(
                base + "/v1/impute",
                data=json.dumps(SESSION_BODY).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 500
            assert "internal error" in json.loads(
                info.value.read()
            )["error"]
            # Stop injecting: the very next request is served normally.
            server.chaos = None
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            # The faults were counted for the operator.
            with urllib.request.urlopen(base + "/metrics") as response:
                text = response.read().decode("utf-8")
            assert 'renuver_http_chaos_faults_total{kind="crash"}' in text
        finally:
            server.drain()

    def test_fault_plan_is_seed_deterministic(self):
        plans = []
        for _ in range(2):
            chaos = ChaosInjector(ChaosConfig(
                seed=9,
                http_reset_rate=0.25, http_slow_read_rate=0.25,
                http_mid_kill_rate=0.25, http_crash_rate=0.25,
            ))
            plans.append([
                (chaos.http_fault() or {}).get("kind")
                for _ in range(50)
            ])
        assert plans[0] == plans[1]
        # Rates sum to 1: every draw faults, and all kinds appear.
        assert set(plans[0]) == {
            "reset", "slow_read", "mid_kill", "crash"
        }
