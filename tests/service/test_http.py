"""The HTTP layer: routes, CLI equivalence, errors, backpressure."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.discovery import DiscoveryConfig
from repro.service import ServiceConfig, build_server
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


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = build_server(
        "127.0.0.1", 0,
        config=ServiceConfig(discovery=DISCOVERY, max_inflight=4),
        artifact_dir=str(tmp_path_factory.mktemp("cache")),
        telemetry=Telemetry(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.drain()


@pytest.fixture()
def base(server):
    return f"http://127.0.0.1:{server.port}"


def call(base, method, path, body=None, raw=None):
    data = raw if raw is not None else (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestOneShot:
    def test_response_is_bit_identical_to_the_cli(
        self, base, tmp_path, capsys
    ):
        csv_path = tmp_path / "dirty.csv"
        csv_path.write_text(CSV, encoding="utf-8")
        rfds_path = tmp_path / "rfds.txt"
        rfds_path.write_text("\n".join(RFD_TEXTS) + "\n", encoding="utf-8")
        out_path = tmp_path / "clean.csv"
        assert main([
            "impute", str(csv_path), "--rfds", str(rfds_path),
            "--out", str(out_path),
        ]) == 0
        capsys.readouterr()

        status, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": RFD_TEXTS,
        })
        assert status == 200
        assert body["rfd_source"] == "provided"
        assert body["csv"] == out_path.read_text(encoding="utf-8")

    def test_discovery_cold_then_warm(self, base, server):
        request = {"csv": CSV}
        status, cold = call(base, "POST", "/v1/impute", request)
        assert status == 200
        assert cold["rfd_source"] == "discovered"
        status, warm = call(base, "POST", "/v1/impute", request)
        assert status == 200
        assert warm["rfd_source"] == "cache"
        assert warm["csv"] == cold["csv"]
        assert server.engine.store.hits >= 1

    def test_report_shape(self, base):
        _, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": RFD_TEXTS,
        })
        report = body["report"]
        assert report["missing_cells"] == 1
        assert report["imputed_cells"] == 1
        assert report["fill_rate"] == 1.0
        assert report["budget_exhausted"] is False

    def test_budget_overrun_returns_partial_not_500(self, base):
        status, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": RFD_TEXTS, "budget_seconds": 1e-9,
        })
        assert status == 200
        assert body["report"]["budget_exhausted"] is True


class TestSessions:
    def test_full_lifecycle(self, base):
        status, session = call(base, "POST", "/v1/sessions", {
            "csv": CSV, "rfds": RFD_TEXTS,
        })
        assert status == 201
        sid = session["id"]
        assert session["pending"] == 1

        status, appended = call(
            base, "POST", f"/v1/sessions/{sid}/tuples",
            {"rows": [["ann", "rome", None]]},
        )
        assert status == 200
        assert appended["pending"] == 2

        status, imputed = call(
            base, "POST", f"/v1/sessions/{sid}/impute"
        )
        assert status == 200
        statuses = {o["status"] for o in imputed["outcomes"]}
        assert "imputed" in statuses

        status, snapshot = call(base, "GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert snapshot["rounds"] == 1

        status, deleted = call(base, "DELETE", f"/v1/sessions/{sid}")
        assert status == 200
        status, _ = call(base, "GET", f"/v1/sessions/{sid}")
        assert status == 404

    def test_session_without_rfds_maintains_discovery(self, base):
        status, session = call(base, "POST", "/v1/sessions", {
            "csv": CSV,
        })
        assert status == 201
        assert session["rfd_source"] in ("cache", "discovered")
        sid = session["id"]
        status, appended = call(
            base, "POST", f"/v1/sessions/{sid}/tuples",
            {"rows": [["dot", "kiev", "444"]]},
        )
        assert status == 200
        assert appended["maintenance"] is not None
        call(base, "DELETE", f"/v1/sessions/{sid}")

    def test_registry_exhaustion_is_429(self, tmp_path):
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(discovery=DISCOVERY, max_sessions=1),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        local = f"http://127.0.0.1:{server.port}"
        try:
            body = {"csv": CSV, "rfds": RFD_TEXTS}
            status, _ = call(local, "POST", "/v1/sessions", body)
            assert status == 201
            status, refused = call(local, "POST", "/v1/sessions", body)
            assert status == 429
            assert "max_sessions" in refused["error"]
        finally:
            server.drain()


class TestErrorMapping:
    def test_unknown_route_is_404(self, base):
        assert call(base, "GET", "/nope")[0] == 404

    def test_non_json_body_is_400(self, base):
        status, body = call(
            base, "POST", "/v1/impute", raw=b"this is not json"
        )
        assert status == 400
        assert "JSON" in body["error"]

    def test_missing_csv_is_400(self, base):
        assert call(base, "POST", "/v1/impute", {})[0] == 400

    def test_bad_rfd_text_is_400_with_family(self, base):
        status, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": ["not an rfd"],
        })
        assert status == 400
        assert body["type"] == "RFDParseError"

    def test_malformed_csv_is_400(self, base):
        status, body = call(base, "POST", "/v1/impute", {
            "csv": "A,B\n1,2,3\n", "rfds": ["A(<=0) -> B(<=0)"],
        })
        assert status == 400

    def test_unknown_config_override_is_400(self, base):
        status, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": RFD_TEXTS, "config": {"time_budget_seconds": 4},
        })
        assert status == 400
        assert "time_budget_seconds" in body["error"]

    def test_unknown_discovery_option_is_400(self, base):
        status, body = call(base, "POST", "/v1/impute", {
            "csv": CSV, "discovery": {"bogus": 1},
        })
        assert status == 400

    def test_oversized_body_is_413(self, tmp_path):
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(
                discovery=DISCOVERY, max_body_bytes=2048
            ),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        local = f"http://127.0.0.1:{server.port}"
        try:
            status, _ = call(local, "POST", "/v1/impute", {
                "csv": "A,B\n" + "x,1\n" * 2000,
            })
            assert status == 413
        finally:
            server.drain()


class TestBackpressure:
    def test_admission_overflow_is_429_with_retry_after(self, tmp_path):
        # A depth-0 queue: permits still admit, but nothing may wait —
        # the first request past ``max_inflight`` is shed immediately.
        server = build_server(
            "127.0.0.1", 0,
            config=ServiceConfig(
                discovery=DISCOVERY, max_inflight=2, max_queue_depth=0,
            ),
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        local = f"http://127.0.0.1:{server.port}"
        try:
            # Hold every permit so the next imputation request overflows.
            permits = server.engine.config.max_inflight
            for _ in range(permits):
                server.admission.acquire()
            try:
                request = urllib.request.Request(
                    local + "/v1/impute",
                    data=json.dumps(
                        {"csv": CSV, "rfds": RFD_TEXTS}
                    ).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request)
                assert info.value.code == 429
                assert int(info.value.headers["Retry-After"]) >= 1
                refusal = json.loads(info.value.read())
                assert refusal["reason"] == "queue_full"
                assert server.admission.shed_counts["queue_full"] >= 1
                # Operational endpoints bypass admission entirely.
                assert call(local, "GET", "/healthz")[0] == 200
                assert call(local, "GET", "/healthz/ready")[0] == 200
                with urllib.request.urlopen(
                    local + "/metrics"
                ) as response:
                    assert response.status == 200
            finally:
                for _ in range(permits):
                    server.admission.release()
            # With permits back, the same request is served again.
            status, _ = call(local, "POST", "/v1/impute", {
                "csv": CSV, "rfds": RFD_TEXTS,
            })
            assert status == 200
        finally:
            server.drain()

    def test_server_recovers_after_overflow(self, base):
        status, _ = call(base, "POST", "/v1/impute", {
            "csv": CSV, "rfds": RFD_TEXTS,
        })
        assert status == 200


class TestConcurrency:
    def test_parallel_clients_get_consistent_answers(self, base):
        results: list[tuple[int, str]] = []
        lock = threading.Lock()

        def client():
            status, body = call(base, "POST", "/v1/impute", {
                "csv": CSV, "rfds": RFD_TEXTS,
            })
            with lock:
                results.append((status, body.get("csv", "")))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        assert len({csv for _, csv in results}) == 1


class TestMetricsEndpoint:
    def test_request_metrics_are_exposed(self, base):
        call(base, "GET", "/healthz")
        with urllib.request.urlopen(base + "/metrics") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain"
            )
            text = response.read().decode("utf-8")
        assert (
            'renuver_http_requests_total{code="200",route="/healthz"}'
            in text
        )
        assert "renuver_http_request_seconds_bucket" in text

    def test_label_escaping_survives_the_wire(self, server, base):
        # A label value with quotes, backslashes and newlines must reach
        # the scraper escaped exactly as the exposition format demands.
        server.telemetry.metrics.counter(
            "renuver_test_escaping_total",
            "Escaping probe.",
            path='a"b\\c\nd',
        ).inc()
        with urllib.request.urlopen(base + "/metrics") as response:
            text = response.read().decode("utf-8")
        assert (
            'renuver_test_escaping_total{path="a\\"b\\\\c\\nd"} 1'
        ) in text
