"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.dataset import read_csv
from repro.evaluation import save_rule_file
from repro.evaluation.rules import DatasetValidator, DeltaRule

CSV = (
    "Zip,City,Age\n"
    "90001,Los Angeles,34\n"
    "90001,Los Angeles,41\n"
    "94101,San Francisco,29\n"
    "94101,San Francisco,55\n"
    "10001,New York,47\n"
    "10001,New York,38\n"
)

DIRTY_CSV = CSV.replace("94101,San Francisco,55", "94101,,55")


@pytest.fixture()
def clean_csv(tmp_path):
    path = tmp_path / "clean.csv"
    path.write_text(CSV)
    return path


@pytest.fixture()
def dirty_csv(tmp_path):
    path = tmp_path / "dirty.csv"
    path.write_text(DIRTY_CSV)
    return path


class TestDiscover:
    def test_discover_to_stdout(self, clean_csv, capsys):
        assert main(["discover", str(clean_csv), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "->" in out

    def test_discover_to_file(self, clean_csv, tmp_path):
        out = tmp_path / "rfds.txt"
        code = main([
            "discover", str(clean_csv), "--limit", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "->" in out.read_text()

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_limit_exits_6(self, clean_csv, capsys, limit):
        # DiscoveryError family -> exit 6, one line, no traceback
        assert main(["discover", str(clean_csv), "--limit", limit]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "finite" in err
        assert "Traceback" not in err

    def test_max_per_rhs(self, clean_csv, capsys):
        assert main([
            "discover", str(clean_csv), "--limit", "6",
            "--max-per-rhs", "1",
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        rhs = [line.rsplit("->", 1)[1].split("(")[0].strip()
               for line in lines]
        assert all(rhs.count(name) <= 2 for name in set(rhs))


class TestImpute:
    def test_impute_round_trip(self, dirty_csv, tmp_path):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        out = tmp_path / "clean.csv"
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--out", str(out),
        ])
        assert code == 0
        imputed = read_csv(out)
        assert imputed.value(3, "City") == "San Francisco"
        assert imputed.count_missing() == 0

    def test_impute_to_stdout(self, dirty_csv, tmp_path, capsys):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        assert main([
            "impute", str(dirty_csv), "--rfds", str(rfds), "--report",
        ]) == 0
        captured = capsys.readouterr()
        assert "San Francisco" in captured.out
        assert "from tuple" in captured.err

    def test_missing_rfd_file(self, dirty_csv):
        assert main([
            "impute", str(dirty_csv), "--rfds", "/nonexistent.txt",
        ]) == 1


class TestEvaluate:
    def test_evaluate_prints_scores(self, clean_csv, capsys):
        code = main([
            "evaluate", str(clean_csv), "--rate", "0.1",
            "--limit", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "P=" in out and "R=" in out

    def test_evaluate_with_rules(self, clean_csv, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        save_rule_file(
            DatasetValidator({"Age": [DeltaRule(100)]}), rules
        )
        code = main([
            "evaluate", str(clean_csv), "--rate", "0.1",
            "--rules", str(rules),
        ])
        assert code == 0
        assert "P=" in capsys.readouterr().out


class TestDatasets:
    def test_list(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "restaurant" in out and "physician" in out

    def test_export(self, tmp_path):
        out = tmp_path / "bridges.csv"
        code = main([
            "datasets", "--export", "bridges", "--tuples", "20",
            "--out", str(out),
        ])
        assert code == 0
        assert read_csv(out).n_tuples == 20

    def test_export_unknown(self, capsys):
        # DataError family -> exit 4 under the CLI error contract
        assert main(["datasets", "--export", "nope"]) == 4
        assert "error" in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage" in out
        assert "serve" in out


class TestServe:
    """Parser-level checks; live-server behavior is covered by
    ``tests/service/`` (including the SIGTERM smoke suite)."""

    def test_help_documents_the_service_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in ["--host", "--port", "--artifact-dir",
                     "--max-inflight", "--max-sessions",
                     "--request-budget", "--limit"]:
            assert flag in out, flag

    def test_bad_service_config_exits_8(self, capsys):
        assert main(["serve", "--max-inflight", "0"]) == 8
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestErrorContract:
    """Distinct exit codes per error family, one-line stderr."""

    def test_exit_code_map(self):
        from repro.cli import exit_code_for
        from repro import exceptions as E

        assert exit_code_for(E.BudgetExceededError("x")) == 3
        assert exit_code_for(E.CSVFormatError("x")) == 4
        assert exit_code_for(E.DataError("x")) == 4
        assert exit_code_for(E.SchemaError("x")) == 4
        assert exit_code_for(E.RFDParseError("x")) == 5
        assert exit_code_for(E.RuleFileError("x")) == 5
        assert exit_code_for(E.JournalError("x")) == 5
        assert exit_code_for(E.ImputationError("x")) == 6
        assert exit_code_for(E.EvaluationError("x")) == 6
        assert exit_code_for(E.ServiceError("x")) == 8
        assert exit_code_for(E.ReproError("x")) == 1

    def test_bad_csv_exits_4_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2,3\n")
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("A(<=0) -> B(<=0)\n")
        assert main([
            "impute", str(bad), "--rfds", str(rfds),
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_rfd_file_exits_5(self, dirty_csv, tmp_path, capsys):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("this is not an RFD\n")
        assert main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
        ]) == 5
        assert "error:" in capsys.readouterr().err

    def test_debug_reraises(self, tmp_path):
        from repro.exceptions import CSVFormatError

        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2,3\n")
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("A(<=0) -> B(<=0)\n")
        with pytest.raises(CSVFormatError):
            main(["--debug", "impute", str(bad), "--rfds", str(rfds)])


class TestRobustnessFlags:
    def test_budget_exceeded_exits_3_with_partial(
        self, dirty_csv, tmp_path, capsys
    ):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        out = tmp_path / "partial.csv"
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--budget", "1e-9", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err and "budget" in err
        assert out.exists()  # partial result preserved

    def test_on_budget_partial_exits_0(self, dirty_csv, tmp_path):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        out = tmp_path / "partial.csv"
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--budget", "1e-9", "--on-budget", "partial",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_journal_then_resume(self, dirty_csv, tmp_path):
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        journal = tmp_path / "run.jsonl"
        out1 = tmp_path / "out1.csv"
        assert main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--journal", str(journal), "--out", str(out1),
        ]) == 0
        assert journal.exists()
        # Resuming a *finished* journal replays everything and changes
        # nothing — the output stays identical.
        out2 = tmp_path / "out2.csv"
        assert main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--resume", str(journal), "--out", str(out2),
        ]) == 0
        assert out1.read_text() == out2.read_text()


class TestTelemetryFlags:
    """--trace / --metrics / --profile and the logging flags."""

    @pytest.fixture()
    def rfds(self, tmp_path):
        path = tmp_path / "rfds.txt"
        path.write_text("Zip(<=0) -> City(<=1)\n")
        return path

    def test_trace_and_metrics_files(self, dirty_csv, rfds, tmp_path):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--out", str(tmp_path / "clean.csv"),
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        from repro.telemetry import read_trace

        spans = read_trace(trace)
        assert {s["name"] for s in spans} >= {
            "impute", "preprocess", "cell"
        }
        text = metrics.read_text()
        assert "# TYPE renuver_cell_seconds histogram" in text
        assert 'renuver_runs_total{status="ok"} 1' in text

    def test_profile_prints_phase_table(self, dirty_csv, rfds, capsys):
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds), "--profile",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "span" in err and "share" in err
        assert "impute" in err and "cell" in err

    def test_evaluate_accepts_telemetry_flags(
        self, clean_csv, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        code = main([
            "evaluate", str(clean_csv), "--rate", "0.1",
            "--trace", str(trace), "--profile",
        ])
        assert code == 0
        from repro.telemetry import read_trace

        names = {s["name"] for s in read_trace(trace)}
        assert "discover" in names and "impute" in names

    def test_trace_written_even_on_budget_abort(
        self, dirty_csv, rfds, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--budget", "1e-9", "--trace", str(trace),
        ])
        assert code == 3  # exit-code contract unchanged
        assert trace.exists()

    def test_no_flags_means_no_files(self, dirty_csv, rfds, tmp_path):
        code = main([
            "impute", str(dirty_csv), "--rfds", str(rfds),
            "--out", str(tmp_path / "clean.csv"),
        ])
        assert code == 0
        assert list(tmp_path.glob("*.jsonl")) == []
        assert list(tmp_path.glob("*.prom")) == []


class TestLoggingFlags:
    @pytest.fixture(autouse=True)
    def _clean_logging(self):
        import logging

        from repro.telemetry import get_logger, reset_logging

        yield
        reset_logging()
        get_logger().setLevel(logging.NOTSET)

    def test_log_level_attaches_a_handler(self, dirty_csv, tmp_path):
        import logging

        from repro.telemetry import get_logger

        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        assert main([
            "--log-level", "info", "impute", str(dirty_csv),
            "--rfds", str(rfds), "--out", str(tmp_path / "c.csv"),
        ]) == 0
        logger = get_logger()
        assert logger.level == logging.INFO
        assert any(
            getattr(h, "_repro_managed", False) for h in logger.handlers
        )

    def test_debug_implies_debug_log_level(self, tmp_path):
        import logging

        from repro.telemetry import get_logger

        main(["--debug", "datasets"])
        assert get_logger().level == logging.DEBUG

    def test_explicit_log_level_wins_over_debug(self, tmp_path):
        import logging

        from repro.telemetry import get_logger

        main(["--debug", "--log-level", "error", "datasets"])
        assert get_logger().level == logging.ERROR

    def test_log_json_emits_json_records(
        self, dirty_csv, tmp_path, capsys
    ):
        import json

        rfds = tmp_path / "rfds.txt"
        rfds.write_text("Zip(<=0) -> City(<=1)\n")
        assert main([
            "--log-json", "impute", str(dirty_csv),
            "--rfds", str(rfds), "--out", str(tmp_path / "c.csv"),
        ]) == 0
        err = capsys.readouterr().err
        json_lines = [
            line for line in err.splitlines()
            if line.startswith("{")
        ]
        assert json_lines
        record = json.loads(json_lines[-1])
        assert record["logger"].startswith("repro.")
        assert "message" in record and "timestamp" in record

    def test_exit_codes_unchanged_with_logging_enabled(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2,3\n")
        rfds = tmp_path / "rfds.txt"
        rfds.write_text("A(<=0) -> B(<=0)\n")
        assert main([
            "--log-level", "debug", "impute", str(bad),
            "--rfds", str(rfds),
        ]) == 4
