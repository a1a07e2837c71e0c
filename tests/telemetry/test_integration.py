"""End-to-end telemetry: a real imputation run under a live spine.

Asserts the acceptance contract of the telemetry layer: every phase of
the run emits a span, every missing cell gets exactly one ``cell`` span
nested under the root, kernel spans nest under their cell, the metrics
registry absorbs the engines' counters, and the run's outcomes are
bit-identical with and without telemetry attached.
"""

import pytest

from repro import Renuver, RenuverConfig, Telemetry, make_rfd
from repro.dataset import read_csv_text
from repro.telemetry import read_trace, write_metrics, write_trace
from tests.oracle import renuver_for

CSV = (
    "Zip,City,Age\n"
    "90001,Los Angeles,34\n"
    "90001,Los Angeles,41\n"
    "90001,,29\n"
    "94101,San Francisco,55\n"
    "94101,,47\n"
    "10001,New York,38\n"
)

RFDS = [make_rfd({"Zip": 0}, ("City", 1))]


def run_with_telemetry(engine="vectorized", **config):
    telemetry = Telemetry()
    renuver = renuver_for(
        engine, RFDS, RenuverConfig(**config), telemetry=telemetry
    )
    result = renuver.impute(read_csv_text(CSV, name="toy"))
    return result, telemetry


class TestSpanTree:
    def test_every_phase_and_cell_has_a_span(self):
        result, telemetry = run_with_telemetry()
        spans = telemetry.tracer.ordered_spans()
        names = [span.name for span in spans]
        assert names.count("impute") == 1
        assert names.count("preprocess") == 1
        # one cell span per missing cell
        assert names.count("cell") == result.report.missing_count == 2
        assert any(name.startswith("kernel.") for name in names)

    def test_nesting_reconstructs_phase_cell_kernel(self):
        _, telemetry = run_with_telemetry()
        by_id = {s.span_id: s for s in telemetry.tracer.spans}
        root = next(
            s for s in telemetry.tracer.spans if s.parent_id is None
        )
        assert root.name == "impute"
        for span in telemetry.tracer.spans:
            if span.name in ("preprocess", "cell"):
                assert span.parent_id == root.span_id
            elif span.name in (
                "kernel.candidates", "kernel.is_faultless"
            ):
                assert by_id[span.parent_id].name == "cell"

    def test_root_and_cell_attributes(self):
        result, telemetry = run_with_telemetry()
        root = next(
            s for s in telemetry.tracer.spans if s.parent_id is None
        )
        assert root.attributes["engine"] == "vectorized"
        assert root.attributes["relation"] == "toy"
        assert (
            root.attributes["imputed_cells"]
            == result.report.imputed_count
        )
        for span in telemetry.tracer.spans:
            if span.name == "cell":
                assert span.attributes["attribute"] == "City"
                assert "status" in span.attributes

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_both_engines_emit_kernel_spans(self, engine):
        _, telemetry = run_with_telemetry(engine=engine)
        kernel = {
            s.name for s in telemetry.tracer.spans
            if s.name.startswith("kernel.")
        }
        assert "kernel.candidates" in kernel
        assert "kernel.is_faultless" in kernel


class TestMetrics:
    def test_registry_absorbs_the_run(self):
        result, telemetry = run_with_telemetry()
        metrics = telemetry.metrics
        assert metrics.value("renuver_runs_total", status="ok") == 1
        assert (
            metrics.value("renuver_cells_total", status="imputed")
            == result.report.imputed_count
        )
        histogram = metrics.get("renuver_cell_seconds")
        assert histogram.count == result.report.missing_count
        assert metrics.value(
            "renuver_kernel_calls_total",
            engine="vectorized", op="is_faultless",
        ) > 0
        assert metrics.value(
            "renuver_candidates_generated_total", engine="vectorized"
        ) > 0

    def test_kernel_counters_unify_into_one_family(self):
        result, telemetry = run_with_telemetry()
        for name, value in result.report.kernel_counters.items():
            assert telemetry.metrics.value(
                "renuver_kernel_counter_total",
                engine="vectorized", counter=name,
            ) == value

    def test_blocked_run_labels_both_families_vectorized(self):
        # Every run probes its blocking plan, at any relation size.
        result, telemetry = run_with_telemetry()
        counters = result.report.kernel_counters
        assert counters["index_probes"] > 0
        families = {
            family.name: family for family in telemetry.metrics.families()
        }
        for name in (
            "renuver_kernel_calls_total", "renuver_kernel_counter_total"
        ):
            engines = {
                dict(labels)["engine"]
                for labels in families[name].instruments
            }
            assert engines == {"vectorized"}, name
        assert telemetry.metrics.value(
            "renuver_kernel_counter_total",
            engine="vectorized", counter="index_probes",
        ) == counters["index_probes"]


class TestExportsFromARealRun:
    def test_trace_and_metrics_files(self, tmp_path):
        _, telemetry = run_with_telemetry()
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        write_trace(telemetry.tracer, trace_path)
        write_metrics(telemetry.metrics, metrics_path)
        spans = read_trace(trace_path)
        assert {s["name"] for s in spans} >= {
            "impute", "preprocess", "cell"
        }
        text = metrics_path.read_text()
        assert "# TYPE renuver_cell_seconds histogram" in text
        assert 'renuver_cell_seconds_bucket{le="+Inf"} 2' in text


class TestOutcomeEquivalence:
    def test_telemetry_does_not_change_outcomes(self):
        plain = Renuver(RFDS).impute(read_csv_text(CSV, name="toy"))
        traced, _ = run_with_telemetry()
        assert [
            (o.row, o.attribute, o.status, o.value)
            for o in plain.report
        ] == [
            (o.row, o.attribute, o.status, o.value)
            for o in traced.report
        ]
        for row in range(plain.relation.n_tuples):
            for name in plain.relation.attribute_names:
                assert plain.relation.value(row, name) == \
                    traced.relation.value(row, name)


class TestRobustnessEvents:
    def test_degradation_becomes_span_event_and_metric(self):
        from repro.robustness import ChaosConfig, ChaosInjector

        telemetry = Telemetry()
        engine = Renuver(
            RFDS,
            RenuverConfig(fallback="skip"),
            telemetry=telemetry,
        )
        chaos = ChaosInjector(ChaosConfig(kernel_fault_rate=0.3, seed=7))
        result = engine.impute(
            read_csv_text(CSV, name="toy"), chaos=chaos
        )
        assert result.report.degradations
        events = [
            event
            for span in telemetry.tracer.spans
            for event in span.events
        ]
        assert any(e["name"] == "degradation" for e in events)
        total = sum(
            instrument.value
            for family in telemetry.metrics.families()
            if family.name == "renuver_degradations_total"
            for instrument in family.instruments.values()
        )
        assert total > 0

    def test_budget_event_recorded_on_cell_deadline(self):
        telemetry = Telemetry()
        engine = Renuver(
            RFDS,
            RenuverConfig(
                cell_time_budget_seconds=1e-9, fallback="skip"
            ),
            telemetry=telemetry,
        )
        result = engine.impute(read_csv_text(CSV, name="toy"))
        assert result.report.budget_events
        assert telemetry.metrics.value(
            "renuver_budget_events_total", scope="cell", kind="time"
        ) >= 1
