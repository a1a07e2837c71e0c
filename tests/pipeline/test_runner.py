"""Pipeline runner lifecycle: FULL, INCR, degradation, noop, CLI."""

from __future__ import annotations

import errno
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.dataset.relation import Relation
from repro.discovery import DiscoveryConfig
from repro.discovery.dime import DiscoveryResult
from repro.exceptions import PipelineError
from repro.pipeline import Pipeline, PipelineConfig, reconcile
from repro.pipeline.ingest import combined_csv_text, scan_ingest
from repro.service.artifacts import ArtifactStore
from repro.utils import fingerprint
from repro.utils.atomic import disk_fault_injection

pytestmark = pytest.mark.pipeline

CSV1 = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,111\n"
    "bob,oslo,222\n"
    "bob,oslo,\n"
    "cat,lima,333\n"
    "cat,lima,333\n"
)
CSV2 = (
    "Name,City,Phone\n"
    "dan,kiev,444\n"
    "dan,kiev,\n"
    "edd,bonn,\n"
)
CSV3 = (
    "Name,City,Phone\n"
    "fay,oslo,555\n"
    "fay,oslo,\n"
)

CONFIG = PipelineConfig(
    discovery=DiscoveryConfig(threshold_limit=1, max_lhs_size=1)
)


@pytest.fixture()
def ingest(tmp_path):
    directory = tmp_path / "ingest"
    directory.mkdir()
    (directory / "b1.csv").write_text(CSV1)
    return directory


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "root"


def pipeline(root, ingest, config=CONFIG):
    return Pipeline(root, ingest, config)


def degradations(p):
    """Counted degradations of ``p``'s runs, by reason."""
    return {
        dict(key)["reason"]: instrument.value
        for family in p.telemetry.metrics.families()
        if family.name == "renuver_pipeline_degradations_total"
        for key, instrument in family.instruments.items()
    }


class TestFullRuns:
    def test_bootstrap_full_run_commits_store(self, root, ingest):
        result = pipeline(root, ingest).run()
        assert result.mode == "full"
        assert result.outcome == "committed"
        assert result.store_version == 1
        assert result.discovered is True
        assert result.degraded_reason is None
        assert result.cells_imputed == 1  # bob's phone from his twin
        store = root / "store" / "imputed-000001.csv"
        assert "bob,oslo,222" in store.read_text()

    def test_run_artifacts_are_complete(self, root, ingest):
        result = pipeline(root, ingest).run()
        rundir = result.run_dir
        for name in (
            "journal.jsonl", "delta.csv", "report.json",
            "trace.jsonl", "metrics.prom", "MANIFEST.json",
        ):
            assert (rundir / name).exists(), name
        report = json.loads((rundir / "report.json").read_text())
        assert report["mode"] == "full"
        assert report["files"] == ["b1.csv"]
        metrics = (rundir / "metrics.prom").read_text()
        assert "renuver_pipeline_runs_total" in metrics
        trace = (rundir / "trace.jsonl").read_text()
        assert "pipeline.run" in trace and "pipeline.stage" in trace

    def test_noop_when_watermark_is_current(self, root, ingest):
        pipeline(root, ingest).run()
        again = pipeline(root, ingest).run()
        assert again.outcome == "noop"
        assert again.run_id is None

    def test_running_run_refuses_a_second_run(self, root, ingest):
        p = pipeline(root, ingest)
        p.run()
        # Fake a crashed in-flight run in the envelope.
        from dataclasses import replace

        state = p.state_store.load()
        crashed = replace(
            state.history[-1], status="running", run_id="000009-full"
        )
        p.state_store.save(replace(state, run=crashed))
        (ingest / "b2.csv").write_text(CSV2)
        with pytest.raises(PipelineError, match="use `pipeline resume`"):
            pipeline(root, ingest).run()


class TestIncrementalRuns:
    def test_second_run_is_incremental_with_zero_rediscovery(
        self, root, ingest
    ):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        p = pipeline(root, ingest)
        result = p.run()
        assert result.mode == "incr"
        assert result.discovered is False  # the warm path: no discovery
        assert result.store_version == 2
        assert result.rows_ingested == 3
        assert result.cells_imputed == 1   # dan's phone; edd has no donor
        assert result.cells_unresolved == 1
        store = (root / "store" / "imputed-000002.csv").read_text()
        assert "dan,kiev,444\ndan,kiev,444" in store

    def test_delta_csv_holds_only_new_rows(self, root, ingest):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        result = pipeline(root, ingest).run()
        delta = (result.run_dir / "delta.csv").read_text()
        assert delta.count("\n") == 4  # header + the 3 new rows
        assert "ann,rome" not in delta
        assert "dan,kiev,444" in delta

    def test_unresolved_ledger_is_replayed_not_reimputed(
        self, root, ingest
    ):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        pipeline(root, ingest).run()
        (ingest / "b3.csv").write_text(CSV3)
        result = pipeline(root, ingest).run()
        report = json.loads(
            (result.run_dir / "report.json").read_text()
        )
        # edd's unresolvable phone came back via journal replay, not a
        # fresh (and pointless) donor scan.
        assert report["replayed"] == 1
        assert result.cells_unresolved == 1

    def test_store_pruning_keeps_configured_versions(self, root, ingest):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        pipeline(root, ingest).run()
        (ingest / "b3.csv").write_text(CSV3)
        pipeline(root, ingest).run()
        kept = sorted(
            entry.name for entry in (root / "store").glob("*.csv")
        )
        assert kept == ["imputed-000002.csv", "imputed-000003.csv"]

    def test_watermark_covers_all_files(self, root, ingest):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        pipeline(root, ingest).run()
        status = pipeline(root, ingest).status()
        assert status["watermark"]["files"] == ["b1.csv", "b2.csv"]
        assert status["watermark"]["rows"] == 9


@pytest.fixture()
def calls(monkeypatch):
    """Counts, by name, the calls a run makes to the store parser, the
    relation growth and copy paths, the RFD set decoder and the
    relation fingerprint (every module binding of it)."""
    counts: Counter[str] = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        reconcile, "read_csv", counting("read_csv", reconcile.read_csv)
    )
    for owner, attribute in (
        (Relation, "append_rows"),
        (Relation, "copy"),
    ):
        monkeypatch.setattr(owner, attribute, counting(
            f"{owner.__name__}.{attribute}", getattr(owner, attribute)
        ))
    monkeypatch.setattr(DiscoveryResult, "from_json", classmethod(
        counting(
            "DiscoveryResult.from_json",
            DiscoveryResult.from_json.__func__,
        )
    ))
    original = fingerprint.relation_fingerprint
    wrapped = counting("relation_fingerprint", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "relation_fingerprint", None
        ) is original:
            monkeypatch.setattr(module, "relation_fingerprint", wrapped)
    return counts


class TestDerivedOnce:
    """A run parses, looks up, copies and grows what it holds once."""

    def test_full_run_parses_its_committed_snapshot_once(
        self, root, ingest, calls
    ):
        assert pipeline(root, ingest).run().mode == "full"
        assert calls["read_csv"] == 1  # commit's re-read, nothing more

    def test_incr_run_derives_its_base_once(self, root, ingest, calls):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        calls.clear()
        result = pipeline(root, ingest).run()
        assert result.mode == "incr"
        assert result.discovered is False
        assert calls["read_csv"] == 2  # the base, then commit's re-read
        assert calls["Relation.append_rows"] == 1
        assert calls["DiscoveryResult.from_json"] == 1
        assert calls["Relation.copy"] <= 2
        assert calls["relation_fingerprint"] == 3

    def test_resumed_incr_run_looks_up_its_rfds_once(
        self, root, ingest, calls
    ):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)

        def store_writes_fail(path: Path) -> None:
            if "store" in path.parts:
                raise OSError(errno.ENOSPC, f"injected writing {path}")

        with disk_fault_injection(store_writes_fail):
            with pytest.raises(PipelineError, match=r"stage 'commit'"):
                pipeline(root, ingest).run()
        calls.clear()
        result = pipeline(root, ingest).resume()
        assert (result.mode, result.resumed) == ("incr", True)
        assert calls["DiscoveryResult.from_json"] == 1
        assert calls["Relation.append_rows"] == 1

    def test_the_base_stays_unmutated(self, root, ingest):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        p = pipeline(root, ingest)
        p.run()
        (ingest / "b3.csv").write_text(CSV3)
        base = p._load_base(p.state_store.load().store)
        rows = base.n_tuples
        assert p.run().mode == "incr"
        assert base.n_tuples == rows


class TestDegradation:
    def test_tampered_store_degrades_to_full(self, root, ingest):
        pipeline(root, ingest).run()
        store = root / "store" / "imputed-000001.csv"
        store.write_text(store.read_text().replace("rome", "doom"))
        (ingest / "b2.csv").write_text(CSV2)
        result = pipeline(root, ingest).run()
        assert result.mode == "full"
        assert result.degraded_reason == "store_integrity"
        assert result.outcome == "committed"

    def test_deleted_watermarked_file_degrades_to_full(
        self, root, ingest
    ):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        (ingest / "b1.csv").unlink()  # append-only contract broken
        result = pipeline(root, ingest).run()
        assert result.mode == "full"
        assert result.degraded_reason == "watermark_mismatch"
        # The store is rebuilt from what actually exists.
        store = (root / "store" / "imputed-000002.csv").read_text()
        assert "ann,rome" not in store

    def test_degradations_are_counted(self, root, ingest):
        pipeline(root, ingest).run()
        store = root / "store" / "imputed-000001.csv"
        store.write_text("Name,City,Phone\nx,y,1\n")
        (ingest / "b2.csv").write_text(CSV2)
        p = pipeline(root, ingest)
        p.run()
        families = {
            family.name: family
            for family in p.telemetry.metrics.families()
        }
        counter = families["renuver_pipeline_degradations_total"]
        labels = [dict(key) for key in counter.instruments]
        assert {"reason": "store_integrity"} in labels

    def test_changed_discovery_config_degrades_with_stale_rfds(
        self, root, ingest
    ):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        changed = PipelineConfig(
            discovery=DiscoveryConfig(threshold_limit=2, max_lhs_size=1)
        )
        p = pipeline(root, ingest, changed)
        result = p.run()
        assert (result.mode, result.discovered) == ("full", True)
        assert result.degraded_reason == "stale_rfds"
        assert degradations(p) == {"stale_rfds": 1}
        (ingest / "b3.csv").write_text(CSV3)
        assert pipeline(root, ingest, changed).run().mode == "incr"

    def test_state_without_rfds_degrades_once(self, root, ingest):
        """A state envelope whose store carries no RFD set, as written
        before the envelope committed one: one counted FULL run, which
        commits the set, then INCR again."""
        p = pipeline(root, ingest)
        p.run()
        payload = p.state_store.load().to_payload()
        del payload["store"]["discovery"]
        p.state_store.envelope.save(payload)
        assert p.state_store.load().store.discovery is None
        (ingest / "b2.csv").write_text(CSV2)
        p = pipeline(root, ingest)
        result = p.run()
        assert (result.mode, result.degraded_reason) == (
            "full", "stale_rfds"
        )
        assert degradations(p) == {"stale_rfds": 1}
        (ingest / "b3.csv").write_text(CSV3)
        result = pipeline(root, ingest).run()
        assert (result.mode, result.discovered) == ("incr", False)
        assert result.degraded_reason is None

    def test_forced_full_mode_is_not_a_degradation(self, root, ingest):
        full_config = PipelineConfig(
            discovery=CONFIG.discovery, mode="full"
        )
        pipeline(root, ingest, full_config).run()
        (ingest / "b2.csv").write_text(CSV2)
        result = pipeline(root, ingest, full_config).run()
        assert result.mode == "full"
        assert result.degraded_reason is None


class TestCommittedRfds:
    """The RFD set an INCR run maintains is the one committed with the
    store in the state envelope; no artifact cache is involved."""

    def test_incr_run_stays_warm_without_an_artifact_cache(
        self, root, ingest, monkeypatch
    ):
        def no_cache(*args, **kwargs):
            raise AssertionError("the pipeline built an artifact cache")

        monkeypatch.setattr(ArtifactStore, "__init__", no_cache)
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        result = pipeline(root, ingest).run()
        assert (result.mode, result.discovered) == ("incr", False)
        assert result.degraded_reason is None
        assert not (root / "artifacts").exists()

    def test_commit_records_the_maintained_set(self, root, ingest):
        pipeline(root, ingest).run()
        (ingest / "b2.csv").write_text(CSV2)
        p = pipeline(root, ingest)
        p.run()
        committed = p.state_store.load().store.discovery
        assert committed.config == CONFIG.discovery
        assert committed.exact is False
        status = p.status()["store"]
        assert status["rfds"] == len(committed)
        assert "discovery" not in status


class TestIngestContract:
    def test_scan_is_sorted_and_csv_only(self, tmp_path):
        directory = tmp_path / "in"
        directory.mkdir()
        (directory / "z.csv").write_text("A\n1\n")
        (directory / "a.csv").write_text("A\n2\n")
        (directory / "notes.txt").write_text("ignored")
        assert scan_ingest(directory) == ["a.csv", "z.csv"]

    def test_header_mismatch_is_located(self, tmp_path):
        directory = tmp_path / "in"
        directory.mkdir()
        (directory / "a.csv").write_text("A,B\n1,2\n")
        (directory / "b.csv").write_text("A,C\n3,4\n")
        with pytest.raises(PipelineError, match="b.csv"):
            combined_csv_text(directory, ["a.csv", "b.csv"])

    def test_missing_ingest_directory_is_located(self, tmp_path):
        with pytest.raises(PipelineError, match="does not exist"):
            scan_ingest(tmp_path / "nope")


class TestCli:
    def _args(self, action, root, ingest):
        return [
            "pipeline", action, "--root", str(root),
            "--ingest", str(ingest), "--limit", "1",
        ]

    def test_run_resume_status_round_trip(
        self, root, ingest, capsys
    ):
        assert main(self._args("run", root, ingest)) == 0
        assert main(self._args("resume", root, ingest)) == 0  # noop
        assert main(self._args("status", root, ingest)) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["runs_started"] == 1
        assert status["in_flight"] is None
        assert status["store"]["version"] == 1

    def test_run_requires_ingest(self, root):
        assert main(["pipeline", "run", "--root", str(root)]) == 2

    def test_pipeline_errors_exit_9(self, root, tmp_path, capsys):
        code = main([
            "pipeline", "run", "--root", str(root),
            "--ingest", str(tmp_path / "missing"),
        ])
        assert code == 9
        assert "error:" in capsys.readouterr().err
