"""The JSONL imputation journal: write, load, replay, resume."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import Renuver
from repro.dataset.csv_io import to_csv_text
from repro.exceptions import JournalError
from repro.robustness import (
    JOURNAL_VERSION,
    JournalWriter,
    fingerprint_matches,
    load_journal,
    relation_fingerprint,
    replay_journal,
)


class TestJournalWrite:
    def test_full_run_journal_shape(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        records = load_journal(path)
        types = [record["type"] for record in records]
        assert types[0] == "header"
        assert types[-1] == "end"
        assert types.count("cell") == 4
        header = records[0]
        assert header["version"] == JOURNAL_VERSION
        assert header["missing"] == 4
        assert header["fingerprint"] == relation_fingerprint(
            restaurant_sample
        )

    def test_cell_records_carry_provenance(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        cells = [
            record for record in load_journal(path)
            if record["type"] == "cell"
        ]
        filled = [c for c in cells if c["status"] == "imputed"]
        assert filled
        for cell in filled:
            assert cell["value"] is not None
            assert cell["rfd"] is not None and "->" in cell["rfd"]
            assert cell["rollbacks"] >= 0


class TestJournalLoad:
    def test_truncated_last_line_tolerated(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # cut into the last record
        records = load_journal(path)
        assert records[0]["type"] == "header"

    def test_midfile_corruption_raises(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        lines = path.read_text().splitlines()
        lines[1] = "{corrupt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 2"):
            load_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"type": "cell"}) + "\n")
        with pytest.raises(JournalError, match="header"):
            load_journal(path)


class TestTornTail:
    """A crash mid-append leaves a torn final record: dropped with a
    counted warning, never silently and never fatally."""

    def _journaled(self, restaurant_sample, paper_rfds, tmp_path):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        return path

    def _torn_counter(self, telemetry):
        families = {
            family.name: family
            for family in telemetry.metrics.families()
        }
        family = families.get("renuver_journal_torn_records_total")
        if family is None:
            return 0
        return sum(i.value for i in family.instruments.values())

    def test_torn_tail_is_counted(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        from repro.telemetry import Telemetry

        path = self._journaled(restaurant_sample, paper_rfds, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 15])
        telemetry = Telemetry()
        records = load_journal(path, telemetry=telemetry)
        assert records[0]["type"] == "header"
        assert self._torn_counter(telemetry) == 1

    def test_non_record_final_line_is_torn_tail(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        # Valid JSON that is not a journal record (e.g. the crash cut
        # the line exactly after a nested value) is torn too.
        from repro.telemetry import Telemetry

        path = self._journaled(restaurant_sample, paper_rfds, tmp_path)
        with path.open("a") as handle:
            handle.write('"just-a-string"\n')
        telemetry = Telemetry()
        records = load_journal(path, telemetry=telemetry)
        assert all("type" in record for record in records)
        assert self._torn_counter(telemetry) == 1

    def test_non_record_midfile_still_raises(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = self._journaled(restaurant_sample, paper_rfds, tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, "[1, 2, 3]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="not a journal record"):
            load_journal(path)

    def test_resume_over_torn_tail_converges(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        # End to end: a torn journal still resumes, and the resumed
        # run converges on the uninterrupted result.
        path = tmp_path / "run.jsonl"
        done = Renuver(paper_rfds).impute(
            restaurant_sample.copy(), journal=path
        )
        text = path.read_text()
        path.write_text(text[: len(text) - 15])
        resumed = Renuver(paper_rfds).impute(
            restaurant_sample.copy(), resume_from=path
        )
        assert to_csv_text(resumed.relation) == to_csv_text(done.relation)


class TestReplay:
    def test_replay_restores_filled_values(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        done = Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        fresh = restaurant_sample.copy()
        outcomes = replay_journal(path, fresh)
        assert len(outcomes) == 4
        assert to_csv_text(fresh) == to_csv_text(done.relation)

    def test_replay_rejects_different_relation(
        self, restaurant_sample, paper_rfds, zip_city_relation, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        # The schema checks run before the fingerprint and locate the
        # first mismatching header field.
        with pytest.raises(JournalError, match="header mismatch"):
            replay_journal(path, zip_city_relation)


class TestResume:
    def test_resume_finished_run_is_pure_replay(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        engine = Renuver(paper_rfds)
        done = engine.impute(restaurant_sample, journal=path)
        resumed = engine.impute(restaurant_sample, resume_from=path)
        assert resumed.report.replayed_count == 4
        assert to_csv_text(resumed.relation) == to_csv_text(done.relation)


class TestFingerprint:
    def test_fingerprint_is_sha256(self, restaurant_sample):
        digest = relation_fingerprint(restaurant_sample)
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_fingerprint_matches_current(self, restaurant_sample):
        digest = relation_fingerprint(restaurant_sample)
        assert fingerprint_matches(digest, restaurant_sample)
        assert not fingerprint_matches("0" * 64, restaurant_sample)
        assert not fingerprint_matches(None, restaurant_sample)

    def test_legacy_md5_journal_still_replays(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        done = Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        # Rewrite the header with the digest a pre-SHA-256 journal
        # would have carried (32 hex chars).
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        legacy = hashlib.md5(usedforsecurity=False)
        legacy.update(to_csv_text(restaurant_sample).encode("utf-8"))
        header["fingerprint"] = legacy.hexdigest()
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        fresh = restaurant_sample.copy()
        outcomes = replay_journal(path, fresh)
        assert len(outcomes) == 4
        assert to_csv_text(fresh) == to_csv_text(done.relation)

    def test_wrong_md5_fingerprint_rejected(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "f" * 32
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="fingerprint"):
            replay_journal(path, restaurant_sample.copy())


class TestResumeEdgeCases:
    def test_resume_from_empty_file_raises(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="no header"):
            Renuver(paper_rfds).impute(restaurant_sample, resume_from=path)

    def test_resume_from_end_record_only_raises(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "end-only.jsonl"
        path.write_text(json.dumps({"type": "end"}) + "\n")
        with pytest.raises(JournalError, match="no header"):
            Renuver(paper_rfds).impute(restaurant_sample, resume_from=path)

    def test_resume_from_header_only_runs_everything(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "header-only.jsonl"
        writer = JournalWriter(path)
        writer.write_header(restaurant_sample)
        writer.close()
        engine = Renuver(paper_rfds)
        baseline = engine.impute(restaurant_sample)
        resumed = engine.impute(restaurant_sample, resume_from=path)
        assert resumed.report.replayed_count == 0
        assert resumed.report.missing_count == 4
        assert to_csv_text(resumed.relation) == to_csv_text(
            baseline.relation
        )

    def test_schema_mismatch_is_located(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["n_tuples"] = header["n_tuples"] + 3
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            JournalError, match="header mismatch: n_tuples"
        ):
            replay_journal(path, restaurant_sample.copy())

    def test_attribute_mismatch_is_located(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        Renuver(paper_rfds).impute(restaurant_sample, journal=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["attributes"] = list(reversed(header["attributes"]))
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            JournalError, match="header mismatch: attributes"
        ):
            replay_journal(path, restaurant_sample.copy())


class TestOlderJournals:
    def test_worker_tags_and_reactivations_replay_and_resume(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        # Older versions tagged cell and degradation records with a
        # ``worker`` key and wrote ``reactivation`` records.  A prefix
        # of such a journal still replays and resumes as before.
        path = tmp_path / "run.jsonl"
        done = Renuver(paper_rfds).impute(
            restaurant_sample.copy(), journal=path
        )
        header, *records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        first, second = [r for r in records if r["type"] == "cell"][:2]
        first["worker"] = "r0.b0"
        prefix = [
            header,
            {"type": "degradation", "row": first["row"],
             "attribute": first["attribute"], "from_tier": "worker",
             "to_tier": "scalar", "reason": "crash", "worker": "r0.b0"},
            first,
            {"type": "reactivation", "row": first["row"],
             "attribute": first["attribute"], "rfds": []},
            second,
        ]
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in prefix)
        )
        fresh = restaurant_sample.copy()
        replayed = replay_journal(path, fresh)
        assert replayed == done.report.outcomes[:2]
        for outcome in replayed:
            assert fresh.value(
                outcome.row, outcome.attribute
            ) == outcome.value
        resumed = Renuver(paper_rfds).impute(
            restaurant_sample.copy(), resume_from=path
        )
        assert resumed.report.replayed_count == 2
        assert resumed.report.outcomes == done.report.outcomes
        assert to_csv_text(resumed.relation) == to_csv_text(done.relation)
