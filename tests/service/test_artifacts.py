"""The fingerprint-keyed artifact store: round trips, keys, metrics.

Corrupt, edited and outdated artifacts are covered with the other
envelope stores in ``tests/utils/test_envelope.py``.
"""

import pytest

from repro.dataset.csv_io import read_csv_text
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.exceptions import ServiceError
from repro.service.artifacts import ArtifactStore
from repro.telemetry import Telemetry

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,111\n"
    "bob,oslo,222\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)


@pytest.fixture()
def relation():
    return read_csv_text(CSV, name="t")


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


CONFIG = DiscoveryConfig(threshold_limit=1, max_lhs_size=1)


class TestDiscoveryArtifacts:
    def test_round_trip(self, store, relation):
        result = discover_rfds(relation, CONFIG)
        store.save_discovery(relation, CONFIG, result)
        loaded = store.load_discovery(relation, CONFIG)
        assert loaded is not None
        assert [str(r) for r in loaded.all_rfds] == [
            str(r) for r in result.all_rfds
        ]
        assert loaded.config == result.config
        assert store.hits == 1 and store.misses == 0

    def test_keyed_by_relation_content_not_name(self, store, relation):
        result = discover_rfds(relation, CONFIG)
        store.save_discovery(relation, CONFIG, result)
        renamed = read_csv_text(CSV, name="other-name")
        assert store.load_discovery(renamed, CONFIG) is not None
        different = read_csv_text(CSV.replace("lima", "oslo"), name="t")
        assert store.load_discovery(different, CONFIG) is None

    def test_keyed_by_full_config(self, store, relation):
        result = discover_rfds(relation, CONFIG)
        store.save_discovery(relation, CONFIG, result)
        other = DiscoveryConfig(threshold_limit=2, max_lhs_size=1)
        assert store.load_discovery(relation, other) is None


class TestMetrics:
    def test_hits_and_misses_reach_the_registry(self, tmp_path, relation):
        telemetry = Telemetry()
        store = ArtifactStore(tmp_path / "cache", telemetry=telemetry)
        assert store.load_discovery(relation, CONFIG) is None
        store.save_discovery(
            relation, CONFIG, discover_rfds(relation, CONFIG)
        )
        assert store.load_discovery(relation, CONFIG) is not None

        families = {
            family.name: family
            for family in telemetry.metrics.families()
        }
        hits = families["renuver_artifact_cache_hits_total"]
        misses = families["renuver_artifact_cache_misses_total"]
        assert sum(i.value for i in hits.instruments.values()) == 1
        assert sum(i.value for i in misses.instruments.values()) == 1
        labels = [dict(key) for key in misses.instruments]
        assert {"kind": "discovery", "reason": "absent"} in labels


class TestStoreErrors:
    def test_root_must_be_a_directory(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        with pytest.raises(ServiceError):
            ArtifactStore(blocker)

    def test_failed_save_counts_as_miss_not_crash(
        self, tmp_path, relation, monkeypatch
    ):
        # A save that fails at the OS level (full disk, permissions)
        # degrades to a counted miss: the cache is an optimization and
        # must never fail the request warming it.
        store = ArtifactStore(tmp_path / "cache", telemetry=Telemetry())

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.utils.envelope.atomic_write_text", boom
        )
        result = discover_rfds(relation, CONFIG)
        assert store.save_discovery(relation, CONFIG, result) is None
        assert store.misses == 1
        misses = {
            family.name: family
            for family in store.telemetry.metrics.families()
        }["renuver_artifact_cache_misses_total"]
        labels = [dict(key) for key in misses.instruments]
        assert {"kind": "discovery", "reason": "write_error"} in labels

    def test_injected_disk_full_counts_as_miss(self, tmp_path, relation):
        # The chaos harness's ENOSPC seam exercises the same contract
        # end to end through repro.utils.atomic.
        from repro.robustness.chaos import ChaosConfig, ChaosInjector

        store = ArtifactStore(tmp_path / "cache")
        result = discover_rfds(relation, CONFIG)
        injector = ChaosInjector(ChaosConfig(disk_full_rate=1.0))
        with injector.disk_faults():
            assert store.save_discovery(relation, CONFIG, result) is None
        assert injector.disk_faults_injected == 1
        assert store.misses == 1
        # With the fault gone the very same save succeeds.
        assert store.save_discovery(relation, CONFIG, result) is not None
        assert store.load_discovery(relation, CONFIG) is not None


class TestEviction:
    def test_saves_beyond_the_bound_keep_the_newest(
        self, tmp_path, monkeypatch
    ):
        from repro.service import PreparedEngine, ServiceConfig
        from repro.service import artifacts

        kept, extra = 3, 2
        monkeypatch.setattr(artifacts, "MAX_ARTIFACTS", kept)
        root = tmp_path / "cache"
        engine = PreparedEngine(
            ServiceConfig(discovery=CONFIG), store=ArtifactStore(root)
        )
        relations = [
            read_csv_text(CSV.replace("lima", f"lima{i}"), name="t")
            for i in range(kept + extra)
        ]
        for relation in relations:
            assert engine.prepare_rfds(relation)[2] == "discovered"
        assert len(list((root / "discovery").glob("*/*.json"))) == kept
        for relation in relations[extra:]:
            assert engine.prepare_rfds(relation)[2] == "cache"
        # An evicted relation is a plain miss: rediscovered and saved.
        assert engine.prepare_rfds(relations[0])[2] == "discovered"
        assert len(list((root / "discovery").glob("*/*.json"))) == kept
