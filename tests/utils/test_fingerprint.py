"""The shared fingerprint utilities (journal + artifact cache key)."""

import hashlib

from repro.dataset.csv_io import read_csv_text, to_csv_text
from repro.utils.fingerprint import (
    fingerprint_matches,
    payload_fingerprint,
    relation_fingerprint,
)

CSV = "A,B\nx,1\ny,2\n"


class TestRelationFingerprint:
    def test_stable_across_copies_and_names(self):
        one = read_csv_text(CSV, name="one")
        two = read_csv_text(CSV, name="two")
        assert relation_fingerprint(one) == relation_fingerprint(two)
        assert relation_fingerprint(one) == relation_fingerprint(
            one.copy()
        )

    def test_sensitive_to_any_cell(self):
        base = relation_fingerprint(read_csv_text(CSV, name="t"))
        changed = relation_fingerprint(
            read_csv_text(CSV.replace("y,2", "y,3"), name="t")
        )
        assert base != changed

    def test_is_sha256_of_the_csv_rendering(self):
        relation = read_csv_text(CSV, name="t")
        expected = hashlib.sha256(
            to_csv_text(relation).encode("utf-8")
        ).hexdigest()
        assert relation_fingerprint(relation) == expected


class TestPersistedFingerprints:
    """Literal digests of the CSV rendering, independent of the renderer.

    Journals, ``StoreVersion.fingerprint`` and artifact-cache keys persist
    these digests: a rendering change that moves one byte would refuse
    every resume and miss every cached RFD set.
    """

    def test_restaurant_with_injected_missing_values(self):
        from repro.datasets.restaurant import generate_restaurant
        from repro.evaluation.injection import inject_missing

        relation = inject_missing(
            generate_restaurant(seed=0), rate=0.03, seed=1
        ).relation
        assert relation.count_missing() == 156
        assert relation_fingerprint(relation) == (
            "dd626e10694cdf43114d6f3ddc23bb976e53d883c3438fdbd4edf64e6953b96a"
        )

    def test_floats_booleans_and_missing_cells(self):
        from repro.dataset import MISSING, Attribute, AttributeType, Relation

        relation = Relation.from_rows(
            [
                Attribute("Id", AttributeType.INTEGER),
                Attribute("Score", AttributeType.FLOAT),
                Attribute("Flag", AttributeType.BOOLEAN),
                Attribute("Note", AttributeType.STRING),
            ],
            [
                [1, 0.1, True, "a, b"],
                [2, 2.5, False, MISSING],
                [3, MISSING, MISSING, 'say "hi"'],
                [4, 1e-05, True, "line\nbreak"],
                [MISSING, 3.0, False, "plain"],
                [-6, 1e20, MISSING, "x"],
            ],
            name="small",
        )
        assert relation_fingerprint(relation) == (
            "e3a06515a079d33b2d6c982ffdf36f70bbe1b389f46f2ee15a34de89f440925a"
        )


class TestFingerprintMatches:
    def test_matches_current_fingerprint(self):
        relation = read_csv_text(CSV, name="t")
        assert fingerprint_matches(
            relation_fingerprint(relation), relation
        )
        assert not fingerprint_matches("0" * 64, relation)

    def test_legacy_md5_fingerprints_still_verify(self):
        relation = read_csv_text(CSV, name="t")
        legacy = hashlib.md5(
            to_csv_text(relation).encode("utf-8"),
            usedforsecurity=False,
        ).hexdigest()
        assert len(legacy) == 32
        assert fingerprint_matches(legacy, relation)
        assert not fingerprint_matches("f" * 32, relation)

    def test_non_strings_never_match(self):
        relation = read_csv_text(CSV, name="t")
        assert not fingerprint_matches(None, relation)
        assert not fingerprint_matches(123, relation)


class TestJournalReexports:
    """The pre-refactor import path keeps working."""

    def test_journal_still_exports_the_functions(self):
        from repro.robustness import journal

        assert journal.relation_fingerprint is relation_fingerprint
        assert journal.fingerprint_matches is fingerprint_matches

    def test_package_level_reexport(self):
        from repro import robustness

        assert robustness.relation_fingerprint is relation_fingerprint


class TestPayloadFingerprint:
    def test_key_order_does_not_matter(self):
        assert payload_fingerprint({"a": 1, "b": [2, 3]}) == (
            payload_fingerprint({"b": [2, 3], "a": 1})
        )

    def test_values_do_matter(self):
        assert payload_fingerprint({"a": 1}) != payload_fingerprint(
            {"a": 2}
        )
        assert payload_fingerprint({"a": 1}) != payload_fingerprint(
            {"a": "1"}
        )

    def test_unicode_payloads_hash_consistently(self):
        assert payload_fingerprint({"k": "café"}) == payload_fingerprint(
            {"k": "café"}
        )
