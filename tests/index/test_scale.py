"""Physician at 100,000 tuples: one blocked impute, pinned.

The instance is ``generate_physician(1000, seed=0, scale=100)`` with
8000 cells injected at seed 1 into the five columns the
``physician-10k`` benchmark blanks, imputed with that benchmark's eight
pinned RFDs.  The imputed relation's digest, the cells imputed, the
plan's probe counts and the values interned into the string memos (each
distinct value of the five string columns the kernels read, once) are
pinned.  One impute takes a few seconds, so the test runs only when
``REPRO_PHYSICIAN_100K=1`` (the CI ``blocking`` job sets it).
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.renuver import Renuver
from repro.dataset.csv_io import to_csv_text
from repro.dataset.missing import MISSING
from repro.datasets.physician import generate_physician
from repro.distance import kernels
from repro.evaluation.injection import inject_missing
from repro.rfd import parse_rfd
from tests.core.test_work_counts import (
    INJECTED,
    PHYSICIAN_RFDS,
    STRING_COLUMNS,
)

pytestmark = [
    pytest.mark.blocking,
    pytest.mark.skipif(
        os.environ.get("REPRO_PHYSICIAN_100K") != "1",
        reason="set REPRO_PHYSICIAN_100K=1 to impute physician at 100k",
    ),
]

DIGEST = "137d83215693b791d64bc087d1897ea547552eee5f070d8fb1ae1ed9ca871d2b"
EXPECTED = {
    "imputed": 6486,
    "index_probes": 5113,
    "index_served_probes": 41246,
    "index_fallbacks": 1595,
    "interned": 4984,
}


def test_physician_100k_impute_is_pinned(monkeypatch):
    relation = generate_physician(1000, seed=0, scale=100)
    dirty = inject_missing(
        relation, count=8000, seed=1, attributes=INJECTED
    ).relation
    del relation
    calls = []
    intern = kernels._ValueMemo._intern

    def counted(memo, value):
        calls.append(value)
        return intern(memo, value)

    monkeypatch.setattr(kernels._ValueMemo, "_intern", counted)
    result = Renuver([parse_rfd(text) for text in PHYSICIAN_RFDS]).impute(
        dirty
    )
    counters = result.report.kernel_counters
    distinct = sum(
        len(set(dirty.column(name)) - {MISSING}) for name in STRING_COLUMNS
    )
    assert {
        "imputed": result.report.imputed_count,
        "index_probes": counters["index_probes"],
        "index_served_probes": counters["index_served_probes"],
        "index_fallbacks": counters["index_fallbacks"],
        "interned": len(calls),
    } == EXPECTED
    assert len(calls) == distinct
    digest = hashlib.sha256(
        to_csv_text(result.relation).encode("utf-8")
    ).hexdigest()
    assert digest == DIGEST
