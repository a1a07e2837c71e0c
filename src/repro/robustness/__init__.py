"""Fault-tolerance toolkit for the imputation runtime.

Everything runs in one process:

* :mod:`repro.robustness.journal` — the JSONL imputation journal behind
  ``Renuver.impute(journal=..., resume_from=...)``: checkpoint every
  settled cell, replay after a crash.
* :mod:`repro.robustness.chaos` — deterministic, seeded fault injectors
  (kernel faults, listener faults, clock skips, donor corruption, a
  kill switch) that exercise the degradation ladder and the journal in
  tests.
* Per-cell fault isolation is the degradation ladder in
  :class:`~repro.core.renuver.Renuver` (the run's engine, then one
  retry on that same engine, then ``fallback``).
* Budget enforcement itself lives with the driver
  (:class:`~repro.core.renuver.RenuverConfig` time/memory/cell budgets)
  and the watchdogs in :mod:`repro.utils.timer` / :mod:`repro.utils.memory`.

See ``docs/ROBUSTNESS.md`` for the full story.
"""

from repro.robustness.chaos import ChaosConfig, ChaosInjector, ChaosKill
from repro.robustness.journal import (
    JOURNAL_VERSION,
    JournalWriter,
    fingerprint_matches,
    load_journal,
    relation_fingerprint,
    replay_journal,
)

__all__ = [
    "JOURNAL_VERSION",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosKill",
    "JournalWriter",
    "fingerprint_matches",
    "load_journal",
    "relation_fingerprint",
    "replay_journal",
]
