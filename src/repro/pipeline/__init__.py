"""repro.pipeline — the crash-safe continuous-ingestion pipeline.

Watermarked FULL/INCR imputation runs over an append-only ingest
directory, driven by a persistent leased run state:

* :mod:`repro.pipeline.state` — the two-generation ``state.json``
  envelope (:mod:`repro.utils.envelope`) and the single-writer lease
  with stale takeover;
* :mod:`repro.pipeline.ingest` — sorted ingest scans and deterministic
  batch loading;
* :mod:`repro.pipeline.runs` — per-run artifact directories
  (journal, delta, report, telemetry, manifest);
* :mod:`repro.pipeline.reconcile` — the versioned persistent imputed
  store, committed only after a run completes;
* :mod:`repro.pipeline.runner` — the staged :class:`Pipeline` runner
  gluing it all together, with ``run``/``resume``/``status`` surfaced
  as ``python -m repro pipeline``.

The full lifecycle, watermark semantics and crash-recovery matrix are
documented in ``docs/PIPELINE.md``.
"""

from repro.pipeline.ingest import (
    batch_rows,
    combined_csv_text,
    load_combined,
    scan_ingest,
)
from repro.pipeline.reconcile import (
    commit_store,
    load_store_relation,
    prune_store,
)
from repro.pipeline.runner import Pipeline, PipelineConfig, RunResult
from repro.pipeline.runs import RunDirectory
from repro.pipeline.state import (
    Lease,
    PipelineState,
    RunRecord,
    RunStateStore,
    STATE_VERSION,
    StoreVersion,
    Watermark,
)

__all__ = [
    "Lease",
    "Pipeline",
    "PipelineConfig",
    "PipelineState",
    "RunDirectory",
    "RunRecord",
    "RunResult",
    "RunStateStore",
    "STATE_VERSION",
    "StoreVersion",
    "Watermark",
    "batch_rows",
    "combined_csv_text",
    "commit_store",
    "load_combined",
    "load_store_relation",
    "prune_store",
    "scan_ingest",
]
