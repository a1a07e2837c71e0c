"""Layer spans recorded from outside the program.

``set_tracing(True)`` wraps the public functions and methods listed in
``TARGETS`` so that, while ``RECORDER.enabled`` is true, every call
records one span: its name, thread, start, duration and self time (the
duration minus the time its child spans cover).  Nothing in ``src/`` is
touched: the wrappers replace the attributes on their classes and every
module-level binding of a wrapped function in the loaded ``repro``
modules.  ``set_tracing(False)`` puts the originals back.

Spans stay in memory until ``write_spans`` dumps them at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (module, owner class or None, attribute, span name).  The span
#: name's prefix is the layer.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.dataset.relation", "Relation", "copy", "dataset.copy"),
    ("repro.dataset.relation", "Relation", "incomplete_rows",
     "dataset.incomplete_rows"),
    ("repro.dataset.csv_io", None, "read_csv_text", "dataset.csv"),
    ("repro.dataset.csv_io", None, "to_csv_text", "dataset.csv"),
    ("repro.discovery.dime", None, "discover_rfds", "discovery.discover"),
    ("repro.discovery.pattern_matrix", "PairDistanceMatrix", "__init__",
     "discovery.matrix"),
    ("repro.discovery.pruning", None, "remove_dominated",
     "discovery.prune"),
    ("repro.discovery.incremental", "IncrementalDiscovery", "insert",
     "discovery.insert"),
    ("repro.distance.kernels", "DonorScanKernels", "vector",
     "distance.vector"),
    ("repro.distance.kernels", "DonorScanKernels", "subset_vector",
     "distance.vector"),
    ("repro.core.renuver", "Renuver", "impute", "core.impute"),
    ("repro.core.donor_scan", "ScalarEngine", "partition_key_rfds",
     "core.preprocess"),
    ("repro.core.donor_scan", "VectorizedEngine", "partition_key_rfds",
     "core.preprocess"),
    ("repro.core.selection", None, "select_rfds_for_attribute",
     "core.selection"),
    ("repro.core.selection", None, "cluster_by_rhs_threshold",
     "core.selection"),
    ("repro.core.donor_scan", "_ScalarCellScan", "candidates",
     "core.candidates"),
    ("repro.core.donor_scan", "_VectorizedCellScan", "candidates",
     "core.candidates"),
    ("repro.core.blocked", "_BlockedCellScan", "candidates",
     "core.candidates"),
    ("repro.core.donor_scan", "ScalarEngine", "is_faultless",
     "core.verify"),
    ("repro.core.donor_scan", "VectorizedEngine", "is_faultless",
     "core.verify"),
    ("repro.index.plan", "IndexPlan", "candidate_rows", "index.probe"),
    ("repro.index.exact", "ExactMatchIndex", "update", "index.update"),
    ("repro.index.numeric", "NumericWindowIndex", "update",
     "index.update"),
    ("repro.index.strings", "QGramIndex", "update", "index.update"),
    ("repro.service.admission", "AdmissionQueue", "acquire",
     "service.queue_wait"),
    ("repro.service.engine", "PreparedEngine", "prepare_rfds",
     "service.prepare_rfds"),
    ("repro.service.engine", "PreparedEngine", "impute_once",
     "service.impute"),
    ("repro.service.sessions", "ServiceSession", "append",
     "service.session_append"),
    ("repro.service.sessions", "ServiceSession", "impute",
     "service.session_impute"),
    ("repro.service.durability", "SessionStore", "save",
     "service.persist"),
    ("repro.pipeline.runner", "Pipeline", "run", "pipeline.run"),
    ("repro.pipeline.ingest", None, "load_combined", "pipeline.ingest"),
    ("repro.pipeline.ingest", None, "batch_rows", "pipeline.ingest"),
    ("repro.pipeline.state", "RunStateStore", "save",
     "pipeline.state_save"),
    ("repro.pipeline.reconcile", None, "commit_store", "pipeline.commit"),
    ("repro.robustness.journal", "JournalWriter", "write_header",
     "journal.write"),
    ("repro.robustness.journal", "JournalWriter", "record_cell",
     "journal.write"),
    ("repro.robustness.journal", "JournalWriter", "record_degradation",
     "journal.write"),
    ("repro.robustness.journal", "JournalWriter", "record_reactivation",
     "journal.write"),
    ("repro.robustness.journal", "JournalWriter", "record_budget",
     "journal.write"),
    ("repro.robustness.journal", "JournalWriter", "record_end",
     "journal.write"),
)

LAYERS = (
    "dataset", "discovery", "distance", "core", "index", "service",
    "pipeline", "journal",
)


class Recorder:
    """In-memory span store; one child-time stack per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (name, thread, start, duration, self, parent name or "").
        self.spans: list[tuple[str, int, float, float, float, str]] = []
        #: Counts taken where the work happens, by count name.
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, function: Callable, args: tuple,
             kwargs: dict) -> Any:
        stack = self._stack()
        parent = stack[-1][1] if stack else ""
        stack.append([0.0, name])
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = stack.pop()[0]
            if stack:
                stack[-1][0] += duration
            self.spans.append((
                name, threading.get_ident(), start, duration,
                duration - child, parent,
            ))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, _, _, duration, own, _ in self.spans:
            entry = out.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self": 0.0}
            )
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self"] += own
        return out

    def covered_seconds(self) -> float:
        """Time covered by outermost spans, summed over threads."""
        return sum(span[3] for span in self.spans if not span[5])

    def seconds_under(self, name: str, parent: str) -> float:
        """Inclusive seconds of ``name`` spans called from ``parent``."""
        return sum(
            span[3] for span in self.spans
            if span[0] == name and span[5] == parent
        )


RECORDER = Recorder()


def _count_result(name: str, result: Any, args: tuple) -> None:
    """Counts that need the call's result or receiver."""
    if name == "core.impute":
        report = result.report
        RECORDER.count("core.cells", report.missing_count)
        RECORDER.count("core.cells_imputed", report.imputed_count)
        for key, value in report.kernel_counters.items():
            RECORDER.count(f"kernel.{key}", value)
    elif name == "discovery.discover":
        RECORDER.count("discovery.rfds", len(result.all_rfds))
    elif name == "core.candidates":
        RECORDER.count("core.candidates", len(result))
    elif name == "core.verify":
        RECORDER.count("core.verify_accepted", 1 if result else 0)
    elif name == "service.prepare_rfds":
        RECORDER.count("service.cache_hits", result[2] == "cache")
    elif name == "discovery.insert":
        RECORDER.count("discovery.insert_rows", len(args[1]))


_COUNTED = {
    "core.impute", "discovery.discover", "core.candidates", "core.verify", "service.prepare_rfds",
    "discovery.insert",
}


def _wrap(function: Callable, name: str) -> Callable:
    counted = name in _COUNTED

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not RECORDER.enabled:
            return function(*args, **kwargs)
        result = RECORDER.call(name, function, args, kwargs)
        if counted:
            _count_result(name, result, args)
        return result

    return wrapper


#: (owner, attribute, original, wrapped) for every rebinding site.
_BINDINGS: list[tuple[Any, str, Any, Any]] = []


def _collect_bindings() -> None:
    wrapped_by_id: dict[int, tuple[Callable, Callable]] = {}
    for module_name, owner_name, attribute, name in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = (
            owner.__dict__[attribute] if owner_name is not None
            else getattr(module, attribute)
        )
        wrapped = _wrap(original, name)
        _BINDINGS.append((owner, attribute, original, wrapped))
        if owner_name is None:
            wrapped_by_id[id(original)] = (original, wrapped)
    # ``from x import f`` copies held by other modules are bindings too.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            pair = wrapped_by_id.get(id(value))
            if pair is not None and pair[0] is value:
                _BINDINGS.append((module, key, pair[0], pair[1]))


def set_tracing(on: bool) -> None:
    """Swap the wrappers in (``on``) or restore the program's own
    functions, so untraced phases run the program untouched."""
    if not _BINDINGS:
        _collect_bindings()
    for owner, attribute, original, wrapped in _BINDINGS:
        setattr(owner, attribute, wrapped if on else original)
    RECORDER.enabled = on


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_table(
    totals: dict[str, dict[str, float]],
    wall: float,
    cycles: int,
    unattributed: float,
) -> list[str]:
    """Self time by layer and by span, per cycle and as a share."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        by_layer[layer_of(name)] += entry["self"]
    per = max(cycles, 1)
    lines = [
        f"{'layer / span':<28}{'calls':>9}{'self s/cycle':>14}"
        f"{'incl s/cycle':>14}{'self share':>12}"
    ]
    for layer in LAYERS:
        names = sorted(n for n in totals if layer_of(n) == layer)
        if not names:
            continue
        share = by_layer[layer] / wall if wall else 0.0
        lines.append(
            f"{layer:<28}{'':>9}{by_layer[layer] / per:>14.5f}"
            f"{'':>14}{share:>12.1%}"
        )
        for name in names:
            entry = totals[name]
            lines.append(
                f"  {name:<26}{int(entry['calls']):>9}"
                f"{entry['self'] / per:>14.5f}"
                f"{entry['seconds'] / per:>14.5f}"
                f"{entry['self'] / wall if wall else 0.0:>12.1%}"
            )
    lines.append(f"{'(unattributed)':<28}{'':>9}{'':>14}{'':>14}"
                 f"{unattributed:>12.1%}")
    return lines


def write_spans(path: Path) -> None:
    """Dump the recorded spans as JSON lines (times relative to the
    first span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = RECORDER.spans
    origin = min((span[2] for span in spans), default=0.0)
    threads: dict[int, int] = {}
    with path.open("w", encoding="utf-8") as handle:
        for name, thread, start, duration, own, parent in spans:
            handle.write(json.dumps({
                "name": name,
                "layer": layer_of(name),
                "thread": threads.setdefault(thread, len(threads)),
                "parent": parent or None,
                "start_s": round(start - origin, 7),
                "duration_s": round(duration, 7),
                "self_s": round(own, 7),
            }) + "\n")
