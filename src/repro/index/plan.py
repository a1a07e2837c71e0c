"""Per-RFD candidate composition over the per-attribute indexes.

:class:`IndexPlan` owns one lazily-built
:class:`~repro.index.base.BlockingIndex` per LHS attribute of the RFD
set and answers the engine's question — *which rows can satisfy every
LHS constraint of this RFD against this target row?* — by intersecting
the per-attribute probe results (smallest first).  The plan never
guesses: any probe an index declines falls back to the engine's full
scan for that attribute, and when *no* attribute could be probed the
whole composition returns ``None`` (full-scan fallback, counted in
``renuver_index_fallbacks_total{reason}``).

The plan attaches to the relation's mutation hook (the same dirty-cell
seam the distance kernels ride), so tentative writes, rollbacks and
session appends keep every built index consistent — service sessions
and pipeline INCR runs hand one plan to successive engine rounds
instead of rebuilding per round.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.index.base import EMPTY_ROWS, BlockingIndex
from repro.index.exact import ExactMatchIndex
from repro.index.numeric import NumericWindowIndex
from repro.index.strings import QGramIndex
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY

#: Smallest relation where ``blocking="auto"`` engages: below this the
#: vectorized full scan is already cheap and index upkeep would be pure
#: overhead (the paper-scale datasets stay on the unblocked path).
AUTO_BLOCKING_MIN_TUPLES = 5000

_UNINDEXED = "unindexed"


class IndexPlan:
    """Blocking indexes + composition for one relation and RFD set.

    Parameters
    ----------
    relation:
        The live instance the indexes shadow.
    rfds:
        The RFD set whose LHS attributes need indexes; per-attribute
        kinds derive from the attribute type and the largest LHS
        threshold (strings probed only crisply get the exact-match
        index, loose ones the q-gram index).
    max_group_size:
        Anchor cap: any probe (or composed candidate set) larger than
        this declines to the full scan — hot values never cost more
        than the scan they replace, and never change outcomes.
    override_names:
        Attributes with overridden distance functions; their semantics
        are opaque, so they are never indexed (probes fall back).
    q:
        Gram width of the string indexes.
    """

    def __init__(
        self,
        relation: Relation,
        rfds: Iterable[RFD],
        *,
        max_group_size: int = 4096,
        override_names: Iterable[str] = (),
        q: int = 2,
    ) -> None:
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        self.relation = relation
        self.max_group_size = max_group_size
        self.q = q
        self._override_names = frozenset(override_names)
        self._kinds: dict[str, str | None] = {}
        self._indexes: dict[str, BlockingIndex] = {}
        self._attached = False
        self._telemetry = NULL_TELEMETRY
        self._probe_counter: object | None = None
        self._pruned_counter: object | None = None
        self._fallback_counters: dict[str, object] = {}
        self.probes = 0
        self.served = 0
        self.pruned_pairs = 0
        self.fallbacks = 0
        self.update_rfds(rfds)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Register the mutation hook on the relation (idempotent)."""
        if not self._attached:
            self.relation.add_mutation_listener(self._on_set_value)
            self._attached = True

    def close(self) -> None:
        """Unregister the mutation hook (idempotent)."""
        if self._attached:
            self.relation.remove_mutation_listener(self._on_set_value)
            self._attached = False

    def set_telemetry(self, telemetry: object) -> None:
        """Attach a run's telemetry (tracer + metrics registry)."""
        self._telemetry = telemetry or NULL_TELEMETRY
        self._probe_counter = None
        self._pruned_counter = None
        self._fallback_counters.clear()

    def update_rfds(self, rfds: Iterable[RFD]) -> None:
        """Recompute per-attribute kinds for a new RFD set.

        Attributes whose kind changes (an exact index facing loose
        thresholds for the first time) drop their built index; it is
        rebuilt lazily at the next probe.
        """
        limits: dict[str, float] = {}
        for rfd in rfds:
            for constraint in rfd.lhs:
                current = limits.get(constraint.attribute)
                if current is None or constraint.threshold > current:
                    limits[constraint.attribute] = constraint.threshold
        kinds: dict[str, str | None] = {}
        for name, limit in limits.items():
            kinds[name] = self._kind_for(name, limit)
        for name, kind in kinds.items():
            if self._kinds.get(name) != kind:
                self._indexes.pop(name, None)
        self._kinds = kinds

    def _kind_for(self, name: str, limit: float) -> str | None:
        if name in self._override_names:
            return None
        attribute = self.relation.attribute(name)
        if attribute.type.is_numeric:
            return "numeric_window"
        if attribute.type is AttributeType.BOOLEAN:
            return "numeric_window"
        if limit < 1.0:
            return "exact"
        return "qgram"

    def _on_set_value(self, row: int, name: str, value: Any) -> None:
        index = self._indexes.get(name)
        if index is not None:
            index.update(row, value)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def candidate_rows(
        self, target_row: int, constraints: Sequence[Constraint]
    ) -> np.ndarray | None:
        """Rows that can satisfy every constraint against the target.

        Returns a sorted unique ``int64`` array (the target row always
        excluded; an empty array when the target is missing on some
        constrained attribute — no pair can satisfy it then), or
        ``None`` when no constraint could be probed: the caller must
        run its full scan.  The result is a superset of the truly
        satisfying rows; exact distances are always recomputed on it.
        """
        tracer = self._telemetry.tracer
        if not tracer.enabled:
            return self._candidate_rows(target_row, constraints)
        with tracer.span(
            "index.probe",
            row=target_row,
            attributes=",".join(
                constraint.attribute for constraint in constraints
            ),
        ) as span:
            result = self._candidate_rows(target_row, constraints)
            span.set_attribute(
                "candidates",
                -1 if result is None else int(result.size),
            )
            return result

    def _candidate_rows(
        self, target_row: int, constraints: Sequence[Constraint]
    ) -> np.ndarray | None:
        relation = self.relation
        probes: list[np.ndarray] = []
        for constraint in constraints:
            index = self._index_for(constraint.attribute)
            if index is None:
                self._count_fallback(_UNINDEXED)
                continue
            value = relation.value(target_row, constraint.attribute)
            if value is MISSING:
                # The target cannot form a within-threshold pair on a
                # missing LHS cell; the engine's masks agree (NaN
                # compares false).
                self._count_probe()
                return EMPTY_ROWS
            rows = index.probe(value, constraint.threshold)
            self._count_probe()
            if rows is None:
                self._count_fallback(index.skip_reason or _UNINDEXED)
                continue
            probes.append(rows)
        if not probes:
            self._count_fallback("full_scan")
            return None
        probes.sort(key=lambda rows: rows.size)
        out = probes[0]
        for rows in probes[1:]:
            if out.size == 0:
                break
            out = np.intersect1d(out, rows, assume_unique=True)
        out = out[out != target_row]
        self.served += 1
        pruned = max(0, relation.n_tuples - 1 - int(out.size))
        self.pruned_pairs += pruned
        self._count_pruned(pruned)
        return out

    def _index_for(self, name: str) -> BlockingIndex | None:
        index = self._indexes.get(name)
        if index is not None:
            return index
        kind = self._kinds.get(name)
        if kind is None:
            return None
        tracer = self._telemetry.tracer
        if tracer.enabled:
            with tracer.span(
                "index.build",
                attribute=name,
                kind=kind,
                n_tuples=self.relation.n_tuples,
            ):
                index = self._build_index(name, kind)
        else:
            index = self._build_index(name, kind)
        self._indexes[name] = index
        return index

    def _build_index(self, name: str, kind: str) -> BlockingIndex:
        column = self.relation._columns[name]  # noqa: SLF001 - same package
        cap = self.max_group_size
        if kind == "numeric_window":
            attribute = self.relation.attribute(name)
            if attribute.type is AttributeType.BOOLEAN:
                return NumericWindowIndex(
                    column,
                    convert=lambda value: float(bool(value)),
                    max_result=cap,
                )
            return NumericWindowIndex(column, max_result=cap)
        if kind == "exact":
            return ExactMatchIndex(column, max_result=cap)
        return QGramIndex(
            column,
            q=self.q,
            max_result=cap,
            max_probe_cost=max(1024, 8 * cap),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _count_probe(self) -> None:
        self.probes += 1
        counter = self._probe_counter
        if counter is None:
            counter = self._telemetry.metrics.counter(
                "renuver_index_probes_total",
                "Blocking-index probes issued by the donor-scan engine.",
            )
            self._probe_counter = counter
        counter.inc()  # type: ignore[attr-defined]

    def _count_pruned(self, pruned: int) -> None:
        counter = self._pruned_counter
        if counter is None:
            counter = self._telemetry.metrics.counter(
                "renuver_index_pruned_pairs_total",
                "Donor pairs skipped thanks to blocking-index probes.",
            )
            self._pruned_counter = counter
        counter.inc(pruned)  # type: ignore[attr-defined]

    def _count_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        counter = self._fallback_counters.get(reason)
        if counter is None:
            counter = self._telemetry.metrics.counter(
                "renuver_index_fallbacks_total",
                "Blocking probes that fell back to the full scan.",
                reason=reason,
            )
            self._fallback_counters[reason] = counter
        counter.inc()  # type: ignore[attr-defined]

    @property
    def counters(self) -> dict[str, int]:
        """Plan counters for the imputation report."""
        return {
            "index_probes": self.probes,
            "index_served_probes": self.served,
            "index_pruned_pairs": self.pruned_pairs,
            "index_fallbacks": self.fallbacks,
            "index_builds": sum(
                index.stats.builds for index in self._indexes.values()
            ),
            "index_updates": sum(
                index.stats.updates for index in self._indexes.values()
            ),
        }
