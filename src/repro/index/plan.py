"""Per-RFD candidate composition over the per-attribute indexes.

:class:`IndexPlan` owns one lazily-built
:class:`~repro.index.base.ValueIndex` per LHS attribute of the RFD set
and answers the one LHS question of the engine and of incremental
maintenance — *which rows satisfy every LHS constraint of this RFD
against this target row?* — by intersecting the per-attribute answers
(smallest first) in :meth:`IndexPlan.candidate_rows`, then confirming
what they left pending in :meth:`IndexPlan.lhs_rows`.

Every served constraint is answered **exactly**.  The distinct values
within ``tau`` of the target value are matched once per (attribute,
value code, ``tau``) while the column encoding's ``generation`` stands
— the index filters candidate values and the caller's distance kernel
confirms each one — and each answer reads the live rows of those
values.  Only the constraints the plan could not serve are confirmed
on the intersected rows: a constraint an index declines is left
pending (counted in ``renuver_index_fallbacks_total{reason}``), and
when *no* constraint could be probed the answer is every row but the
target, with every constraint pending.

Every index reads the relation's dictionary encoding of its column
(:mod:`repro.dataset.encoding`), and the plan's mutation listener (the
only one a normal run registers) feeds every write to the built
indexes, so service sessions, pipeline INCR runs and an incremental
maintainer keep one plan across rounds instead of rebuilding per round.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.dataset.attribute import AttributeType
from repro.dataset.relation import Relation
from repro.index.base import EMPTY_ROWS, ValueIndex
from repro.index.exact import ExactMatchIndex
from repro.index.numeric import NumericWindowIndex
from repro.index.strings import QGramIndex
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY

_UNINDEXED = "unindexed"

#: Gram width of the string indexes.
_GRAM_WIDTH = 2

#: Distances from the target row's cell on an attribute to some rows:
#: a :class:`~repro.distance.kernels.DonorScanKernels`' ``subset_vector``.
Distances = Callable[[int, str, np.ndarray], np.ndarray]

#: The plan's answer: candidate rows, and the constraints the caller
#: must still confirm on them.
Answer = tuple[np.ndarray, tuple[Constraint, ...]]


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
        Anchor cap: a constraint whose rows would exceed this is
        declined and left for :meth:`lhs_rows` to confirm — hot values
        never cost more than the confirmation they replace, and never
        change outcomes.
    override_names:
        Attributes with overridden distance functions; their semantics
        are opaque, so they are never indexed (always pending).
    """

    def __init__(
        self,
        relation: Relation,
        rfds: Iterable[RFD],
        *,
        max_group_size: int = 4096,
        override_names: Iterable[str] = (),
    ) -> None:
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        self.relation = relation
        self.max_group_size = max_group_size
        self._override_names = frozenset(override_names)
        self._kinds: dict[str, str | None] = {}
        self._indexes: dict[str, ValueIndex] = {}
        #: Per attribute: the encoding generation the memo is valid
        #: for, and (code, threshold) -> matching codes, or a decline
        #: reason.
        self._matches: dict[
            str, tuple[int, dict[tuple[int, float], Any]]
        ] = {}
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
                self._matches.pop(name, None)
        self._kinds = kinds

    def _kind_for(self, name: str, limit: float) -> str | None:
        if name in self._override_names:
            return None
        if self.relation.attribute(name).type is not AttributeType.STRING:
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
        self,
        target_row: int,
        constraints: Sequence[Constraint],
        distances: Distances,
    ) -> Answer:
        """Rows that can satisfy every constraint against the target.

        Returns ``(rows, pending)``: a sorted unique ``int64`` array
        (the target row always excluded; empty when the target is
        missing on some indexed attribute — no pair can satisfy it
        then) and the constraints the caller must still check on those
        rows.  Every other constraint is satisfied by exactly the rows
        returned.  When no constraint could be probed, the rows are
        every row but the target and every constraint is pending.
        ``distances`` is the engine's distance kernel, through which
        every match is confirmed.
        """
        relation = self.relation
        probes: list[np.ndarray] = []
        pending: list[Constraint] = []
        for constraint in constraints:
            index = self._index_for(constraint.attribute)
            if index is None:
                self._count_fallback(_UNINDEXED)
                pending.append(constraint)
                continue
            code = int(index.encoding.codes[target_row])
            if code < 0:
                # The target cannot form a within-threshold pair on a
                # missing LHS cell (docs/ALGORITHMS.md, "MISSING on an
                # RFD's LHS").
                return EMPTY_ROWS, ()
            rows = self._matching_rows(
                index, target_row, constraint, code, distances
            )
            if rows is None:
                pending.append(constraint)
            else:
                probes.append(rows)
        if not probes:
            rows = np.arange(relation.n_tuples, dtype=np.int64)
            return np.delete(rows, target_row), tuple(pending)
        probes.sort(key=lambda rows: rows.size)
        out = probes[0]
        for rows in probes[1:]:
            if out.size == 0:
                break
            found = np.searchsorted(rows, out)
            out = out[rows[np.minimum(found, rows.size - 1)] == out]
        out = out[out != target_row]
        self.served += 1
        pruned = max(0, relation.n_tuples - 1 - int(out.size))
        self.pruned_pairs += pruned
        self._count_pruned(pruned)
        return out, tuple(pending)

    def lhs_rows(
        self,
        target_row: int,
        constraints: Sequence[Constraint],
        distances: Distances,
        eligible: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Rows forming a pair with ``target_row`` that satisfies every
        constraint.

        The one LHS check of Algorithms 3-4, Definition 3.4 and
        incremental maintenance: a sorted ``int64`` array of the rows
        other than the target (and within the boolean mask ``eligible``,
        when given) that satisfy ``constraints``, or ``None`` when none
        do.  :meth:`candidate_rows` answers; the constraints it left
        pending are confirmed on its rows through ``distances``.  A
        MISSING cell on either side of a constraint forms no pair.
        """
        rows, pending = self.candidate_rows(
            target_row, constraints, distances
        )
        if eligible is not None:
            rows = rows[eligible[rows]]
        for constraint in pending:
            if not rows.size:
                return None
            vector = distances(target_row, constraint.attribute, rows)
            rows = rows[vector <= constraint.threshold]  # NaN: no pair
        return rows if rows.size else None

    def _matching_rows(
        self,
        index: ValueIndex,
        target_row: int,
        constraint: Constraint,
        code: int,
        distances: Distances,
    ) -> np.ndarray | None:
        """The live rows of the values within the constraint's threshold
        of the value of ``code``, or ``None`` (fallback counted) when
        declined."""
        name = constraint.attribute
        threshold = constraint.threshold
        generation = index.encoding.generation
        entry = self._matches.get(name)
        if entry is None or entry[0] != generation:
            entry = self._matches[name] = (generation, {})
        memo = entry[1]
        key = (code, threshold)
        keys: Sequence[int] | str | None = memo.get(key)
        if keys is None:
            self._count_probe()

            def within(rows: np.ndarray) -> np.ndarray:
                return distances(target_row, name, rows) <= threshold

            with self._telemetry.tracer.span(
                "index.probe", attribute=name, row=target_row
            ) as span:
                keys = index.match(code, threshold, within)
                span.set_attribute("values", -1 if keys is None else len(keys))
            if keys is None:
                keys = index.skip_reason or _UNINDEXED
            memo[key] = keys
        if isinstance(keys, str):
            self._count_fallback(keys)
            return None
        rows = index.rows(keys)
        if rows is None:
            self._count_fallback(index.skip_reason)
        return rows

    def _index_for(self, name: str) -> ValueIndex | None:
        index = self._indexes.get(name)
        if index is not None:
            return index
        kind = self._kinds.get(name)
        if kind is None:
            return None
        with self._telemetry.tracer.span(
            "index.build",
            attribute=name,
            kind=kind,
            n_tuples=self.relation.n_tuples,
        ):
            index = self._build_index(name, kind)
        self._indexes[name] = index
        return index

    def _build_index(self, name: str, kind: str) -> ValueIndex:
        encoding = self.relation.encoding(name)
        cap = self.max_group_size
        if kind == "numeric_window":
            return NumericWindowIndex(encoding, max_result=cap)
        if kind == "exact":
            return ExactMatchIndex(encoding, max_result=cap)
        return QGramIndex(
            encoding,
            q=_GRAM_WIDTH,
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
                "LHS constraints the blocking plan left to the engine.",
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
