"""Donor-scan engines: the columnar hot path and the scalar oracle.

RENUVER's cost is dominated by two per-missing-cell donor scans:
candidate generation (Algorithm 3) and verification (Algorithm 4).  Both
boil down to "compare the target tuple against every other tuple on a
handful of attributes".  The engines here expose that scan behind one
interface so the driver — and the ``explain`` diagnostics — run the same
code path:

* :class:`VectorizedEngine` is the engine of every imputation run.  It
  evaluates both algorithms, and the Definition 3.4 keyness test, over
  the columnar distances of
  :class:`~repro.distance.kernels.DonorScanKernels`, which read the
  relation's live encoding.  Every LHS check asks one method,
  :meth:`~repro.index.plan.IndexPlan.lhs_rows` of the engine's plan,
  for the rows whose pair with the target satisfies the RFD's LHS: the
  plan's rows, with only the constraints it could not serve confirmed
  on them.  Keyness settles most rows per distinct LHS value before
  asking it.
  The Equation-2 score is the sum of the LHS distances of those rows
  over ``|X|``; each donor keeps its smallest score over the cluster's
  RFDs, merged from the per-RFD row sets without relation-sized
  arrays.  Verification orders the relevant RFDs by measured
  selectivity (how often each one produced a violation so far) and
  exits at the first violating RFD.
* :class:`ScalarEngine` wraps the paper's pair-at-a-time functions
  (``find_candidate_tuples`` / ``is_faultless``) over a
  :class:`~repro.distance.pattern.PatternCalculator`.  No imputation run
  builds it: it is the oracle the equivalence, rollback and chaos suites
  compare the columnar engine against (``tests/oracle.py``).

Both engines produce bit-identical :class:`~repro.core.candidates.Candidate`
lists and accept/reject decisions: the float operations run in the same
order (IEEE-754 addition is deterministic) and the clamped string
distances only differ beyond every threshold in play.  The index plan
changes no outcome either (the equivalence suite in ``tests/index/``
checks it on every builtin dataset):

* a constraint the plan serves — string, numeric or boolean — is
  exact: its distinct values within threshold are matched once per
  (attribute, value, threshold) per run — the index's filters only drop
  values the threshold already rejects, and each surviving value is
  confirmed through this engine's ``subset_vector`` — and its rows are
  the live rows of those values;
* a constraint the plan could not serve (hot value past
  ``max_group_size``, overridden distance, un-probeable attribute) is
  confirmed through ``subset_vector`` on the plan's rows — every row
  but the target when it served none: slower, never different;
* ``subset_vector`` applies the pair-at-a-time distance to each row
  (same clamps, same memo), so matches, scores, minimum-score
  tie-breaks and the (distance, row) sort are unchanged.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

import numpy as np

from repro.core.candidates import Candidate, find_candidate_tuples
from repro.core.selection import Cluster
from repro.core.verification import (
    is_faultless as _scalar_is_faultless,
    relevant_rfds,
)
from repro.dataset.attribute import AttributeType
from repro.dataset.relation import Relation
from repro.distance.base import DistanceFunction
from repro.distance.kernels import DistanceMemoPool, DonorScanKernels
from repro.distance.pattern import DistancePattern, PatternCalculator
from repro.index.plan import IndexPlan
from repro.rfd.keyness import (
    _check_scope,  # noqa: SLF001 - shared scope validation
    pair_reactivates as _scalar_pair_reactivates,
    partition_key_rfds as _scalar_partition_key_rfds,
)
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.trace import NULL_SPAN

_NO_ROWS = np.empty(0, dtype=np.int64)


def string_clamp_limits(rfds: Iterable[RFD]) -> dict[str, float]:
    """Per-attribute clamp for the kernels: the largest threshold any
    constraint (LHS or RHS) of ``rfds`` applies to the attribute.

    Distances above the clamp never influence an engine decision — every
    satisfaction test compares against a threshold at or below it — so
    the kernels may stop the string DP there and length-block donors
    beyond it.
    """
    limits: dict[str, float] = {}
    for rfd in rfds:
        for constraint in rfd.lhs + (rfd.rhs,):
            current = limits.get(constraint.attribute)
            if current is None or constraint.threshold > current:
                limits[constraint.attribute] = constraint.threshold
    return limits


class KernelCallSeam:
    """Observable entry points of a donor-scan engine.

    Both engines announce every top-level kernel operation
    (``cell_scan``, ``candidates``, ``is_faultless``,
    ``partition_key_rfds``, ``pair_reactivates``) to a list of hooks.
    The fault-tolerant runtime registers a budget watchdog here, and the
    chaos harness registers deterministic fault injectors — the seam
    that lets recovery paths be *tested* instead of trusted.

    A hook receives ``(op, target_row, attribute)`` and may raise; the
    exception propagates to the driver exactly like a kernel failure
    would.

    The seam is also the telemetry attachment point: every entry is
    counted per operation (the unified half of :meth:`counters`), and
    when a live :class:`~repro.telemetry.Telemetry` is attached via
    :meth:`set_telemetry`, each entry increments
    ``renuver_kernel_calls_total{engine=,op=}`` and runs under a
    ``kernel.<op>`` span nested inside the driver's cell span.
    """

    def __init__(self) -> None:
        self._kernel_hooks: list[Callable[[str, int, str], None]] = []
        self._telemetry = NULL_TELEMETRY
        #: Seam entries per operation since construction.
        self.op_counts: dict[str, int] = {}
        self._op_counters: dict[str, object] = {}

    def add_kernel_hook(
        self, hook: Callable[[str, int, str], None]
    ) -> None:
        """Register a hook fired at every kernel-call entry."""
        self._kernel_hooks.append(hook)

    def set_telemetry(self, telemetry: object) -> None:
        """Attach the run's telemetry (tracer + metrics registry)."""
        self._telemetry = telemetry or NULL_TELEMETRY
        self._op_counters.clear()

    def _fire(self, op: str, target_row: int, attribute: str) -> None:
        counts = self.op_counts
        counts[op] = counts.get(op, 0) + 1
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self._telemetry.metrics.counter(
                "renuver_kernel_calls_total",
                "Kernel-call seam entries by engine and operation.",
                engine=self.name,
                op=op,
            )
            self._op_counters[op] = counter
        counter.inc()  # type: ignore[attr-defined]
        for hook in self._kernel_hooks:
            hook(op, target_row, attribute)

    def _kernel_span(self, op: str, target_row: int, attribute: str):
        """Fire the seam, then open a ``kernel.<op>`` span.

        Hook exceptions (budget watchdog, chaos faults) raise *before*
        the span opens, exactly as the bare seam behaved.  With tracing
        disabled this costs one attribute read past :meth:`_fire`.
        """
        self._fire(op, target_row, attribute)
        tracer = self._telemetry.tracer
        if not tracer.enabled:
            return NULL_SPAN
        return tracer.span(
            f"kernel.{op}",
            engine=self.name,
            row=target_row,
            attribute=attribute,
        )

    # ------------------------------------------------------------------
    # Unified counters
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Kernel statistics for the imputation report.

        One code path for both engines: the seam's per-operation call
        counts (``calls_<op>``) merged with whatever engine-specific
        counters :meth:`_engine_counters` contributes (subset gathers,
        DP-blocking stats and index counters for the vectorized
        engine).
        """
        merged = {
            f"calls_{op}": count
            for op, count in sorted(self.op_counts.items())
        }
        merged.update(self._engine_counters())
        return merged

    def _engine_counters(self) -> dict[str, int]:
        """Engine-specific counters merged into :meth:`counters`."""
        return {}

    def _record_candidates(
        self, cluster: Cluster, found: list, span: object
    ) -> None:
        """Telemetry for one cluster's candidate generation."""
        self._telemetry.metrics.counter(
            "renuver_candidates_generated_total",
            "Candidate donor tuples produced by Algorithm 3.",
            engine=self.name,
        ).inc(len(found))
        if span is not NULL_SPAN:
            span.set_attribute(  # type: ignore[attr-defined]
                "cluster_threshold", cluster.rhs_threshold
            )
            span.set_attribute(  # type: ignore[attr-defined]
                "candidates", len(found)
            )


class ScalarEngine(KernelCallSeam):
    """Reference donor-scan engine: the paper's pair-at-a-time loops.

    The test oracle for :class:`VectorizedEngine`; imputation runs never
    build it.
    """

    name = "scalar"

    def __init__(self, calculator: PatternCalculator) -> None:
        super().__init__()
        self.calculator = calculator

    def cell_scan(
        self,
        target_row: int,
        attribute: str,
        clusters: Sequence[Cluster],
    ) -> "_ScalarCellScan":
        """One scan context per missing cell.

        Shares one distance pattern per donor tuple across all clusters
        of the cell: tentative writes only touch ``attribute``, which by
        construction never appears in these LHS attribute sets, so the
        memo stays valid for the whole cell.
        """
        self._fire("cell_scan", target_row, attribute)
        union: tuple[str, ...] = tuple(
            sorted({
                name for cluster in clusters for name in cluster.lhs_union
            })
        )
        memo: dict[int, DistancePattern] = {}
        calculator = self.calculator

        def pattern_for(donor: int) -> DistancePattern:
            pattern = memo.get(donor)
            if pattern is None:
                pattern = calculator.pattern(target_row, donor, union)
                memo[donor] = pattern
            return pattern

        return _ScalarCellScan(self, target_row, attribute, pattern_for)

    def is_faultless(
        self,
        target_row: int,
        attribute: str,
        rfds: list[RFD],
        *,
        check_rhs_rfds: bool = False,
    ) -> bool:
        with self._kernel_span("is_faultless", target_row, attribute):
            return _scalar_is_faultless(
                self.calculator,
                target_row,
                attribute,
                rfds,
                check_rhs_rfds=check_rhs_rfds,
            )

    def partition_key_rfds(
        self, rfds: Iterable[RFD], *, scope: str = "all"
    ) -> tuple[list[RFD], list[RFD]]:
        """Definition 3.4 split, via the scalar all-pairs scan."""
        with self._kernel_span("partition_key_rfds", -1, ""):
            return _scalar_partition_key_rfds(
                rfds, self.calculator, scope=scope
            )

    def pair_reactivates(
        self, rfd: RFD, target_row: int, *, scope: str = "all"
    ) -> bool:
        """Algorithm 1 line 14's incremental re-check, pair-at-a-time."""
        with self._kernel_span(
            "pair_reactivates", target_row, rfd.rhs_attribute
        ):
            return _scalar_pair_reactivates(
                rfd, self.calculator, target_row, scope=scope
            )

    def close(self) -> None:
        """Nothing to detach."""


class _ScalarCellScan:
    __slots__ = ("_engine", "_target_row", "_attribute", "_pattern_for")

    def __init__(
        self,
        engine: ScalarEngine,
        target_row: int,
        attribute: str,
        pattern_for: Callable[[int], DistancePattern],
    ) -> None:
        self._engine = engine
        self._target_row = target_row
        self._attribute = attribute
        self._pattern_for = pattern_for

    def candidates(
        self, cluster: Cluster, *, max_candidates: int | None = None
    ) -> list[Candidate]:
        engine = self._engine
        with engine._kernel_span(
            "candidates", self._target_row, self._attribute
        ) as span:
            found = find_candidate_tuples(
                engine.calculator,
                self._target_row,
                self._attribute,
                cluster,
                max_candidates=max_candidates,
                pattern_for=self._pattern_for,
            )
            engine._record_candidates(cluster, found, span)
        return found


class VectorizedEngine(KernelCallSeam):
    """Columnar donor-scan engine over one-vs-all distance vectors.

    Parameters
    ----------
    relation:
        The instance the scans read; the kernels read its live
        encoding, and the plan follows its writes through the
        relation's mutation hook.
    rfds:
        The RFD set; its thresholds set the string kernels' clamps.
    overrides:
        Per-attribute distance functions replacing the paper's defaults.
    plan:
        The :class:`~repro.index.plan.IndexPlan` shadowing ``relation``
        that a session or pipeline shares across rounds; the engine
        leaves it attached.  ``None`` builds a plan for this engine
        (its overridden attributes unindexed), closed by :meth:`close`.
        Every LHS check asks the plan for candidate rows and confirms
        the constraints it could not serve.
    memo_pool:
        The owner's :class:`~repro.distance.kernels.DistanceMemoPool`
        for the kernels' string memos; ``None`` makes a private one.
    """

    name = "vectorized"

    def __init__(
        self,
        relation: Relation,
        rfds: Iterable[RFD],
        *,
        overrides: Mapping[str, DistanceFunction] | None = None,
        plan: IndexPlan | None = None,
        memo_pool: DistanceMemoPool | None = None,
    ) -> None:
        super().__init__()
        rfds = tuple(rfds)
        self.relation = relation
        self.kernels = DonorScanKernels(
            relation,
            string_limits=string_clamp_limits(rfds),
            overrides=overrides,
            memo_pool=memo_pool,
        )
        self._overrides = frozenset(overrides or ())
        self._closes_plan = plan is None
        if plan is None:
            plan = IndexPlan(relation, rfds, override_names=self._overrides)
        self.plan = plan
        plan.attach()
        # A shared plan counts for its whole lifetime; the report wants
        # this run's share, so counters() subtracts the totals at build.
        self._plan_baseline = plan.counters
        # Violations observed per RFD so far: verification tries the
        # historically most violating RFDs first and stops at the first
        # hit.
        self._fault_hits: dict[RFD, int] = {}

    def set_telemetry(self, telemetry: object) -> None:
        super().set_telemetry(telemetry)
        self.plan.set_telemetry(telemetry)

    def cell_scan(
        self,
        target_row: int,
        attribute: str,
        clusters: Sequence[Cluster],
    ) -> "_VectorizedCellScan":
        """One scan context per missing cell."""
        self._fire("cell_scan", target_row, attribute)
        return _VectorizedCellScan(self, target_row, attribute)

    # ------------------------------------------------------------------
    # Algorithm 4
    # ------------------------------------------------------------------
    def is_faultless(
        self,
        target_row: int,
        attribute: str,
        rfds: list[RFD],
        *,
        check_rhs_rfds: bool = False,
    ) -> bool:
        with self._kernel_span("is_faultless", target_row, attribute):
            relevant = relevant_rfds(
                rfds, attribute, check_rhs_rfds=check_rhs_rfds
            )
            if not relevant:
                return True
            hits = self._fault_hits
            ordered = sorted(
                relevant, key=lambda rfd: -hits.get(rfd, 0)
            )
            with np.errstate(invalid="ignore"):
                for rfd in ordered:
                    if self._violating_rows(target_row, rfd).size:
                        hits[rfd] = hits.get(rfd, 0) + 1
                        return False
            return True

    def _violating_rows(self, target_row: int, rfd: RFD) -> np.ndarray:
        """Sorted rows whose pair with the target violates ``rfd``: LHS
        satisfied, RHS present on both sides and beyond its threshold."""
        distances = self.kernels.subset_vector
        rows = self.plan.lhs_rows(target_row, rfd.lhs, distances)
        if rows is None:
            return _NO_ROWS
        rhs = distances(target_row, rfd.rhs_attribute, rows)
        return rows[rhs > rfd.rhs_threshold]  # NaN compares false

    # ------------------------------------------------------------------
    # Keyness (Definition 3.4)
    # ------------------------------------------------------------------
    def partition_key_rfds(
        self, rfds: Iterable[RFD], *, scope: str = "all"
    ) -> tuple[list[RFD], list[RFD]]:
        """Definition 3.4 split, each RFD settled by :meth:`_has_pair`
        (the same pair predicate as the scalar scan, so the partition
        is identical); keys and non-keys keep the input order."""
        with self._kernel_span("partition_key_rfds", -1, ""):
            return self._partition_key_rfds(rfds, scope)

    def _partition_key_rfds(
        self, rfds: Iterable[RFD], scope: str
    ) -> tuple[list[RFD], list[RFD]]:
        _check_scope(scope)
        rfds = list(rfds)
        in_scope = self._scope_mask(scope)
        with np.errstate(invalid="ignore"):
            non_key = [self._has_pair(rfd, in_scope) for rfd in rfds]
        keys = [rfd for rfd, usable in zip(rfds, non_key) if not usable]
        non_keys = [rfd for rfd, usable in zip(rfds, non_key) if usable]
        return keys, non_keys

    def _has_pair(self, rfd: RFD, in_scope: np.ndarray | None) -> bool:
        """Whether two distinct in-scope rows satisfy ``rfd``'s LHS.

        Only rows present on every LHS attribute can.  Where a
        constraint's distance is the difference of the column's codes
        (numbers, booleans, strings under a threshold of 1), a row's
        partners on it are its neighbours in code order: a row without
        one within the threshold forms no pair, and when every
        constraint is of that kind :meth:`_pair_in_code_order` settles
        the rest.  Otherwise two rows with equal codes on every LHS
        attribute form a pair (not assumed for overridden attributes),
        and the rows left are queried in order until one has a partner.
        """
        kernels = self.kernels
        eligible = (
            np.ones(self.relation.n_tuples, dtype=bool)
            if in_scope is None else in_scope.copy()
        )
        for name in rfd.lhs_attributes:
            eligible &= kernels.present_mask(name)
        rows = np.flatnonzero(eligible)
        by_code = [
            constraint for constraint in rfd.lhs
            if constraint.attribute not in self._overrides and (
                constraint.threshold < 1
                or self.relation.attribute(constraint.attribute).type
                is not AttributeType.STRING
            )
        ]
        for constraint in by_code:
            codes = self._distance_codes(constraint.attribute, rows)
            order = np.argsort(codes, kind="stable")
            near = np.diff(codes[order]) <= constraint.threshold
            partnered = np.zeros(rows.size, dtype=bool)
            partnered[order[1:][near]] = True
            partnered[order[:-1][near]] = True
            rows = rows[partnered]
        if rows.size < 2:
            return False
        if len(by_code) == len(rfd.lhs):
            return self._pair_in_code_order(rows, by_code)
        if not any(c.attribute in self._overrides for c in rfd.lhs):
            columns = np.array(
                [self._distance_codes(c.attribute, rows) for c in rfd.lhs],
                dtype=np.float64,
            )
            ranked = columns[:, np.lexsort(columns)]
            if (ranked[:, 1:] == ranked[:, :-1]).all(axis=0).any():
                return True
        eligible[:] = False
        eligible[rows] = True
        return any(
            self.plan.lhs_rows(row, rfd.lhs, kernels.subset_vector, eligible)
            is not None
            for row in rows.tolist()
        )

    def _pair_in_code_order(
        self, rows: np.ndarray, constraints: Sequence[Constraint]
    ) -> bool:
        """Whether two of ``rows`` are within every threshold, each
        distance a difference of codes: sorted by the constraint with
        the fewest pairs within its threshold, compare each row with the
        one ``k`` places on, for ``k = 1, 2, …``, until no pair at that
        offset is within the sort constraint's threshold."""
        columns = [
            self._distance_codes(c.attribute, rows) for c in constraints
        ]
        orders = [np.argsort(codes, kind="stable") for codes in columns]
        lead = int(np.argmin([
            np.searchsorted(
                codes[order], codes[order] + c.threshold, side="right"
            ).sum()
            for codes, order, c in zip(columns, orders, constraints)
        ]))
        columns = [codes[orders[lead]] for codes in columns]
        for k in range(1, rows.size):
            near = [
                np.abs(codes[k:] - codes[:-k]) <= c.threshold
                for codes, c in zip(columns, constraints)
            ]
            if not near[lead].any():
                return False
            if np.logical_and.reduce(near).any():
                return True
        return False

    def _distance_codes(self, name: str, rows: np.ndarray) -> np.ndarray:
        """The codes of ``rows`` on ``name`` in the relation's encoding,
        equal exactly for equal values; for numbers and booleans their
        floats, whose differences are the distances."""
        encoding = self.relation.encoding(name)
        codes = encoding.codes[rows]
        return codes if encoding.floats is None else encoding.floats[codes]

    def pair_reactivates(
        self, rfd: RFD, target_row: int, *, scope: str = "all"
    ) -> bool:
        """Algorithm 1 line 14's incremental re-check over one mask."""
        with self._kernel_span(
            "pair_reactivates", target_row, rfd.rhs_attribute
        ):
            _check_scope(scope)
            in_scope = self._scope_mask(scope)
            if in_scope is not None and not in_scope[target_row]:
                return False
            with np.errstate(invalid="ignore"):
                return self.plan.lhs_rows(
                    target_row, rfd.lhs, self.kernels.subset_vector, in_scope
                ) is not None

    def _scope_mask(self, scope: str) -> np.ndarray | None:
        """Rows eligible for keyness pairs: all of them, or (under
        ``scope="complete"``) the rows present on every attribute."""
        if scope != "complete":
            return None
        mask: np.ndarray | None = None
        for name in self.relation.attribute_names:
            present = self.kernels.present_mask(name)
            mask = present.copy() if mask is None else mask & present
        return mask

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def _engine_counters(self) -> dict[str, int]:
        """Kernel counters (subset gathers, DP blocking) plus this run's
        index-plan counters."""
        counters = dict(self.kernels.counters)
        baseline = self._plan_baseline
        for name, value in self.plan.counters.items():
            counters[name] = value - baseline[name]
        return counters

    def close(self) -> None:
        """Detach a plan this engine built from the relation."""
        if self._closes_plan:
            self.plan.close()


class _VectorizedCellScan:
    __slots__ = ("_engine", "_target_row", "_attribute")

    def __init__(
        self, engine: VectorizedEngine, target_row: int, attribute: str
    ) -> None:
        self._engine = engine
        self._target_row = target_row
        self._attribute = attribute

    def candidates(
        self, cluster: Cluster, *, max_candidates: int | None = None
    ) -> Sequence[Candidate]:
        """Algorithm 3 over the rows the plan's
        :meth:`~repro.index.plan.IndexPlan.lhs_rows` returns.

        Mirrors the scalar scan exactly: LHS satisfaction per RFD, mean
        LHS distance (summed in sorted-attribute order, the same float
        operation order as ``DistancePattern.mean_over``), per-donor
        minimum across the cluster's RFDs with first-RFD tie-breaks, and
        an ascending (distance, row) order — ranked in numpy and handed
        back as a :class:`RankedCandidates` view that builds each
        candidate only when the driver reaches it.
        """
        target_row = self._target_row
        attribute = self._attribute
        if cluster.attribute != attribute:
            raise ValueError(
                f"cluster targets {cluster.attribute!r}, "
                f"expected {attribute!r}"
            )
        engine = self._engine
        with engine._kernel_span(
            "candidates", target_row, attribute
        ) as span:
            found = self._scan(cluster, max_candidates)
            engine._record_candidates(cluster, found, span)
        return found

    def _scan(
        self, cluster: Cluster, max_candidates: int | None
    ) -> Sequence[Candidate]:
        target_row = self._target_row
        engine = self._engine
        kernels = engine.kernels
        # Donors are the rows present on the attribute; ``lhs_rows``
        # drops the target itself.
        donors = kernels.present_mask(self._attribute)
        if np.count_nonzero(donors) <= donors[target_row]:
            return []
        hits: list[tuple[np.ndarray, np.ndarray, int]] = []
        with np.errstate(invalid="ignore"):
            for index, rfd in enumerate(cluster.rfds):
                rows = engine.plan.lhs_rows(
                    target_row, rfd.lhs, kernels.subset_vector, donors
                )
                if rows is None:
                    continue
                total: np.ndarray | None = None
                for name in rfd.lhs_attributes:
                    vector = kernels.subset_vector(target_row, name, rows)
                    total = vector if total is None else total + vector
                hits.append((rows, total / len(rfd.lhs), index))
        if not hits:
            rows = scores = rfd_index = _NO_ROWS
        elif len(hits) == 1:
            rows, scores, index = hits[0]
            rfd_index = np.full(rows.size, index, dtype=np.int64)
        else:
            # Each donor keeps its smallest score, and among equal
            # scores its first RFD: sort by (row, score, RFD) and keep
            # each row's first entry.
            rows = np.concatenate([hit[0] for hit in hits])
            scores = np.concatenate([hit[1] for hit in hits])
            rfd_index = np.concatenate([
                np.full(hit[0].size, hit[2], dtype=np.int64)
                for hit in hits
            ])
            order = np.lexsort((rfd_index, scores, rows))
            first = np.ones(order.size, dtype=bool)
            first[1:] = rows[order[1:]] != rows[order[:-1]]
            best = order[first]
            rows, scores, rfd_index = (
                rows[best], scores[best], rfd_index[best]
            )
        # (distance, row) order; ``rows`` is ascending and unique, so it
        # breaks distance ties exactly as ``Candidate.sort_key``.
        order = np.lexsort((rows, scores))
        if max_candidates is not None:
            order = order[:max_candidates]
        return RankedCandidates(
            engine.relation,
            self._attribute,
            rows[order],
            scores[order],
            rfd_index[order],
            cluster.rfds,
        )


class RankedCandidates(Sequence[Candidate]):
    """One cluster's candidates in (distance, row) order, built lazily.

    The driver usually accepts one of the first candidates and never
    reaches the rest, so each :class:`Candidate` (and its donor value)
    is built only when it is indexed or iterated to.  ``len`` is the
    full count.  The view compares equal to a list of the same
    candidates, and a slice is a list.

    Donor values are read when a candidate is built.  Within one cell
    only the target cell is written, and the target row is never a
    donor, so that reads what an eager build would have read.
    """

    __slots__ = (
        "_relation", "_attribute", "_rows", "_distances", "_rfd_index",
        "_rfds",
    )

    def __init__(
        self,
        relation: Relation,
        attribute: str,
        rows: np.ndarray,
        distances: np.ndarray,
        rfd_index: np.ndarray,
        rfds: Sequence[RFD],
    ) -> None:
        self._relation = relation
        self._attribute = attribute
        self._rows = rows
        self._distances = distances
        self._rfd_index = rfd_index
        self._rfds = rfds

    def __len__(self) -> int:
        return int(self._rows.size)

    def _build(self, position: int) -> Candidate:
        row = int(self._rows[position])
        return Candidate(
            row,
            self._relation.value(row, self._attribute),
            float(self._distances[position]),
            self._rfds[int(self._rfd_index[position])],
        )

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._build(i) for i in range(len(self))[index]]
        return self._build(range(len(self))[index])

    def __iter__(self) -> Iterator[Candidate]:
        for position in range(len(self)):
            yield self._build(position)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RankedCandidates, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RankedCandidates({list(self)!r})"
