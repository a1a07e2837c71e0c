"""Donor-scan engines: the columnar hot path and the scalar reference.

RENUVER's cost is dominated by two per-missing-cell donor scans:
candidate generation (Algorithm 3) and verification (Algorithm 4).  Both
boil down to "compare the target tuple against every other tuple on a
handful of attributes".  The engines here expose that scan behind one
interface so the driver — and the ``explain`` diagnostics — run the same
code path:

* :class:`ScalarEngine` wraps the original pair-at-a-time functions
  (``find_candidate_tuples`` / ``is_faultless``) with the per-cell donor
  memo the driver used to build inline.  It is the reference
  implementation for equivalence testing.
* :class:`VectorizedEngine` evaluates both algorithms, and the
  Definition 3.4 keyness scans, over the columnar distances of
  :class:`~repro.distance.kernels.DonorScanKernels`.  Every LHS check
  goes through one helper, ``_lhs_rows``, which returns the rows whose
  pair with the target satisfies the RFD's LHS: the AND of the cached
  per-attribute within-threshold masks, or — when an optional
  :class:`~repro.index.plan.IndexPlan` answers the probe — the probed
  rows that pass the same constraints.  The Equation-2 score is the sum
  of the LHS distances of those rows over ``|X|``, the per-donor best
  RFD an element-wise running minimum.  Verification orders the
  relevant RFDs by measured selectivity (how often each one produced a
  violation so far) and exits at the first violating RFD.

Both engines produce bit-identical :class:`~repro.core.candidates.Candidate`
lists and accept/reject decisions: the float operations run in the same
order (IEEE-754 addition is deterministic) and the clamped string
distances only differ beyond every threshold in play.  An index plan
changes no outcome either (the equivalence suite in ``tests/index/``
checks it on every builtin dataset):

* a probe result is a superset of the rows whose every LHS distance is
  within threshold (the indexes only apply filters the thresholds
  already imply), so confirming the constraints on the subset selects
  exactly the rows the full masks would;
* ``subset_vector`` entries equal the corresponding ``vector`` entries
  bit for bit (one gather, same clamps, same memo), so scores,
  strict-minimum tie-breaks and the (distance, row) sort are unchanged;
* any probe the plan declines (hot value past ``max_group_size``,
  overridden distance, un-probeable attribute) scans the full column
  for that RFD: slower, never different.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.candidates import Candidate, find_candidate_tuples
from repro.core.selection import Cluster
from repro.core.verification import (
    first_fault as _scalar_first_fault,
    is_faultless as _scalar_is_faultless,
    relevant_rfds,
)
from repro.distance.kernels import DonorScanKernels
from repro.distance.levenshtein import BOUNDED_STATS
from repro.distance.pattern import DistancePattern, PatternCalculator
from repro.rfd.keyness import (
    _check_scope,  # noqa: SLF001 - shared scope validation
    pair_reactivates as _scalar_pair_reactivates,
    partition_key_rfds as _scalar_partition_key_rfds,
)
from repro.rfd.rfd import RFD
from repro.rfd.violations import Violation
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.trace import NULL_SPAN

if TYPE_CHECKING:  # runtime import would load repro.index on every run
    from repro.index.plan import IndexPlan

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
    (``cell_scan``, ``candidates``, ``is_faultless``, ``first_fault``,
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
        # Baseline for the bounded-Levenshtein deltas of counters().
        # The totals are process-wide, so concurrent engines in one
        # process each see the sum of everyone's calls since their own
        # construction — exact for the sequential runs that read them.
        self._bounded_baseline = BOUNDED_STATS.snapshot()

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
        counters :meth:`_engine_counters` contributes (vector builds,
        cache hits, DP-blocking stats for the vectorized engine), plus
        the bounded-Levenshtein deltas since this seam was built —
        ``levenshtein_bounded_calls`` and ``levenshtein_length_filtered``
        (calls the length filter settled before any DP row allocation).
        """
        merged = {
            f"calls_{op}": count
            for op, count in sorted(self.op_counts.items())
        }
        calls, filtered = BOUNDED_STATS.snapshot()
        base_calls, base_filtered = self._bounded_baseline
        merged["levenshtein_bounded_calls"] = calls - base_calls
        merged["levenshtein_length_filtered"] = filtered - base_filtered
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
    """Reference donor-scan engine: the paper's pair-at-a-time loops."""

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

    def first_fault(
        self,
        target_row: int,
        attribute: str,
        rfds: list[RFD],
        *,
        check_rhs_rfds: bool = False,
    ) -> Violation | None:
        with self._kernel_span("first_fault", target_row, attribute):
            return _scalar_first_fault(
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

    def cache_report(self) -> dict[str, tuple[int, int, int]]:
        """Value-pair memo statistics of the underlying calculator."""
        return self.calculator.cache_report()

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
    calculator:
        Supplies the relation (and the override distance functions).
    rfds:
        The RFD set; its thresholds set the string kernels' clamps.
    override_names:
        Attributes whose distance function is overridden.
    plan:
        Optional :class:`~repro.index.plan.IndexPlan` shadowing the
        calculator's relation instance.  Every LHS check asks it for
        candidate rows first; a probe it declines scans the full column.
    owns_plan:
        Whether :meth:`close` also closes ``plan``: true for a plan built
        for this run, false for one a session or pipeline shares across
        rounds.
    """

    name = "vectorized"

    def __init__(
        self,
        calculator: PatternCalculator,
        rfds: Iterable[RFD],
        *,
        override_names: Iterable[str] = (),
        plan: IndexPlan | None = None,
        owns_plan: bool = False,
    ) -> None:
        super().__init__()
        self.calculator = calculator
        overrides = {
            name: calculator.function_for(name)
            for name in override_names
        }
        self.kernels = DonorScanKernels(
            calculator.relation,
            string_limits=string_clamp_limits(rfds),
            overrides=overrides,
        )
        self.kernels.attach()
        self.plan = plan
        self._owns_plan = owns_plan
        # A shared plan counts for its whole lifetime; the report wants
        # this run's share, so counters() subtracts the totals at build.
        self._plan_baseline: dict[str, int] = {}
        if plan is not None:
            plan.attach()
            self._plan_baseline = plan.counters
        # Violations observed per RFD so far: verification tries the
        # historically most violating RFDs first and stops at the first
        # hit.
        self._fault_hits: dict[RFD, int] = {}

    def set_telemetry(self, telemetry: object) -> None:
        super().set_telemetry(telemetry)
        if self.plan is not None:
            self.plan.set_telemetry(telemetry)

    def cell_scan(
        self,
        target_row: int,
        attribute: str,
        clusters: Sequence[Cluster],
    ) -> "_VectorizedCellScan":
        """One scan context per missing cell.

        Vectors are cached per (target row, attribute) for the lifetime
        of the cell's imputation; the cache is cleared here so memory
        stays bounded by one target row's vectors.
        """
        self._fire("cell_scan", target_row, attribute)
        self.kernels.clear_target_vectors()
        return _VectorizedCellScan(self, target_row, attribute)

    def _lhs_rows(
        self,
        target_row: int,
        rfd: RFD,
        eligible: np.ndarray | None,
    ) -> np.ndarray | None:
        """Rows forming an LHS-satisfying pair with ``target_row``.

        The one LHS check of Algorithms 3-4 and Definition 3.4: a sorted
        ``int64`` array of the rows other than the target (and within
        ``eligible``, when given) that satisfy every LHS constraint of
        ``rfd``, or ``None`` when none do.  With a plan, the constraints
        are confirmed on the probed rows only; a declined probe, or no
        plan, ANDs the cached full-column masks.
        """
        kernels = self.kernels
        rows = None
        if self.plan is not None:
            rows = self.plan.candidate_rows(target_row, rfd.lhs)
        if rows is not None:
            if eligible is not None:
                rows = rows[eligible[rows]]
            for constraint in rfd.lhs:
                if not rows.size:
                    return None
                vector = kernels.subset_vector(
                    target_row, constraint.attribute, rows
                )
                rows = rows[vector <= constraint.threshold]
            return rows if rows.size else None
        if eligible is None:
            mask = np.ones(self.calculator.relation.n_tuples, dtype=bool)
        else:
            mask = eligible.copy()
        mask[target_row] = False
        for constraint in rfd.lhs:
            mask &= (
                kernels.vector(target_row, constraint.attribute)
                <= constraint.threshold
            )
            if not mask.any():
                return None
        return np.flatnonzero(mask)

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

    def first_fault(
        self,
        target_row: int,
        attribute: str,
        rfds: list[RFD],
        *,
        check_rhs_rfds: bool = False,
    ) -> Violation | None:
        """Exact Algorithm 4 semantics: the violation with the smallest
        partner row, ties broken by relevant-RFD order."""
        with self._kernel_span("first_fault", target_row, attribute):
            relevant = relevant_rfds(
                rfds, attribute, check_rhs_rfds=check_rhs_rfds
            )
            best_row: int | None = None
            best_rfd: RFD | None = None
            with np.errstate(invalid="ignore"):
                for rfd in relevant:
                    rows = self._violating_rows(target_row, rfd)
                    if rows.size and (
                        best_row is None or rows[0] < best_row
                    ):
                        best_row = int(rows[0])
                        best_rfd = rfd
            if best_row is None or best_rfd is None:
                return None
            return Violation(
                best_rfd,
                min(target_row, best_row),
                max(target_row, best_row),
            )

    def _violating_rows(self, target_row: int, rfd: RFD) -> np.ndarray:
        """Sorted rows whose pair with the target violates ``rfd``: LHS
        satisfied, RHS present on both sides and beyond its threshold."""
        rows = self._lhs_rows(target_row, rfd, None)
        if rows is None:
            return _NO_ROWS
        rhs = self.kernels.subset_vector(
            target_row, rfd.rhs_attribute, rows
        )
        return rows[rhs > rfd.rhs_threshold]  # NaN compares false

    # ------------------------------------------------------------------
    # Keyness (Definition 3.4)
    # ------------------------------------------------------------------
    def partition_key_rfds(
        self, rfds: Iterable[RFD], *, scope: str = "all"
    ) -> tuple[list[RFD], list[RFD]]:
        """Definition 3.4 split with one-vs-all vectors.

        Row-major sweep: for each row the per-attribute distance vectors
        are built once and shared by every still-undecided RFD; an RFD
        leaves the undecided set as soon as some later row satisfies its
        whole LHS (the same pair predicate as the scalar scan, so the
        partition is identical).
        """
        with self._kernel_span("partition_key_rfds", -1, ""):
            return self._partition_key_rfds(rfds, scope)

    def _partition_key_rfds(
        self, rfds: Iterable[RFD], scope: str
    ) -> tuple[list[RFD], list[RFD]]:
        _check_scope(scope)
        rfds = list(rfds)
        kernels = self.kernels
        n = self.calculator.relation.n_tuples
        in_scope = self._scope_mask(scope)
        undecided = list(range(len(rfds)))
        non_key = [False] * len(rfds)
        with np.errstate(invalid="ignore"):
            for row in range(n - 1):
                if not undecided:
                    break
                if in_scope is not None and not in_scope[row]:
                    continue
                remaining: list[int] = []
                for index in undecided:
                    rows = self._lhs_rows(row, rfds[index], in_scope)
                    if rows is not None and rows[-1] > row:
                        non_key[index] = True
                    else:
                        remaining.append(index)
                undecided = remaining
                kernels.clear_target_vectors()
        keys = [rfd for rfd, usable in zip(rfds, non_key) if not usable]
        non_keys = [rfd for rfd, usable in zip(rfds, non_key) if usable]
        return keys, non_keys

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
                return self._lhs_rows(target_row, rfd, in_scope) is not None

    def _scope_mask(self, scope: str) -> np.ndarray | None:
        """Rows eligible for keyness pairs: all of them, or (under
        ``scope="complete"``) the rows present on every attribute."""
        if scope != "complete":
            return None
        mask: np.ndarray | None = None
        for name in self.calculator.relation.attribute_names:
            present = self.kernels.present_mask(name)
            mask = present.copy() if mask is None else mask & present
        return mask

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def _engine_counters(self) -> dict[str, int]:
        """Vector-layer counters (builds, cache hits, DP blocking), plus
        this run's index-plan counters when a plan is attached."""
        counters = dict(self.kernels.counters)
        if self.plan is not None:
            baseline = self._plan_baseline
            for name, value in self.plan.counters.items():
                counters[name] = value - baseline[name]
        return counters

    def cache_report(self) -> dict[str, tuple[int, int, int]]:
        """String-memo statistics of the kernel layer."""
        return self.kernels.cache_report()

    def close(self) -> None:
        """Detach the dirty-cell hook (and an owned plan's) from the
        relation."""
        self.kernels.close()
        if self.plan is not None and self._owns_plan:
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
    ) -> list[Candidate]:
        """Algorithm 3 over the rows :meth:`VectorizedEngine._lhs_rows`
        returns.

        Mirrors the scalar scan exactly: LHS satisfaction per RFD, mean
        LHS distance (summed in sorted-attribute order, the same float
        operation order as ``DistancePattern.mean_over``), per-donor
        minimum across the cluster's RFDs with first-RFD tie-breaks, and
        an ascending (distance, row) sort.
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
    ) -> list[Candidate]:
        target_row = self._target_row
        attribute = self._attribute
        engine = self._engine
        kernels = engine.kernels
        relation = engine.calculator.relation
        donors = kernels.present_mask(attribute).copy()
        donors[target_row] = False
        if not donors.any():
            return []
        n = donors.shape[0]
        best = np.full(n, np.inf)
        best_rfd = np.full(n, -1, dtype=np.int64)
        with np.errstate(invalid="ignore"):
            for index, rfd in enumerate(cluster.rfds):
                rows = engine._lhs_rows(target_row, rfd, donors)
                if rows is None:
                    continue
                total: np.ndarray | None = None
                for name in rfd.lhs_attributes:
                    vector = kernels.subset_vector(target_row, name, rows)
                    total = vector if total is None else total + vector
                score = total / len(rfd.lhs)
                better = score < best[rows]  # strict: first RFD wins ties
                if better.any():
                    improved = rows[better]
                    best[improved] = score[better]
                    best_rfd[improved] = index
        found = np.flatnonzero(best_rfd >= 0)
        candidates = [
            Candidate(
                int(row),
                relation.value(int(row), attribute),
                float(best[row]),
                cluster.rfds[int(best_rfd[row])],
            )
            for row in found
        ]
        candidates.sort(key=Candidate.sort_key)
        if max_candidates is not None:
            candidates = candidates[:max_candidates]
        return candidates
