"""Incremental RFD maintenance under tuple insertions.

The paper's incremental future-work item (Section 7) presumes "the usage
of incremental RFDc discovery algorithms" (it cites the authors' own
incremental discovery line of work).  This module provides that
substrate: an :class:`IncrementalDiscovery` wraps a discovery result and
*maintains* it as tuples arrive, without recomputing all pairs.

Insertion-only maintenance is enough for the imputation session use
case, and it decomposes cleanly because every RFD property involved is
pairwise:

* a previously holding RFD can only be *broken* by a pair involving a
  new tuple — check new x all pairs only;
* a key RFD can only *stop being key* the same way;
* broken RFDs are **repaired** instead of dropped when possible: the
  minimal RHS threshold over the new witnessing pairs is computed and,
  if it stays within the configured limit, the dependency is re-emitted
  with the loosened bound (the natural incremental analogue of the
  batch algorithm's threshold inference).

The pairs with a new tuple that satisfy an RFD's LHS come from the same
place as the imputation engine's: :meth:`IndexPlan.lhs_rows
<repro.index.plan.IndexPlan.lhs_rows>`, on a plan the maintainer keeps
over its own copy of the relation for its whole life.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.discovery.dime import DiscoveryResult, discover_rfds
from repro.discovery.pruning import remove_dominated
from repro.distance.kernels import DistanceMemoPool, DonorScanKernels
from repro.exceptions import DiscoveryError
from repro.index.plan import IndexPlan
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD


@dataclass
class MaintenanceReport:
    """What one insertion batch did to the dependency set."""

    inserted_tuples: int = 0
    unchanged: int = 0
    loosened: list[tuple[RFD, RFD]] = field(default_factory=list)
    dropped: list[RFD] = field(default_factory=list)
    dekeyed: list[RFD] = field(default_factory=list)

    def summary(self) -> str:
        """One-line digest."""
        return (
            f"+{self.inserted_tuples} tuples: {self.unchanged} unchanged, "
            f"{len(self.loosened)} loosened, {len(self.dropped)} dropped, "
            f"{len(self.dekeyed)} keys became usable"
        )


class IncrementalDiscovery:
    """Maintain a discovered RFD set as tuples are appended.

    Parameters
    ----------
    relation:
        The initial instance (copied; later insertions go through
        :meth:`insert`).
    config:
        Discovery configuration; the initial set is computed with the
        batch algorithm.
    initial:
        Optional precomputed :class:`DiscoveryResult` for ``relation``
        under ``config`` — the service's warm-start path passes a
        cached result here so opening a session performs no discovery
        work.  The caller vouches that it matches; no re-check is done.
    memo_pool:
        Optional :class:`~repro.distance.kernels.DistanceMemoPool` for
        the string memos of every insertion's kernels; without one each
        insertion computes its distances afresh.
    """

    def __init__(
        self,
        relation: Relation,
        config: DiscoveryConfig | None = None,
        *,
        initial: DiscoveryResult | None = None,
        memo_pool: DistanceMemoPool | None = None,
    ) -> None:
        self.config = config or DiscoveryConfig()
        self._memo_pool = memo_pool
        self._relation = relation.copy(name=f"{relation.name}@inc")
        if initial is None:
            initial = discover_rfds(self._relation, self.config)
        self._rfds: list[RFD] = list(initial.rfds)
        self._keys: list[RFD] = list(initial.key_rfds)
        # The plan lives as long as the relation copy it shadows, so
        # nothing detaches it; each insert points it at the current set.
        self._plan = IndexPlan(self._relation, self.all_rfds)
        self._plan.attach()

    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The maintained instance (live; mutate via :meth:`insert`)."""
        return self._relation

    @property
    def rfds(self) -> list[RFD]:
        """The currently holding non-key dependencies."""
        return list(self._rfds)

    @property
    def key_rfds(self) -> list[RFD]:
        """The currently vacuous (key) dependencies."""
        return list(self._keys)

    @property
    def all_rfds(self) -> list[RFD]:
        """Keys and non-keys together."""
        return self._rfds + self._keys

    def insert(self, rows: Sequence[Sequence[Any]]) -> MaintenanceReport:
        """Append tuples and repair the dependency set incrementally."""
        new_rows = list(
            self._relation.append_rows(rows, error=DiscoveryError)
        )

        report = MaintenanceReport(inserted_tuples=len(rows))
        held = len(self._rfds)
        matched, worsts = self._new_pairs(self.all_rfds, new_rows)
        self._maintain_non_keys(worsts[:held], report)
        self._maintain_keys(matched[held:], worsts[held:], report)
        self._rfds = remove_dominated(self._rfds)
        return report

    # ------------------------------------------------------------------
    def _maintain_non_keys(
        self, worsts: list[float | None], report: MaintenanceReport
    ) -> None:
        survivors: list[RFD] = []
        for rfd, worst in zip(self._rfds, worsts):
            if worst is None or worst <= rfd.rhs_threshold:
                survivors.append(rfd)
                report.unchanged += 1
                continue
            if worst <= self.config.rhs_limit_for(rfd.rhs_attribute):
                loosened = RFD(
                    rfd.lhs, Constraint(rfd.rhs_attribute, worst)
                )
                survivors.append(loosened)
                report.loosened.append((rfd, loosened))
            else:
                report.dropped.append(rfd)
        self._rfds = survivors

    def _maintain_keys(
        self,
        matched: list[bool],
        worsts: list[float | None],
        report: MaintenanceReport,
    ) -> None:
        still_keys: list[RFD] = []
        for rfd, match, worst in zip(self._keys, matched, worsts):
            if not match:
                still_keys.append(rfd)
                continue
            # The key gained witnessing pairs; its RHS threshold comes
            # from them and it is kept if admissible.
            report.dekeyed.append(rfd)
            if worst is not None and worst <= self.config.rhs_limit_for(
                rfd.rhs_attribute
            ):
                self._rfds.append(
                    RFD(rfd.lhs, Constraint(rfd.rhs_attribute, worst))
                )
            elif worst is None:
                # LHS matches exist but no comparable RHS: holds with
                # its original (tight) threshold.
                self._rfds.append(rfd)
            else:
                report.dropped.append(rfd)
        self._keys = still_keys

    def _attribute_caps(self) -> dict[str, float]:
        """Per attribute: the loosest threshold any maintained
        constraint can ask about.

        Maintenance only ever needs a distance up to the tightest bound
        that still matters — an LHS constraint's threshold, or the
        configured RHS limit when deciding loosening — so the kernels
        clamp string distances there, exactly as the batch pattern
        matrix does.  A distance reported as ``cap + 1`` fails every
        constraint in play.
        """
        caps: dict[str, float] = {}
        for rfd in self._rfds + self._keys:
            for constraint in rfd.lhs:
                name = constraint.attribute
                caps[name] = max(
                    caps.get(name, 0.0), constraint.threshold
                )
            rhs = rfd.rhs_attribute
            caps[rhs] = max(
                caps.get(rhs, 0.0), self.config.rhs_limit_for(rhs)
            )
        return caps

    def _new_pairs(
        self, rfds: list[RFD], new_rows: list[int]
    ) -> tuple[list[bool], list[float | None]]:
        """Per RFD: whether a pair with a new tuple satisfies its LHS,
        and the largest comparable RHS distance over such pairs
        (``None`` when there is none).

        The plan answers each (new row, RFD) LHS question, and the RHS
        maximum runs over the non-``NaN`` distances of its rows (``NaN``
        — a missing side — is no comparable pair).  A pair of two new
        rows is seen from both ends; that cannot change a maximum or an
        any.
        """
        plan = self._plan
        plan.update_rfds(rfds)
        distances = DonorScanKernels(
            self._relation,
            string_limits=self._attribute_caps(),
            memo_pool=self._memo_pool,
        ).subset_vector
        matched = [False] * len(rfds)
        worsts: list[float | None] = [None] * len(rfds)
        with np.errstate(invalid="ignore"):
            for new_row in new_rows:
                for index, rfd in enumerate(rfds):
                    rows = plan.lhs_rows(new_row, rfd.lhs, distances)
                    if rows is None:
                        continue
                    matched[index] = True
                    rhs = distances(new_row, rfd.rhs_attribute, rows)
                    rhs = rhs[~np.isnan(rhs)]
                    if rhs.size:
                        top = float(rhs.max())
                        worst = worsts[index]
                        if worst is None or top > worst:
                            worsts[index] = top
        return matched, worsts
