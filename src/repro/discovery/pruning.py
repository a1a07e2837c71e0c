"""Dominance pruning of discovered RFD sets.

An RFD ``phi1`` *dominates* ``phi2`` (same RHS attribute) when it is at
least as useful everywhere:

* ``LHS(phi1) subseteq LHS(phi2)`` — it needs fewer attributes,
* every shared LHS threshold of ``phi1`` is >= the one in ``phi2`` —
  its LHS is easier to satisfy (matches at least the same pairs),
* ``RHS_th(phi1) <= RHS_th(phi2)`` — its conclusion is at least as tight.

A dominated RFD can never produce a candidate (or detect a violation)
that its dominator would not, so dropping it shrinks ``Sigma`` without
changing RENUVER's behaviour.  This mirrors the minimality notion of the
dominance-based discovery algorithm the paper relies on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.rfd.rfd import RFD


def dominates(first: RFD, second: RFD) -> bool:
    """Whether ``first`` dominates ``second`` (see module docstring).

    Equal RFDs dominate each other; callers handle deduplication.
    """
    if first.rhs_attribute != second.rhs_attribute:
        return False
    if first.rhs_threshold > second.rhs_threshold:
        return False
    first_attrs = set(first.lhs_attributes)
    second_attrs = set(second.lhs_attributes)
    if not first_attrs <= second_attrs:
        return False
    return all(
        first.lhs_constraint(name).threshold
        >= second.lhs_constraint(name).threshold
        for name in first_attrs
    )


def remove_dominated(rfds: Iterable[RFD]) -> list[RFD]:
    """Deduplicate and drop every RFD dominated by another one.

    Each RHS group is one vectorized comparison: LHS presence and
    thresholds become ``(attributes, group)`` arrays and every candidate
    is checked against the whole group at once, in blocks of
    ``_BLOCK`` candidates so memory stays linear in the group size.

    Two RFDs dominate each other only when they are equal, and
    deduplication keeps the first of equal RFDs, so the keep-first rule
    for mutual dominance needs no check beyond "nothing dominates
    itself".
    """
    by_rhs: dict[str, list[RFD]] = {}
    for rfd in dict.fromkeys(rfds):  # dedupe, keep order
        by_rhs.setdefault(rfd.rhs_attribute, []).append(rfd)
    kept: list[RFD] = []
    for group in by_rhs.values():
        kept.extend(
            rfd for rfd, keep in zip(group, _undominated(group)) if keep
        )
    return kept


#: Candidates compared against their whole group per numpy pass.
_BLOCK = 256


def _undominated(group: Sequence[RFD]) -> np.ndarray:
    """Mask of the RFDs of one RHS group that no other one dominates."""
    attributes = sorted({name for rfd in group for name in rfd.lhs_attributes})
    column = {name: index for index, name in enumerate(attributes)}
    size = len(group)
    present = np.zeros((len(attributes), size), dtype=bool)
    lhs = np.zeros((len(attributes), size))
    rhs = np.empty(size)
    for position, rfd in enumerate(group):
        for constraint in rfd.lhs:
            present[column[constraint.attribute], position] = True
            lhs[column[constraint.attribute], position] = constraint.threshold
        rhs[position] = rfd.rhs_threshold
    order = np.arange(size)
    keep = np.empty(size, dtype=bool)
    for start in range(0, size, _BLOCK):
        block = slice(start, start + _BLOCK)
        # dominated[i, j]: group[i] dominates candidate j of the block.
        dominated = rhs[:, None] <= rhs[None, block]
        for row in range(len(attributes)):
            dominated &= ~present[row][:, None] | (
                present[row, block][None, :]
                & (lhs[row][:, None] >= lhs[row, block][None, :])
            )
        dominated &= order[:, None] != order[None, block]
        keep[block] = ~dominated.any(axis=0)
    return keep
