"""Configuration of the RFD discovery step.

The paper extracts its RFD sets with the dominance-based discovery
algorithm of Caruccio et al. (TKDE 2021), varying a *threshold limit* for
attribute comparisons over {3, 6, 9, 12, 15} (Section 6.1).  Our
re-implementation exposes the same limit plus the knobs that keep a
lattice search tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import DiscoveryError


@dataclass(frozen=True)
class DiscoveryConfig:
    """Parameters of :func:`repro.discovery.discover_rfds`.

    Attributes
    ----------
    threshold_limit:
        Maximum admissible RHS threshold — the paper's per-run limit
        (3/6/9/12/15).  Dependencies needing a looser RHS bound are not
        emitted.
    lhs_threshold_limit:
        Maximum LHS threshold; defaults to ``threshold_limit``.
    max_lhs_size:
        Largest LHS attribute-set size explored in the lattice.
    grid_size:
        Maximum number of candidate LHS thresholds per attribute
        (quantile-spaced over observed pair distances).
    include_keys:
        Also emit key RFDs (vacuously holding dependencies).  RENUVER
        filters them during pre-processing, but real discovery output
        contains them, so they default to on.
    max_pairs:
        Optional cap on the number of tuple pairs inspected; above it
        pairs are sampled (seeded), making discovery approximate.  Use
        for the large Physician instances.
    seed:
        Seed for pair sampling.
    min_support_pairs:
        Minimum number of LHS-matching pairs for a dependency to count
        as *supported* (non-key).  Dependencies with fewer matching
        pairs are treated as keys.
    max_per_rhs:
        Optional cap on the emitted non-key RFDs per RHS attribute,
        keeping the tightest (smallest RHS threshold, then smallest
        LHS) ones.  Pure efficiency knob for the Python benchmarks —
        the paper's Java implementation digests thousands of RFDs.
    attribute_limits:
        Optional per-attribute threshold caps overriding the global
        limits where tighter.  This realizes the paper's future-work
        item of "thresholds with an upper bound dependent on attribute
        domains and value distributions"; see
        :func:`repro.extensions.suggest_threshold_limits` for a
        data-driven way to obtain them.
    """

    threshold_limit: float = 3.0
    lhs_threshold_limit: float | None = None
    max_lhs_size: int = 2
    grid_size: int = 5
    include_keys: bool = True
    max_pairs: int | None = None
    seed: int = 0
    min_support_pairs: int = 1
    max_per_rhs: int | None = None
    attribute_limits: Mapping[str, float] | None = field(default=None)

    def __post_init__(self) -> None:
        # NaN passes every ``< 0`` check and ``min(limit, nan)`` ignores
        # it, so non-finite limits are rejected explicitly.
        if not _finite_nonnegative(self.threshold_limit):
            raise DiscoveryError(
                f"threshold_limit must be finite and >= 0, got "
                f"{self.threshold_limit!r}"
            )
        if self.lhs_threshold_limit is not None and not _finite_nonnegative(
            self.lhs_threshold_limit
        ):
            raise DiscoveryError(
                f"lhs_threshold_limit must be finite and >= 0, got "
                f"{self.lhs_threshold_limit!r}"
            )
        if self.max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be >= 1")
        if self.grid_size < 1:
            raise DiscoveryError("grid_size must be >= 1")
        if self.max_pairs is not None and self.max_pairs < 1:
            raise DiscoveryError("max_pairs must be >= 1 when given")
        if self.min_support_pairs < 1:
            raise DiscoveryError("min_support_pairs must be >= 1")
        if self.max_per_rhs is not None and self.max_per_rhs < 1:
            raise DiscoveryError("max_per_rhs must be >= 1 when given")
        if self.attribute_limits is not None:
            normalized = dict(self.attribute_limits)
            for attribute, limit in normalized.items():
                if not _finite_nonnegative(limit):
                    raise DiscoveryError(
                        f"attribute limit for {attribute!r} must be "
                        f"finite and >= 0, got {limit!r}"
                    )
            object.__setattr__(self, "attribute_limits", normalized)

    @property
    def effective_lhs_limit(self) -> float:
        """The global LHS threshold cap."""
        if self.lhs_threshold_limit is None:
            return self.threshold_limit
        return self.lhs_threshold_limit

    def lhs_limit_for(self, attribute: str) -> float:
        """LHS threshold cap for one attribute (per-attribute aware)."""
        limit = self.effective_lhs_limit
        if self.attribute_limits and attribute in self.attribute_limits:
            return min(limit, self.attribute_limits[attribute])
        return limit

    def rhs_limit_for(self, attribute: str) -> float:
        """RHS threshold cap for one attribute (per-attribute aware)."""
        limit = self.threshold_limit
        if self.attribute_limits and attribute in self.attribute_limits:
            return min(limit, self.attribute_limits[attribute])
        return limit


def _finite_nonnegative(limit: float) -> bool:
    return math.isfinite(limit) and limit >= 0
