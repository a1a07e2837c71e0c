"""Artificial missing-value injection (Section 6.1).

The paper evaluates by blanking a random percentage of cells and checking
whether imputation restores them: per missing rate it draws *five*
independently injected variants and averages the metrics.  The injection
here mirrors that protocol: the number of blanked cells is
``round(rate * n * m)`` (matching Table 3's counts, e.g. 1% of Restaurant
= 52 cells), drawn uniformly without replacement from the currently
present cells, seeded for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.exceptions import EvaluationError
from repro.utils.rng import spawn_rng


@dataclass
class InjectionResult:
    """An injected variant: the blanked copy plus the ground truth."""

    relation: Relation
    ground_truth: dict[tuple[int, str], Any]
    rate: float
    seed: int
    variant: int = 0

    @property
    def cells(self) -> list[tuple[int, str]]:
        """The blanked cell coordinates, sorted."""
        return sorted(self.ground_truth)

    @property
    def count(self) -> int:
        """Number of injected missing values."""
        return len(self.ground_truth)

    def restore(self) -> Relation:
        """A copy with the ground truth written back (for debugging)."""
        restored = self.relation.copy()
        for (row, attribute), value in self.ground_truth.items():
            restored.set_value(row, attribute, value)
        return restored


def missing_count_for_rate(relation: Relation, rate: float) -> int:
    """Cells to blank for a rate: ``round(rate * n * m)``, at least 1."""
    if not 0 < rate < 1:
        raise EvaluationError(f"rate must be in (0, 1), got {rate}")
    return max(1, round(rate * relation.n_tuples * relation.n_attributes))


def inject_missing(
    relation: Relation,
    *,
    rate: float | None = None,
    count: int | None = None,
    seed: int = 0,
    variant: int = 0,
    attributes: Sequence[str] | None = None,
) -> InjectionResult:
    """Blank ``count`` (or ``rate``-derived) random present cells.

    ``attributes`` restricts injection to some columns.  Raises
    :class:`~repro.exceptions.EvaluationError` when fewer present cells
    exist than requested.
    """
    if (rate is None) == (count is None):
        raise EvaluationError("provide exactly one of rate or count")
    if count is None:
        assert rate is not None
        count = missing_count_for_rate(relation, rate)
        effective_rate = rate
    else:
        if count < 1:
            raise EvaluationError("count must be >= 1")
        effective_rate = count / (relation.n_tuples * relation.n_attributes)

    allowed = (
        set(attributes) if attributes is not None
        else set(relation.attribute_names)
    )
    unknown = allowed - set(relation.attribute_names)
    if unknown:
        raise EvaluationError(f"unknown attributes {sorted(unknown)}")

    # Columns hold only the canonical MISSING, so one identity test per
    # cell finds the present ones.
    present = [
        (row, name)
        for name in relation.attribute_names
        if name in allowed
        for row, value in enumerate(relation.column(name))
        if value is not MISSING
    ]
    if count > len(present):
        raise EvaluationError(
            f"cannot blank {count} cells: only {len(present)} present"
        )
    rng = spawn_rng(seed, "inject", relation.name, variant, count)
    chosen = rng.sample(present, count)

    injected = relation.copy(name=f"{relation.name}@{effective_rate:.0%}")
    ground_truth: dict[tuple[int, str], Any] = {}
    for row, name in chosen:
        ground_truth[(row, name)] = relation.value(row, name)
        injected.set_value(row, name, MISSING)
    return InjectionResult(
        relation=injected,
        ground_truth=ground_truth,
        rate=effective_rate,
        seed=seed,
        variant=variant,
    )


@dataclass
class InjectionSuite:
    """The paper's injection protocol: ``variants`` blanked copies per
    missing rate."""

    variants_by_rate: dict[float, list[InjectionResult]] = field(
        default_factory=dict
    )

    def rates(self) -> list[float]:
        """The configured missing rates, sorted."""
        return sorted(self.variants_by_rate)

    def variants(self, rate: float) -> list[InjectionResult]:
        """The injected variants of one rate."""
        try:
            return self.variants_by_rate[rate]
        except KeyError:
            raise EvaluationError(f"no variants for rate {rate}") from None

    def __iter__(self):
        for rate in self.rates():
            for injection in self.variants_by_rate[rate]:
                yield injection


def build_injection_suite(
    relation: Relation,
    rates: Sequence[float],
    *,
    variants: int = 5,
    seed: int = 0,
    attributes: Sequence[str] | None = None,
) -> InjectionSuite:
    """Twenty-five-variant protocol of Section 6.1 (5 rates x 5 copies)."""
    if variants < 1:
        raise EvaluationError("variants must be >= 1")
    suite = InjectionSuite()
    for rate in rates:
        suite.variants_by_rate[float(rate)] = [
            inject_missing(
                relation,
                rate=rate,
                seed=seed,
                variant=variant,
                attributes=attributes,
            )
            for variant in range(variants)
        ]
    return suite
