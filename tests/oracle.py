"""Test-side RENUVER variants: the scalar oracle and forced blocking.

Production runs always scan donors with the columnar
:class:`~repro.core.donor_scan.VectorizedEngine`.  The equivalence,
rollback and chaos suites compare it against
:class:`~repro.core.donor_scan.ScalarEngine`, the closest transcription
of the paper's Algorithms 3 and 4; :class:`ScalarRenuver` is the one
way tests select it.

Production decides blocking from the relation size alone
(``AUTO_BLOCKING_MIN_TUPLES``).  :class:`BlockedRenuver` and
:class:`UnblockedRenuver` force the decision either way, so the
blocked-vs-unblocked suites compare both paths on small instances.
"""

from __future__ import annotations

from repro.core import Renuver
from repro.core.donor_scan import ScalarEngine
from repro.distance.pattern import PatternCalculator


class ScalarRenuver(Renuver):
    """A :class:`~repro.core.Renuver` whose runs use the scalar engine."""

    def _make_engine(self, relation) -> ScalarEngine:
        engine = ScalarEngine(
            PatternCalculator(relation, overrides=self._distance_overrides)
        )
        engine.set_telemetry(self.telemetry)
        return engine


class BlockedRenuver(Renuver):
    """A :class:`~repro.core.Renuver` whose runs probe a blocking-index
    plan at any relation size."""

    def _blocking_engages(self, relation) -> bool:
        return True


class UnblockedRenuver(Renuver):
    """A :class:`~repro.core.Renuver` whose runs scan full columns at
    any relation size."""

    def _blocking_engages(self, relation) -> bool:
        return False


def renuver_for(engine: str, *args, **kwargs) -> Renuver:
    """A :class:`Renuver` on the named path: ``"scalar"``,
    ``"vectorized"`` or ``"blocked"``."""
    cls = {
        "scalar": ScalarRenuver,
        "vectorized": Renuver,
        "blocked": BlockedRenuver,
    }[engine]
    return cls(*args, **kwargs)
