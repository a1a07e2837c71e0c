"""Test-side RENUVER variant: the scalar oracle.

Production runs always scan donors with the columnar
:class:`~repro.core.donor_scan.VectorizedEngine`, which answers every
LHS question through its blocking-index plan.  The equivalence,
rollback and chaos suites compare it against
:class:`~repro.core.donor_scan.ScalarEngine`, the closest transcription
of the paper's Algorithms 3 and 4; :class:`ScalarRenuver` is the one
way tests select it.
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


def renuver_for(engine: str, *args, **kwargs) -> Renuver:
    """A :class:`Renuver` on the named path: ``"scalar"`` or
    ``"vectorized"``."""
    cls = {"scalar": ScalarRenuver, "vectorized": Renuver}[engine]
    return cls(*args, **kwargs)
