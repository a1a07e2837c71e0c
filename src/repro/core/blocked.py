"""Old import path of the donor-scan cell scan, kept for the benchmark.

Blocking is now an optional index plan inside
:class:`~repro.core.donor_scan.VectorizedEngine`.  ``perfbench/spans.py``
still times ``core.candidates`` through this name; it aliases the one
cell scan, so both span entries wrap the same function and the work is
timed once.  Delete it together with that entry.
"""

from repro.core.donor_scan import (  # noqa: F401 - benchmark alias
    _VectorizedCellScan as _BlockedCellScan,
)
