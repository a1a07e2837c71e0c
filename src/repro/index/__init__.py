"""Blocking indexes for sub-linear donor retrieval.

RENUVER's donor scans compare the target tuple against *every* other
tuple.  This package turns their threshold comparisons
(``distance(t[A], u[A]) <= tau``) into index probes — pruning only
pairs the RFD thresholds already reject, so the imputation outcomes
stay bit-identical to the all-pairs scan of the scalar oracle.  Every
constraint is answered exactly, from the distinct values within
``tau`` (matched once per value and threshold, each confirmed through
the engine's own distance kernel).

Three per-attribute index kinds share the rows-per-value bookkeeping
of :class:`~repro.index.base.ValueIndex`, keyed by the codes of the
relation's encoding of the column (:mod:`repro.dataset.encoding`):

* :class:`~repro.index.numeric.NumericWindowIndex` — the live codes
  sorted by their floats; ``|x - v| <= tau`` becomes one bisect window,
* :class:`~repro.index.strings.QGramIndex` — length buckets plus a
  q-gram inverted index; banded Levenshtein becomes a length filter
  plus a multiset count filter over shared grams,
* :class:`~repro.index.exact.ExactMatchIndex` — the probe value's own
  code, for attributes only ever probed at ``tau = 0``.

:class:`~repro.index.plan.IndexPlan` composes them per RFD: probe every
LHS attribute, intersect the results, and leave for the engine to
confirm every constraint an attribute cannot serve (counted, never
wrong) — including the ``max_group_size`` anchor cap on pathological
hot values.  Every imputation run's engine answers its LHS questions
through a plan, at every relation size.  Indexes follow the relation's
writes through its ``set_value`` mutation hook, so
service sessions and pipeline INCR runs reuse them across rounds.  See
``docs/INDEXING.md``.
"""

from repro.index.base import EMPTY_ROWS, IndexStats, ValueIndex
from repro.index.exact import ExactMatchIndex
from repro.index.numeric import NumericWindowIndex
from repro.index.plan import IndexPlan
from repro.index.strings import QGramIndex

__all__ = [
    "EMPTY_ROWS",
    "ExactMatchIndex",
    "IndexPlan",
    "IndexStats",
    "NumericWindowIndex",
    "QGramIndex",
    "ValueIndex",
]
