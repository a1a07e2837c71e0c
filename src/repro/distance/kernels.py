"""Columnar one-vs-all distance kernels for the donor-scan engine.

The scalar imputation path evaluates distances pair-by-pair, building one
:class:`~repro.distance.pattern.DistancePattern` dict per tuple pair.
:class:`DonorScanKernels` instead answers the question the hot loops
actually ask — "how far is the target cell from *every* cell of this
column?" — with one numpy vector per (target row, attribute):

* numeric attributes: one vectorized ``|column - target|``,
* boolean attributes: the same over a 0/1 encoding,
* string attributes: a gather from one memo row per (attribute, target
  value) over the column's distinct-value codes; the memo's unknown
  cells are filled by one batched
  :func:`~repro.distance.levenshtein.levenshtein_bounded_many` call,
  clamped at the largest threshold any RFD applies to the attribute,
  behind a length-difference pre-filter (``|len(a) - len(b)| > limit``
  implies ``distance > limit``) that skips the kernel entirely for
  far-away donors.

Entries are ``NaN`` wherever either side of the pair is missing — the
vector analogue of the ``_`` entries of a distance pattern.

Vectors are cached per (target row, attribute).  Correctness across the
driver's tentative write / rollback cycle relies on the *dirty-cell
hook*: :meth:`attach` registers a mutation listener on the relation, and
every :meth:`~repro.dataset.relation.Relation.set_value` drops the cached
vectors of the written attribute and patches one code of the column
codec.  The string memo is keyed by value, not row, so it survives
writes.  Counters for vector builds, invalidations and the distances
settled by length blocking are exposed via :attr:`counters` for the
imputation report.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

import numpy as np

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING
from repro.dataset.relation import Relation
from repro.distance.base import DistanceFunction
from repro.distance.levenshtein import levenshtein_bounded_many
from repro.exceptions import SchemaError

#: String memo cells: not computed yet / the pair has a MISSING side.
#: ``_UNKNOWN`` is the smallest cell value, so one ``min`` over a
#: gather tells whether it needs a fill.
_UNKNOWN = -2
_ABSENT = -1


class _NumericCodec:
    """Float64 encoding of a numeric or boolean column (``NaN`` missing)."""

    __slots__ = ("codes", "_convert")

    def __init__(self, column: list[Any],
                 convert: Callable[[Any], float]) -> None:
        self._convert = convert
        self.codes = np.array(
            [math.nan if value is MISSING else convert(value)
             for value in column],
            dtype=np.float64,
        )

    def update(self, row: int, value: Any) -> None:
        self.codes[row] = (
            math.nan if value is MISSING else self._convert(value)
        )

    def present_mask(self) -> np.ndarray:
        return ~np.isnan(self.codes)

    def target_vector(self, target_row: int) -> np.ndarray:
        target = self.codes[target_row]
        if math.isnan(target):
            return np.full(self.codes.shape, np.nan)
        return np.abs(self.codes - target)


class _StringCodec:
    """String column as int codes into a grow-only list of its distinct
    rendered values, with a memo of clamped edit distances between them.

    ``codes[row]`` indexes :attr:`values` (``-1`` marks MISSING, and
    ``present`` is ``codes >= 0``) and ``lengths[code]`` is that value's
    length.  A write patches one code;
    a value never seen before is appended, so a code always names the
    same string and the memo, keyed by code, survives writes.

    The memo holds one row per target code.  Cell ``code`` is the edit
    distance from the target to ``values[code]``, clamped at
    ``limit + 1``, or ``_UNKNOWN`` until computed.  One extra last cell
    holds ``_ABSENT``, so a gather through a MISSING code (``-1``)
    reads it.  The clamp bounds every cell, so the smallest signed
    integer type holding ``-(limit + 2)`` holds them exactly (int8 for
    the thresholds RFDs use); without a limit, int32.  ``_decode`` maps
    a cell value to its float distance, and ``_ABSENT`` (index ``-1``)
    to ``NaN``.
    """

    __slots__ = (
        "codes", "present", "values", "lengths", "limit", "hits",
        "computed", "blocked", "_index", "_memo", "_dtype", "_decode",
    )

    def __init__(self, column: list[Any], limit: int | None) -> None:
        self.values: list[str] = []
        self._index: dict[str, int] = {}
        self.codes = np.array(
            [self._intern(value) for value in column], dtype=np.int64
        )
        self.present = self.codes >= 0
        self.lengths = np.fromiter(
            map(len, self.values), dtype=np.int64, count=len(self.values)
        )
        self.limit = limit
        self.hits = 0
        self.computed = 0
        self.blocked = 0
        self._memo: dict[int, np.ndarray] = {}
        self._dtype = (
            np.int32 if limit is None else np.min_scalar_type(-limit - 2)
        )
        self._decode = np.array([0.0, np.nan, np.nan])

    def _intern(self, value: Any) -> int:
        if value is MISSING:
            return -1
        text = str(value)
        code = self._index.get(text)
        if code is None:
            code = self._index[text] = len(self.values)
            self.values.append(text)
        return code

    def update(self, row: int, value: Any) -> None:
        known = len(self.values)
        self.codes[row] = self._intern(value)
        self.present[row] = value is not MISSING
        if len(self.values) > known:
            self.lengths = np.append(self.lengths, len(self.values[-1]))

    def gather(self, target_row: int, codes: np.ndarray) -> np.ndarray:
        """Distances from the value at ``target_row`` to the cells whose
        codes are ``codes`` (``NaN`` where a side is missing): one read
        of the target's memo row, filling only the cells it lacks."""
        target = int(self.codes[target_row])
        if target < 0:
            return np.full(codes.shape, np.nan)
        row = self._memo.get(target)
        if row is None or row.size <= len(self.values):
            row = self._grow(target, row)
        found = row[codes]
        if found.size and found.min() == _UNKNOWN:
            unknown = found == _UNKNOWN
            self._fill(target, row, np.unique(codes[unknown]))
            found = row[codes]
            self.hits -= int(np.count_nonzero(unknown))
        self.hits += found.size
        return self._decode[found]

    def _grow(self, target: int, row: np.ndarray | None) -> np.ndarray:
        """The target's memo row, sized to the distinct values.  A new
        row starts with the target's distance to itself, zero."""
        grown = np.full(len(self.values) + 1, _UNKNOWN, dtype=self._dtype)
        if row is None:
            grown[target] = 0
        else:
            grown[:row.size - 1] = row[:-1]
        grown[-1] = _ABSENT
        self._memo[target] = grown
        return grown

    def _fill(self, target: int, row: np.ndarray, need: np.ndarray) -> None:
        """Memoize the distances from ``values[target]`` to the values
        of the distinct codes ``need``.

        Codes too far in length are settled at ``limit + 1`` without a
        kernel call; the rest go through one batched call.  Without a
        limit the longest string is the clamp, which no distance
        exceeds: the result is exact.
        """
        lengths = self.lengths[need]
        target_length = self.lengths[target]
        limit = self.limit
        if limit is None:
            limit = int(max(target_length, lengths.max()))
        far = np.abs(lengths - target_length) > limit
        row[need[far]] = limit + 1
        near = need[~far]
        if near.size:
            values = self.values
            row[near] = levenshtein_bounded_many(
                [values[target]] * near.size,
                [values[code] for code in near],
                limit,
            )
        self.computed += near.size
        self.blocked += need.size - near.size
        top = int(row[need].max())
        if top > self._decode.size - 3:
            self._decode = np.append(
                np.arange(top + 1, dtype=np.float64), [np.nan, np.nan]
            )


class _GenericCodec:
    """Fallback for attributes with overridden distance functions.

    Still produces a one-vs-all vector (so the engine code stays uniform)
    but computes each entry through the bound
    :class:`~repro.distance.base.DistanceFunction`, preserving whatever
    semantics the override implements.
    """

    __slots__ = ("column", "function")

    def __init__(self, column: list[Any], function: DistanceFunction) -> None:
        self.column = column  # live reference; Relation mutates in place
        self.function = function

    def update(self, row: int, value: Any) -> None:
        pass  # the live column reference already reflects the write

    def present_mask(self) -> np.ndarray:
        return np.array(
            [value is not MISSING for value in self.column], dtype=bool
        )

    def target_vector(self, target_row: int) -> np.ndarray:
        out = np.full(len(self.column), np.nan)
        target = self.column[target_row]
        if target is MISSING:
            return out
        function = self.function
        for row, value in enumerate(self.column):
            if value is not MISSING:
                out[row] = function(target, value)
        return out


class DonorScanKernels:
    """One-vs-all distance vectors over one relation, cached and
    invalidated through the relation's dirty-cell hook.

    Parameters
    ----------
    relation:
        The instance the vectors read from.
    string_limits:
        Per-attribute clamp for string distances: the largest threshold
        any RFD constrains the attribute with.  Distances above the limit
        are stored as ``limit + 1`` — exact for every comparison the
        engine performs, and the enabler of length blocking.  Attributes
        absent from the mapping get exact distances.
    overrides:
        Distance functions for attributes that must not use the paper's
        default kernels; these take the generic per-row path.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        string_limits: Mapping[str, float] | None = None,
        overrides: Mapping[str, DistanceFunction] | None = None,
    ) -> None:
        self._relation = relation
        self._overrides = dict(overrides or {})
        unknown = set(self._overrides) - set(relation.attribute_names)
        if unknown:
            raise SchemaError(
                f"kernel overrides for unknown attributes {sorted(unknown)}"
            )
        self._string_limits: dict[str, int] = {
            name: int(math.ceil(float(limit)))
            for name, limit in (string_limits or {}).items()
        }
        self._codecs: dict[str, Any] = {}
        self._vectors: dict[str, dict[int, np.ndarray]] = {}
        self._attached = False
        self.vector_builds = 0
        self.vector_cache_hits = 0
        self.invalidations = 0
        self.subset_builds = 0

    # ------------------------------------------------------------------
    # Dirty-cell hook
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Register the dirty-cell hook on the relation."""
        if not self._attached:
            self._relation.add_mutation_listener(self._on_set_value)
            self._attached = True

    def close(self) -> None:
        """Unregister the dirty-cell hook (idempotent)."""
        if self._attached:
            self._relation.remove_mutation_listener(self._on_set_value)
            self._attached = False

    def _on_set_value(self, row: int, name: str, value: Any) -> None:
        vectors = self._vectors.get(name)
        if vectors:
            vectors.clear()
            self.invalidations += 1
        codec = self._codecs.get(name)
        if codec is not None:
            codec.update(row, value)

    # ------------------------------------------------------------------
    # Kernel evaluation
    # ------------------------------------------------------------------
    def vector(self, target_row: int, name: str) -> np.ndarray:
        """Distances from cell ``(target_row, name)`` to the whole column.

        ``NaN`` marks pairs where either side is missing (including the
        whole vector when the target cell itself is missing).  The entry
        at ``target_row`` is the self-distance; callers mask it out.
        Cached per (target row, attribute) until the column is written.
        """
        cache = self._vectors.setdefault(name, {})
        vector = cache.get(target_row)
        if vector is not None:
            self.vector_cache_hits += 1
            return vector
        codec = self._codec(name)
        if isinstance(codec, _StringCodec):
            vector = codec.gather(target_row, codec.codes)
        else:
            vector = codec.target_vector(target_row)
        self.vector_builds += 1
        cache[target_row] = vector
        return vector

    def subset_vector(
        self, target_row: int, name: str, rows: np.ndarray
    ) -> np.ndarray:
        """Distances from cell ``(target_row, name)`` to ``rows`` only.

        The narrow sibling of :meth:`vector`: entry ``i`` equals
        ``vector(target_row, name)[rows[i]]`` bit for bit (one gather,
        same clamps, same memo, same float operations per element), but
        only the requested rows are ever touched.  The vectorized engine
        confirms LHS constraints on index-probed rows with it, and reads
        every Equation-2 score and RHS check through it.  Results are
        not cached: the row sets change per RFD, and the string memo
        already absorbs the expensive part.
        """
        self.subset_builds += 1
        codec = self._codec(name)
        if isinstance(codec, _StringCodec):
            return codec.gather(target_row, codec.codes[rows])
        if isinstance(codec, _NumericCodec):
            target = codec.codes[target_row]
            if math.isnan(target):
                return np.full(rows.shape, np.nan)
            return np.abs(codec.codes[rows] - target)
        out = np.full(rows.shape, np.nan)
        target = codec.column[target_row]
        if target is MISSING:
            return out
        function = codec.function
        for position, row in enumerate(rows):
            value = codec.column[row]
            if value is not MISSING:
                out[position] = function(target, value)
        return out

    def present_mask(self, name: str) -> np.ndarray:
        """Boolean mask of rows with a present value on ``name``.

        The returned array may be shared internal state on some paths;
        callers must not mutate it.
        """
        codec = self._codec(name)
        if isinstance(codec, _StringCodec):
            return codec.present
        return codec.present_mask()

    def clear_target_vectors(self) -> None:
        """Drop every cached vector (cell-lifetime boundary)."""
        for cache in self._vectors.values():
            cache.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        """Kernel counters for the imputation report."""
        strings = self._string_codecs()
        return {
            "vector_builds": self.vector_builds,
            "vector_cache_hits": self.vector_cache_hits,
            "invalidations": self.invalidations,
            "subset_builds": self.subset_builds,
            "levenshtein_dp_calls": sum(
                codec.computed for codec in strings.values()
            ),
            "levenshtein_dp_blocked": sum(
                codec.blocked for codec in strings.values()
            ),
        }

    def cache_report(self) -> dict[str, tuple[int, int, int]]:
        """Per-attribute ``(hits, misses, size)`` of the string memos —
        the kernel counterpart of ``PatternCalculator.cache_report``.

        ``hits`` counts the gathered cells the memo already held (a
        MISSING side reads the sentinel cell), ``misses`` the distances
        the edit-distance kernel computed and ``size`` the memo cells
        filled: the computed ones, those settled at ``limit + 1`` by the
        length filter and each row's zero distance to its own target.
        """
        return {
            name: (codec.hits, codec.computed,
                   codec.computed + codec.blocked + len(codec._memo))
            for name, codec in self._string_codecs().items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _codec(self, name: str) -> Any:
        codec = self._codecs.get(name)
        if codec is not None:
            return codec
        attribute = self._relation.attribute(name)  # raises on unknown
        column = self._relation._columns[name]  # noqa: SLF001 - same package
        if name in self._overrides:
            codec = _GenericCodec(column, self._overrides[name])
        elif attribute.type.is_numeric:
            codec = _NumericCodec(column, float)
        elif attribute.type is AttributeType.BOOLEAN:
            codec = _NumericCodec(column, lambda value: float(bool(value)))
        else:
            codec = _StringCodec(column, self._string_limits.get(name))
        self._codecs[name] = codec
        return codec

    def _string_codecs(self) -> dict[str, _StringCodec]:
        return {
            name: codec for name, codec in self._codecs.items()
            if isinstance(codec, _StringCodec)
        }
