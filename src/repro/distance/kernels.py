"""Columnar one-vs-all distance kernels for the donor-scan engine.

The scalar reference engine evaluates distances pair-by-pair, building one
:class:`~repro.distance.pattern.DistancePattern` dict per tuple pair.
:class:`DonorScanKernels` instead answers the question the hot loops
actually ask — "how far is the target cell from these rows of this
column?" — with one numpy vector per call, read through the relation's
live dictionary encoding of the column (:mod:`repro.dataset.encoding`),
which the relation keeps current:

* numeric and boolean attributes: one vectorized ``|x - target|`` over
  the floats of the column's codes,
* string attributes: a gather from one memo row per (attribute, target
  value), through one array mapping the relation's codes to memo codes,
  so each distinct value is interned once; the memo's unknown cells are
  filled by one batched
  :func:`~repro.distance.levenshtein.levenshtein_bounded_many` call,
  clamped at the largest threshold any RFD applies to the attribute,
  behind a length-difference pre-filter (``|len(a) - len(b)| > limit``
  implies ``distance > limit``) that skips the kernel for far-away
  donors.

Entries are ``NaN`` wherever either side of the pair is missing — the
vector analogue of the ``_`` entries of a distance pattern.  No vector
is kept: every call reads the encoding as it stands, so an imputation's
tentative writes and rollbacks are seen at once, and the kernels need
no mutation listener.

The memo — distinct values, their lengths, the per-target memo rows
and the decode table — is keyed by value, so it survives writes and
serves any relation.  A :class:`DistanceMemoPool` hands out one memo
per (attribute, clamp limit) and lives as long as its owner: a service
engine across its requests and sessions, a library session across its
rounds, or, for kernels built without a pool, the run.  Sharing saves
work only where a run compares values an earlier run of the same owner
compared; every growth that takes the pool past
:data:`MEMO_POOL_BYTES` forgets its least recently used memos, and a run
is handed a fresh memo rather than one whose rows would be far wider
than its own column.  A memo cell is the same clamped distance whoever
filled it, so neither sharing nor forgetting changes an answer.
:attr:`DonorScanKernels.counters` and :meth:`~DonorScanKernels.cache_report`
count the current run's work only.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Mapping

import numpy as np

from repro.dataset.encoding import ColumnEncoding
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

#: Byte budget of one :class:`DistanceMemoPool`: every memo growth
#: that takes the pool past it forgets memos until it is back within.
#: A service's working set is far smaller (docs/SERVICE.md measures
#: under 1 MiB); the budget bounds what a long-lived owner keeps over
#: many distinct instances.
MEMO_POOL_BYTES = 32 * 2**20

#: A memo row has one cell per value the memo holds, so a memo that has
#: interned many more values than a run's column has rows would make
#: that run pay for every earlier instance.  A run over ``n`` rows is
#: handed a fresh memo instead once the shared one holds more than
#: ``max(_CELLS_PER_ROW * n, _MIN_ROW_CELLS)`` values: an int8 memo row
#: then never costs more than one float64 distance vector over the
#: column, or 1 KiB.  The floor keeps a run over a handful of rows from
#: replacing a memo that larger runs share.
_CELLS_PER_ROW = 8
_MIN_ROW_CELLS = 2**10

#: Per interned value, beyond the string object itself: its list slot
#: and its index entry (an estimate, for the byte budget).
_ENTRY_BYTES = 100


def _float_distances(
    encoding: ColumnEncoding, target_row: int, rows: np.ndarray | None
) -> np.ndarray:
    """``|x - v|`` from the value at ``target_row`` to ``rows`` (the whole
    column when ``None``) of a numeric or boolean column, read from the
    floats of the column's codes; ``NaN`` where a side is missing."""
    codes = encoding.codes
    floats = encoding.floats
    values = floats[codes if rows is None else codes[rows]]
    target = floats[codes[target_row]]
    if math.isnan(target):
        return np.full(values.shape, np.nan)
    return np.abs(values - target)


class _ValueMemo:
    """Clamped edit distances between the distinct values one string
    attribute has shown, under one clamp limit.

    Nothing here depends on a relation: :attr:`values` is a grow-only
    list of rendered values, so a code (an index into it) always names
    the same string, and ``lengths[code]`` is its length.

    :attr:`rows` holds one memo row per target code.  Cell ``code`` is
    the edit distance from the target to ``values[code]``, clamped at
    ``limit + 1``, or ``_UNKNOWN`` until computed.  One extra last cell
    holds ``_ABSENT``, so a gather through a MISSING code (``-1``)
    reads it.  The clamp bounds every cell, so the smallest signed
    integer type holding ``-(limit + 2)`` holds them exactly (int8 for
    the thresholds RFDs use); without a limit, int32.  :attr:`decode`
    maps a cell value to its float distance, and ``_ABSENT`` (index
    ``-1``) to ``NaN``.

    Writes (interning, growing a row, writing filled cells) hold the
    memo's lock; a gather, and :meth:`fill`'s edit-distance kernel call,
    run without it.  That is safe because cells only ever go from
    ``_UNKNOWN`` to their final value, a grown row is a new array
    holding every cell of the old one, and :meth:`fill` widens the
    decode table before it writes the cells that need the wider table.
    :attr:`nbytes` tracks what the memo holds; ``grown`` is called after
    every write that adds to it, so the pool can keep its byte budget.
    """

    __slots__ = (
        "limit", "values", "lengths", "rows", "decode", "nbytes",
        "_index", "_dtype", "_lock", "_grown",
    )

    def __init__(
        self, limit: int | None, grown: Callable[[], None]
    ) -> None:
        self.limit = limit
        self.values: list[str] = []
        self._index: dict[str, int] = {}
        self.lengths = np.zeros(0, dtype=np.int64)
        self.rows: dict[int, np.ndarray] = {}
        self.decode = np.array([0.0, np.nan, np.nan])
        self.nbytes = 0
        self._dtype = (
            np.int32 if limit is None else np.min_scalar_type(-limit - 2)
        )
        self._lock = threading.Lock()
        self._grown = grown

    def intern(self, values: list[Any]) -> np.ndarray:
        """The codes of ``values`` (none of them MISSING), interning
        those never seen before."""
        with self._lock:
            known = len(self.values)
            codes = np.fromiter(
                map(self._intern, values), dtype=np.int64, count=len(values)
            )
            self._measure(known)
        self._grown()
        return codes

    def _intern(self, value: Any) -> int:
        text = str(value)
        code = self._index.get(text)
        if code is None:
            code = self._index[text] = len(self.values)
            self.values.append(text)
        return code

    def _measure(self, known: int) -> None:
        """Record the lengths of the values interned past ``known``.

        The lengths array grows by doubling, so a run of single new
        values costs amortized constant time, not a copy each.
        """
        count = len(self.values)
        if count == known:
            return
        lengths = self.lengths
        if count > lengths.size:
            lengths = np.zeros(max(count, 2 * lengths.size), np.int64)
            lengths[:known] = self.lengths[:known]
        new = self.values[known:]
        lengths[known:count] = np.fromiter(
            map(len, new), dtype=np.int64, count=count - known
        )
        self.nbytes += (
            lengths.nbytes - self.lengths.nbytes
            + sum(map(sys.getsizeof, new)) + _ENTRY_BYTES * len(new)
        )
        self.lengths = lengths

    def row(self, target: int, size: int) -> tuple[np.ndarray, bool]:
        """The target's memo row with more than ``size`` cells, and
        whether this call made it.

        The row is sized to the distinct values; a new one starts with
        the target's distance to itself, zero.
        """
        with self._lock:
            row = self.rows.get(target)
            if row is not None and row.size > size:
                return row, False
            grown = np.full(
                len(self.values) + 1, _UNKNOWN, dtype=self._dtype
            )
            if row is None:
                grown[target] = 0
            else:
                grown[:row.size - 1] = row[:-1]
                self.nbytes -= row.nbytes
            grown[-1] = _ABSENT
            self.rows[target] = grown
            self.nbytes += grown.nbytes
        self._grown()
        return grown, row is None

    def fill(
        self, target: int, row: np.ndarray, need: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Memoize the distances from ``values[target]`` to the values
        of the distinct codes ``need``, given the target's memo ``row``
        as last read; returns the target's current row and how many
        distances the kernel computed and the length filter settled.

        Cells the row already holds are skipped.  Codes too far in
        length are settled at ``limit + 1`` without a kernel call; the
        rest go through one batched call, outside the lock, so runs
        filling the same attribute compute side by side (two of them
        may compute one cell twice, and write the same distance).
        Without a limit the longest string is the clamp, which no
        distance exceeds: the result is exact.
        """
        need = need[row[need] == _UNKNOWN]
        if not need.size:
            return row, 0, 0
        lengths = self.lengths
        target_length = lengths[target]
        lengths = lengths[need]
        limit = self.limit
        if limit is None:
            limit = int(max(target_length, lengths.max()))
        far = np.abs(lengths - target_length) > limit
        near = need[~far]
        top = limit + 1 if far.any() else 0
        if near.size:
            values = self.values
            distances = levenshtein_bounded_many(
                [values[target]] * near.size,
                [values[code] for code in near],
                limit,
            )
            top = max(top, int(distances.max()))
        with self._lock:
            if top > self.decode.size - 3:
                self.decode = np.append(
                    np.arange(top + 1, dtype=np.float64), [np.nan, np.nan]
                )
            row = self.rows[target]
            row[need[far]] = limit + 1
            if near.size:
                row[near] = distances
        return row, int(near.size), int(need.size - near.size)


class DistanceMemoPool:
    """The string-distance memos of one owner, one per (attribute,
    clamp limit), under one byte budget.

    An owner is whatever outlives a single run and wants the edit
    distances of its earlier runs: a service engine across its requests
    and sessions, or one library session across its rounds.  A
    :class:`DonorScanKernels` built without a pool makes a private one,
    so its memo lives exactly as long as the run.

    A memo answers the same distances whoever filled it, so sharing one
    never changes an answer.  Two rules bound what sharing costs:

    * a run whose column has ``n`` rows gets a fresh memo instead of one
      holding more than ``max(_CELLS_PER_ROW * n, _MIN_ROW_CELLS)``
      values, so its memo rows stay within a constant factor of its own
      relation, however many instances the pool has seen;
    * whenever a memo grows and the memos together hold more than
      :data:`MEMO_POOL_BYTES`, the pool forgets the least recently
      handed-out ones (the growing one too, if need be) until they fit.

    A run already holding a forgotten or replaced memo keeps using it
    until the run ends; the next run starts a fresh one.
    """

    def __init__(self) -> None:
        self._memos: OrderedDict[tuple[str, int | None], _ValueMemo] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def memo(
        self, attribute: str, limit: int | None, rows: int
    ) -> _ValueMemo:
        """The memo for ``attribute`` under clamp ``limit``, for a run
        over a column of ``rows`` rows."""
        key = (attribute, limit)
        cap = max(_CELLS_PER_ROW * rows, _MIN_ROW_CELLS)
        with self._lock:
            memos = self._memos
            memo = memos.get(key)
            if memo is None or len(memo.values) > cap:
                memo = memos[key] = _ValueMemo(limit, self._fit)
            memos.move_to_end(key)
            return memo

    def _fit(self) -> None:
        """Forget the least recently handed-out memos until the pool is
        within :data:`MEMO_POOL_BYTES`."""
        if self.nbytes <= MEMO_POOL_BYTES:
            return
        with self._lock:
            memos = self._memos
            total = self.nbytes
            while memos and total > MEMO_POOL_BYTES:
                total -= memos.popitem(last=False)[1].nbytes

    @property
    def nbytes(self) -> int:
        """The bytes the pool's memos hold now (an estimate: array
        sizes plus the interned strings and their index entries)."""
        return sum(memo.nbytes for memo in list(self._memos.values()))


class _StringCodec:
    """String column as the relation's codes, mapped to its attribute's
    value memo.

    ``to_memo[code]`` is the memo code of the relation's value
    ``code``; its last cell is ``-1``, so a MISSING row reads the memo's
    absent cell.  A gather first maps the codes the relation gained
    since the last one, interning each new value once.  ``known``
    bounds the mapped memo codes: a memo row must hold more cells than
    that before a gather reads it.

    The counters are this run's work only, however long the memo
    lives: ``hits`` gathered cells the memo already held, ``computed``
    and ``blocked`` the cells this run filled by the kernel and by the
    length filter, ``rows_made`` the memo rows this run created.
    """

    __slots__ = (
        "encoding", "memo", "to_memo", "known", "hits", "computed",
        "blocked", "rows_made",
    )

    def __init__(self, encoding: ColumnEncoding, memo: _ValueMemo) -> None:
        self.encoding = encoding
        self.memo = memo
        self.to_memo = np.full(1, -1, dtype=np.int64)
        self.known = 0
        self.hits = 0
        self.computed = 0
        self.blocked = 0
        self.rows_made = 0

    def _map_new_codes(self) -> None:
        mapped = self.to_memo[:-1]
        codes = self.memo.intern(self.encoding.values[mapped.size:])
        self.to_memo = np.concatenate((mapped, codes, [-1]))
        if codes.size:
            self.known = max(self.known, int(codes.max()) + 1)

    def gather(
        self, target_row: int, rows: np.ndarray | None
    ) -> np.ndarray:
        """Distances from the value at ``target_row`` to ``rows`` (the
        whole column when ``None``; ``NaN`` where a side is missing):
        one read of the target's memo row, filling only the cells it
        lacks."""
        encoding = self.encoding
        if self.to_memo.size <= len(encoding.values):
            self._map_new_codes()
        to_memo = self.to_memo
        relation_codes = encoding.codes
        codes = to_memo[
            relation_codes if rows is None else relation_codes[rows]
        ]
        target = int(to_memo[relation_codes[target_row]])
        if target < 0:
            return np.full(codes.shape, np.nan)
        memo = self.memo
        row = memo.rows.get(target)
        if row is None or row.size <= self.known:
            row, made = memo.row(target, self.known)
            self.rows_made += made
        found = row[codes]
        if found.size and found.min() == _UNKNOWN:
            unknown = found == _UNKNOWN
            row, computed, blocked = memo.fill(
                target, row, np.unique(codes[unknown])
            )
            self.computed += computed
            self.blocked += blocked
            found = row[codes]
            self.hits -= int(np.count_nonzero(unknown))
        self.hits += found.size
        return memo.decode[found]


def _override_distances(
    relation: Relation,
    name: str,
    function: DistanceFunction,
    target_row: int,
    rows: np.ndarray | None,
) -> np.ndarray:
    """Distances under an overridden ``function`` from the value at
    ``target_row`` to ``rows`` (the whole column when ``None``), one
    call per present pair on the cells as stored, so the override keeps
    whatever semantics it implements; ``NaN`` where a side is missing."""
    values = (
        relation.column(name) if rows is None
        else [relation.value(row, name) for row in rows.tolist()]
    )
    out = np.full(len(values), np.nan)
    target = relation.value(target_row, name)
    if target is not MISSING:
        for position, value in enumerate(values):
            if value is not MISSING:
                out[position] = function(target, value)
    return out


class DonorScanKernels:
    """One-vs-all distance vectors over one relation's live encoding.

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
    memo_pool:
        The :class:`DistanceMemoPool` the string memos come from: the
        owner's, so this run starts from the distances earlier runs
        computed.  Without one the kernels make a private pool, whose
        memos end with the run.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        string_limits: Mapping[str, float] | None = None,
        overrides: Mapping[str, DistanceFunction] | None = None,
        memo_pool: DistanceMemoPool | None = None,
    ) -> None:
        self._relation = relation
        self._pool = DistanceMemoPool() if memo_pool is None else memo_pool
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
        #: Per attribute: the distances from a target row to some rows
        #: (all of them for ``None``); the string codecs, for counters.
        self._gathers: dict[
            str, Callable[[int, np.ndarray | None], np.ndarray]
        ] = {}
        self._strings: dict[str, _StringCodec] = {}
        self.subset_builds = 0

    # ------------------------------------------------------------------
    # Kernel evaluation
    # ------------------------------------------------------------------
    def vector(self, target_row: int, name: str) -> np.ndarray:
        """Distances from cell ``(target_row, name)`` to the whole column.

        ``NaN`` marks pairs where either side is missing (including the
        whole vector when the target cell itself is missing).  The entry
        at ``target_row`` is the self-distance; callers mask it out.
        Not cached: each call gathers from the live encoding.
        """
        return self._gather(name)(target_row, None)

    def subset_vector(
        self, target_row: int, name: str, rows: np.ndarray
    ) -> np.ndarray:
        """Distances from cell ``(target_row, name)`` to ``rows`` only.

        The narrow sibling of :meth:`vector`: entry ``i`` equals
        ``vector(target_row, name)[rows[i]]`` bit for bit (one gather,
        same clamps, same memo, same float operations per element), but
        only the requested rows are ever touched.  The vectorized engine
        confirms LHS constraints on index-probed rows with it, and reads
        every Equation-2 score and RHS check through it, and incremental
        maintenance reads its RHS distances through it.  Results are not
        cached: the row sets change per RFD, and the string memo already
        absorbs the expensive part.
        """
        self.subset_builds += 1
        return self._gather(name)(target_row, rows)

    def present_mask(self, name: str) -> np.ndarray:
        """Boolean mask of rows with a present value on ``name``: the
        live mask of the relation's encoding, so callers must not
        mutate it."""
        return self._relation.encoding(name).present

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        """Kernel counters for the imputation report."""
        strings = self._strings
        return {
            "subset_builds": self.subset_builds,
            "levenshtein_dp_calls": sum(
                codec.computed for codec in strings.values()
            ),
            "levenshtein_dp_blocked": sum(
                codec.blocked for codec in strings.values()
            ),
        }

    def cache_report(self) -> dict[str, tuple[int, int, int]]:
        """Per-attribute ``(hits, misses, size)`` of this run's string
        memo reads — the kernel counterpart of
        ``PatternCalculator.cache_report``.

        ``hits`` counts the gathered cells the memo already held (a
        MISSING side reads the sentinel cell), ``misses`` the distances
        the edit-distance kernel computed and ``size`` the memo cells
        this run filled: the computed ones, those settled at
        ``limit + 1`` by the length filter and each new row's zero
        distance to its own target.  A memo shared with earlier runs
        counts none of their work.
        """
        return {
            name: (codec.hits, codec.computed,
                   codec.computed + codec.blocked + codec.rows_made)
            for name, codec in self._strings.items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _gather(
        self, name: str
    ) -> Callable[[int, np.ndarray | None], np.ndarray]:
        gather = self._gathers.get(name)
        if gather is not None:
            return gather
        relation = self._relation
        encoding = relation.encoding(name)  # raises on unknown names
        if name in self._overrides:
            gather = functools.partial(
                _override_distances, relation, name, self._overrides[name]
            )
        elif encoding.floats is not None:
            gather = functools.partial(_float_distances, encoding)
        else:
            codec = self._strings[name] = _StringCodec(
                encoding,
                self._pool.memo(
                    name, self._string_limits.get(name), relation.n_tuples
                ),
            )
            gather = codec.gather
        self._gathers[name] = gather
        return gather
