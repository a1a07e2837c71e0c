"""Levenshtein (edit) distance.

RENUVER compares string attributes with the edit distance.  Two variants
are provided:

* :func:`levenshtein` — the exact distance, classic two-row DP.
* :func:`levenshtein_bounded` — a banded DP that stops as soon as the
  distance provably exceeds ``limit`` and returns ``limit + 1`` instead.
* :func:`levenshtein_bounded_many` — the same clamped distance for a
  whole batch of pairs at once, computed with the Myers/Hyyrö
  bit-vector recurrences vectorized over the batch.

The bounded variant matters for performance: RFD thresholds are small
(the paper's discovery limits are 3..15), so most of the O(len(a)·len(b))
work of the exact DP is wasted on pairs that are "far anyway".

:data:`BOUNDED_STATS` counts, process-wide, how often the bounded
variant's *length filter* settled a call before any DP row was allocated
— the cheapest exit there is, and the same inequality the blocking
indexes of :mod:`repro.index` exploit.  Consumers that need per-run
numbers (the kernel-call seam) snapshot the totals and report deltas.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Longest pattern (shorter string of a pair) the bit-parallel kernel
#: handles: its DP column must fit one uint64 word.
WORD_BITS = 64
#: Pairs per chunk of :func:`levenshtein_bounded_many`; with
#: :data:`MATCH_TABLE_CELLS` it bounds the kernel's working memory.
CHUNK_PAIRS = 4096
#: Most uint64 cells of one match-mask table (distinct patterns times
#: their alphabet); a chunk over it is halved until it fits.
MATCH_TABLE_CELLS = 1 << 18


class _BoundedStats:
    """Process-wide tallies of :func:`levenshtein_bounded` early exits."""

    __slots__ = ("calls", "length_filtered")

    def __init__(self) -> None:
        self.calls = 0
        self.length_filtered = 0

    def snapshot(self) -> tuple[int, int]:
        """The current ``(calls, length_filtered)`` totals."""
        return (self.calls, self.length_filtered)


#: Process-wide counters (single snapshot point for all engines).
BOUNDED_STATS = _BoundedStats()


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance between two strings (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[j] + 1,        # deletion
                    current[j - 1] + 1,     # insertion
                    previous[j - 1] + cost, # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_bounded(a: str, b: str, limit: int) -> int:
    """Edit distance clamped at ``limit``.

    Returns the exact distance when it is ``<= limit`` and ``limit + 1``
    otherwise.  Uses the standard diagonal band of width ``2*limit + 1``:
    cells outside the band can only lie on paths costing more than
    ``limit``, so they are never inspected.

    Every early exit runs *before* any DP row is allocated, in cheapest
    order: the length filter (``|len(a) - len(b)| > limit`` forces at
    least that many insertions, so the distance provably exceeds the
    limit), then the equality check, then the empty-string shortcut.
    Length-filter exits are tallied in :data:`BOUNDED_STATS`.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    stats = BOUNDED_STATS
    stats.calls += 1
    if len(a) < len(b):
        a, b = b, a
    len_a, len_b = len(a), len(b)
    if len_a - len_b > limit:
        stats.length_filtered += 1
        return limit + 1
    if a == b:
        return 0
    if not len_b:
        return len_a if len_a <= limit else limit + 1
    return _banded(a, b, limit)


def _banded(a: str, b: str, limit: int) -> int:
    """The banded DP behind :func:`levenshtein_bounded`: ``a`` is the
    longer, non-empty ``b`` the shorter string, within ``limit`` in
    length and not equal."""
    len_a, len_b = len(a), len(b)
    big = limit + 1
    previous = [j if j <= limit else big for j in range(len_b + 1)]
    for i in range(1, len_a + 1):
        low = max(1, i - limit)
        high = min(len_b, i + limit)
        current = [big] * (len_b + 1)
        if low == 1:
            current[0] = i if i <= limit else big
        char_a = a[i - 1]
        row_min = current[0] if low == 1 else big
        for j in range(low, high + 1):
            cost = 0 if char_a == b[j - 1] else 1
            best = previous[j - 1] + cost
            if previous[j] + 1 < best:
                best = previous[j] + 1
            if current[j - 1] + 1 < best:
                best = current[j - 1] + 1
            if best > limit:
                best = big
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min >= big:
            return big
        previous = current
    return previous[len_b] if previous[len_b] <= limit else big


def levenshtein_bounded_many(
    a: Sequence[str], b: Sequence[str], limit: int
) -> np.ndarray:
    """Element-wise :func:`levenshtein_bounded` over two string sequences.

    Returns an int64 array whose ``i``-th entry equals
    ``levenshtein_bounded(a[i], b[i], limit)`` and tallies
    :data:`BOUNDED_STATS` exactly as those ``len(a)`` scalar calls would.
    The early exits run first, in the scalar order: length filter, then
    equality, then the empty string.  Surviving pairs whose shorter
    string fits one 64-bit word run the Myers/Hyyrö bit-vector
    recurrences, vectorized across pairs; the rest fall back to the
    scalar banded DP, so the split depends only on the input.  Pairs
    run in chunks of :data:`CHUNK_PAIRS`, which bounds working memory.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if len(a) != len(b):
        raise ValueError("a and b must have the same length")
    first = np.asarray(a, dtype=object)
    second = np.asarray(b, dtype=object)
    out = np.empty(len(first), dtype=np.int64)
    for start in range(0, out.size, CHUNK_PAIRS):
        chunk = slice(start, start + CHUNK_PAIRS)
        out[chunk] = _bounded_chunk(first[chunk], second[chunk], limit)
    return out


def _bounded_chunk(
    first: np.ndarray, second: np.ndarray, limit: int
) -> np.ndarray:
    """One chunk of :func:`levenshtein_bounded_many`."""
    n = first.size
    len_a = np.fromiter(map(len, first), dtype=np.int64, count=n)
    len_b = np.fromiter(map(len, second), dtype=np.int64, count=n)
    a_shorter = len_a <= len_b
    patterns = np.where(a_shorter, first, second)
    texts = np.where(a_shorter, second, first)
    short = np.where(a_shorter, len_a, len_b)
    long = np.where(a_shorter, len_b, len_a)
    out = np.full(n, limit + 1, dtype=np.int64)

    rest = np.flatnonzero(long - short <= limit)
    BOUNDED_STATS.calls += n
    BOUNDED_STATS.length_filtered += n - rest.size
    equal = patterns[rest] == texts[rest]
    out[rest[equal]] = 0
    rest = rest[~equal]
    out[rest] = long[rest]  # settles the empty patterns
    rest = rest[short[rest] > 0]
    wide = short[rest] > WORD_BITS
    for row in rest[wide]:
        out[row] = _banded(texts[row], patterns[row], limit)
    rest = rest[~wide]
    # Longest text first: the pairs still reading text at any step are
    # then a prefix of the chunk.
    rest = rest[np.argsort(-long[rest], kind="stable")]
    distances = _myers(patterns[rest], texts[rest], short[rest], long[rest])
    out[rest] = np.minimum(distances, limit + 1)
    return out


def _myers(
    patterns: np.ndarray,
    texts: np.ndarray,
    pattern_len: np.ndarray,
    text_len: np.ndarray,
) -> np.ndarray:
    """Exact edit distances of non-empty patterns of at most
    :data:`WORD_BITS` characters to their texts, ``text_len`` descending.

    Bit ``i`` of ``pv`` / ``mv`` says the DP column steps up / down by
    one from row ``i`` to row ``i + 1``.  Each text character advances
    every pair still reading text by one column (Hyyrö 2001, with the
    ``| 1`` shift-in of global distance).  The distance is the bottom
    cell of the last column: the text length (the top cell) plus the
    column's up-steps minus its down-steps.
    """
    size = patterns.size
    if not size:
        return np.empty(0, dtype=np.int64)
    # Match masks per distinct pattern and symbol; the extra last
    # symbol stands for text characters absent from every pattern.
    pattern_ids, pattern_rows = _factorize(patterns)
    codes, owner, position = _characters(pattern_rows)
    alphabet, symbols = np.unique(codes, return_inverse=True)
    width = alphabet.size + 1
    if len(pattern_rows) * width > MATCH_TABLE_CELLS and size > 1:
        half = size // 2
        return np.concatenate([
            _myers(patterns[:half], texts[:half],
                   pattern_len[:half], text_len[:half]),
            _myers(patterns[half:], texts[half:],
                   pattern_len[half:], text_len[half:]),
        ])
    peq = np.zeros(len(pattern_rows) * width, dtype=np.uint64)
    np.bitwise_or.at(
        peq,
        owner * width + symbols,
        np.left_shift(np.uint64(1), position.astype(np.uint64)),
    )

    # Symbols of each distinct text, one row per text position, then
    # one column per pair.
    text_ids, text_rows = _factorize(texts)
    codes, owner, position = _characters(text_rows)
    symbols = np.searchsorted(alphabet, codes)
    symbols[alphabet[np.minimum(symbols, alphabet.size - 1)] != codes] = (
        alphabet.size
    )
    steps = int(text_len[0])
    table = np.zeros(
        (steps, len(text_rows)), dtype=np.min_scalar_type(alphabet.size)
    )
    table[position, owner] = symbols
    grid = table[:, text_ids]
    del codes, owner, position, symbols, table
    reading = size - np.searchsorted(
        text_len[::-1], np.arange(steps), side="right"
    )

    base = pattern_ids * width
    one = np.uint64(1)
    pv = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
    mv = np.zeros(size, dtype=np.uint64)
    for step in range(steps):
        k = reading[step]
        eq = peq[base[:k] + grid[step, :k]]
        p = pv[:k]
        m = mv[:k]
        xv = eq | m
        xh = (((eq & p) + p) ^ p) | eq
        ph = m | ~(xh | p)
        mh = p & xh
        ph = (ph << one) | one
        mh <<= one
        pv[:k] = mh | ~(xv | ph)
        mv[:k] = ph & xv
    mask = np.iinfo(np.uint64).max >> (WORD_BITS - pattern_len).astype(
        np.uint64
    )
    return text_len + _popcount(pv & mask) - _popcount(mv & mask)


def _factorize(strings: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Per-entry ids into the list of distinct strings."""
    distinct = list(dict.fromkeys(strings))
    ids = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(
        map(ids.__getitem__, strings), dtype=np.int64, count=strings.size
    )
    return codes, distinct


def _characters(
    strings: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Code point, owning string and position of every character."""
    lengths = np.fromiter(
        map(len, strings), dtype=np.int64, count=len(strings)
    )
    joined = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes = np.frombuffer(joined, dtype=np.uint32)
    owner = np.repeat(np.arange(len(strings)), lengths)
    position = np.arange(codes.size) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return codes, owner, position


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per uint64 word, as int64."""
    bits = np.unpackbits(words.view(np.uint8)).reshape(words.size, 64)
    return bits.sum(axis=1, dtype=np.int64)


def normalized_levenshtein(a: str, b: str) -> float:
    """Length-normalized edit distance in [0, 1] (Yujian & Bo, 2007 style).

    Not used by the core algorithm (the paper's thresholds are absolute),
    but handy for rule-based evaluation and examples.
    """
    if not a and not b:
        return 0.0
    distance = levenshtein(a, b)
    return (2 * distance) / (len(a) + len(b) + distance)
