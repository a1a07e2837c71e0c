"""A fixed reference loop that tracks the machine's speed.

The benchmark shares its cores with other work, so the same cycle can
take 10-15% longer from one minute to the next.  ``run.py`` runs
``calibrate()`` between cycles and reports cycle time in multiples of
it; both slow down together, so the ratio keeps what the program
costs and drops most of what the machine did meanwhile.  The loop uses
no program code (a change to the program must not move it): a
pure-Python edit-distance DP over short strings, dict updates, and a
few NumPy reductions, the same mix the program spends its time on.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_WORDS = [f"{chr(97 + i % 23)}{i % 97}x{i % 13}y" for i in range(700)]
_ARRAY = np.arange(50_000, dtype=float)


def _distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (char_a != char_b),
            ))
        previous = current
    return previous[-1]


def calibrate() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = perf_counter()
    table: dict[str, int] = {}
    total = 0
    for index, word in enumerate(_WORDS):
        table[word] = table.get(word, 0) + index
        total += _distance(word, _WORDS[index - 1])
    for shift in range(40):
        total += int(np.abs(_ARRAY - shift).sum() > 0)
    if total < 0:  # keeps the work observable
        raise AssertionError
    return perf_counter() - start
