"""The fixed reference loop that every job time is divided by.

The loop is pure Python and never calls ``duploss``.  It mixes the
operations the library spends its time on (tuple slicing, dict probes,
list comprehensions, small-int arithmetic), so a machine that runs
slower for a while slows the loop and the job alike and their ratio
holds still.  Keep this file byte-identical across commits: a changed
loop changes every ``job_norm`` figure.
"""

from __future__ import annotations

import time

REFERENCE_ITERATIONS = 12_000


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    table: dict[tuple[int, ...], int] = {}
    base = tuple(range(16))
    acc = 0
    for i in range(iterations):
        key = base[i & 7 : (i & 7) + 8]
        table[key] = table.get(key, 0) + 1
        acc += sum([x for x in base if x & 1]) + (i % 7 > 3)
    return acc + len(table)


def time_reference() -> float:
    """Seconds one reference loop takes right now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
