"""Permutations in one-line notation, with the statistics and classical
pattern-containment primitives the rest of the package is built on.

Conventions used throughout the package:

- A permutation of size n is a bijection on {1..n}.  A ``Permutation`` is
  the tuple ``(sigma_1, ..., sigma_n)`` of its one-line notation: a
  ``tuple`` subclass that validates its entries and adds nothing to hash,
  compare or store.
- Positions and values are both 1-indexed.  ``value_at(i)`` is sigma_i and
  ``position_of(v)`` is the i with sigma_i = v.
- The text form is comma-separated one-line notation, e.g. ``"5,2,4,3,1,6"``.

All operations are pure; ``Permutation`` objects are immutable and hashable.
Functions that index entries in a loop first take ``tuple(perm)``: CPython
specializes indexing for exact tuples only.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateValueError,
    InvalidParameterError,
    OutOfRangeError,
    PositionOutOfRangeError,
)

__all__ = [
    "Permutation",
    "parse_one_line",
    "identity",
    "reversed_identity",
    "descents",
    "descent_count",
    "inversions",
    "ascending_run_partition",
    "contains_pattern",
    "delete",
    "all_permutations",
]


class Permutation(tuple):
    """A permutation of {1..n}: the tuple of its one-line notation, checked
    on construction.  It hashes and compares as that plain tuple, and tuple
    operations (ordering, indexing, slicing to a plain tuple) apply.

    >>> Permutation([5, 2, 4, 3, 1, 6])
    Permutation([5, 2, 4, 3, 1, 6])
    >>> Permutation((2, 1)) == (2, 1) and hash(Permutation((2, 1))) == hash((2, 1))
    True
    >>> len(Permutation([2, 1, 3]))
    3
    >>> str(Permutation([5, 2, 4, 3, 1, 6]))
    '5,2,4,3,1,6'
    """

    __slots__ = ()

    def __init__(self, values: Iterable[int], /):
        # tuple.__new__ has already consumed ``values``; check what it built.
        n = len(self)
        seen = [False] * n
        for v in self:
            if type(v) is not int or not 1 <= v <= n:
                raise OutOfRangeError(f"value {v!r} is not an integer in 1..{n}")
            if seen[v - 1]:
                raise DuplicateValueError(f"value {v} appears more than once")
            seen[v - 1] = True

    @property
    def values(self) -> Permutation:
        """The one-line tuple, which is the permutation itself."""
        return self

    def __repr__(self) -> str:
        return f"Permutation({list(self)})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self)

    def value_at(self, position: int) -> int:
        """sigma_i for a 1-indexed position i."""
        if type(position) is not int or not 1 <= position <= len(self):
            raise PositionOutOfRangeError(
                f"position {position!r} is not an integer in 1..{len(self)}"
            )
        return self[position - 1]

    def position_of(self, value: int) -> int:
        """The 1-indexed position holding ``value``."""
        if type(value) is not int or not 1 <= value <= len(self):
            raise OutOfRangeError(f"value {value!r} is not an integer in 1..{len(self)}")
        return self.index(value) + 1

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self))


def parse_one_line(text: str) -> Permutation:
    """Parse comma-separated one-line notation; "" is the empty permutation."""
    text = text.strip()
    if not text:
        return Permutation(())
    try:
        vals = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse {text!r} as one-line notation") from exc
    return Permutation(vals)


def _values(n: int) -> range:
    """1..n, for a size n that must be an integer >= 0."""
    if type(n) is not int or n < 0:
        raise InvalidParameterError(f"size must be an integer >= 0, got {n!r}")
    return range(1, n + 1)


def identity(n: int) -> Permutation:
    return Permutation(_values(n))


def reversed_identity(n: int) -> Permutation:
    """n (n-1) ... 2 1, the unique permutation with n-1 descents."""
    return Permutation(reversed(_values(n)))


def descents(perm: Permutation) -> set[int]:
    """Positions i with sigma_i > sigma_{i+1}.

    >>> sorted(descents(Permutation([5, 2, 4, 3, 1, 6])))
    [1, 3, 4]
    """
    v = tuple(perm)
    return {i + 1 for i in range(len(v) - 1) if v[i] > v[i + 1]}


def descent_count(perm: Permutation) -> int:
    return len(descents(perm))


def _count_inversions(values: Sequence[int]) -> int:
    """Pairs i < j with values[i] > values[j], for distinct values in
    1..len(values): each entry adds the number of larger entries before it,
    read off a Fenwick tree over the values seen so far.  O(n log n)."""
    n = len(values)
    tree = [0] * (n + 1)
    count = 0
    for seen, v in enumerate(values):
        i, not_larger = v, 0
        while i:
            not_larger += tree[i]
            i &= i - 1
        count += seen - not_larger
        while v <= n:
            tree[v] += 1
            v += v & -v
    return count


def inversions(perm: Permutation) -> int:
    """Number of pairs i < j with sigma_i > sigma_j.

    >>> inversions(Permutation([5, 2, 4, 3, 1, 6]))
    8
    """
    return _count_inversions(perm)


def ascending_run_partition(perm: Permutation) -> list[tuple[int, int]]:
    """Maximal increasing contiguous substrings, as 1-indexed (start, end) ranges.

    The number of runs is always descent_count + 1 for nonempty permutations.

    >>> ascending_run_partition(Permutation([5, 2, 4, 3, 1, 6]))
    [(1, 1), (2, 3), (4, 4), (5, 6)]
    """
    n = len(perm)
    if n == 0:
        return []
    cuts = [0, *sorted(descents(perm)), n]
    return [(a + 1, b) for a, b in zip(cuts, cuts[1:])]


@functools.lru_cache(maxsize=1024)
def _pattern_plan(pattern: Permutation) -> tuple[tuple[int, int], ...]:
    """Per depth d of ``pattern``, the indices (floor, ceiling) among its
    entries before d: the one with the largest value below ``pattern[d]`` and
    the one with the smallest value above it, -1 where there is none.

    Bounded, like the step caches: a caller scanning many patterns once each
    would otherwise keep one plan per pattern for good.

    >>> _pattern_plan(Permutation([1, 3, 4, 2]))
    ((-1, -1), (0, -1), (1, -1), (0, 1))
    """
    plan = []
    for d, p in enumerate(pattern):
        floor = ceiling = -1
        for e in range(d):
            q = pattern[e]
            if q < p and (floor < 0 or q > pattern[floor]):
                floor = e
            elif q > p and (ceiling < 0 or q < pattern[ceiling]):
                ceiling = e
        plan.append((floor, ceiling))
    return tuple(plan)


def contains_pattern(host: Permutation, pattern: Permutation) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to ``pattern``.

    A partial match is order-isomorphic to the pattern's prefix exactly when
    each chosen entry lies between the entries matched to its left floor and
    left ceiling in the pattern (see ``_pattern_plan``, computed once per
    pattern and kept in a bounded cache).  So a candidate costs two
    comparisons, whatever the depth.  The search backtracks over host
    positions and stops at the first full match.

    >>> contains_pattern(Permutation([1, 4, 2, 5, 6, 3]), Permutation([1, 3, 4, 2]))
    True
    >>> contains_pattern(Permutation([1, 4, 2, 5, 6, 3]), Permutation([3, 2, 1]))
    False
    """
    hv = tuple(host)
    n, k = len(hv), len(pattern)
    if k > n:
        return False
    if k == 0:
        return True
    try:
        plan = _pattern_plan(pattern)
    except TypeError:  # an unhashable sequence, such as a list, misses the cache
        plan = _pattern_plan(tuple(pattern))
    top = n + 1
    vals = [0] * k  # host value matched at each depth
    pos = [0] * k  # host index matched at each depth
    d = i = 0
    while True:
        floor, ceiling = plan[d]
        lo = vals[floor] if floor >= 0 else 0
        hi = vals[ceiling] if ceiling >= 0 else top
        last = n - k + d  # leave room for the depths still to match
        while i <= last:
            v = hv[i]
            if lo < v < hi:
                vals[d], pos[d] = v, i
                d += 1
                if d == k:
                    return True
                i += 1
                break
            i += 1
        else:
            d -= 1
            if d < 0:
                return False
            i = pos[d] + 1


def delete(perm: Permutation, position: int) -> Permutation:
    """Remove the entry at ``position`` and rank-normalize the survivors.

    The result is always a pattern of ``perm``.

    >>> delete(Permutation([4, 1, 2, 3, 5, 7, 6]), 5)
    Permutation([4, 1, 2, 3, 6, 5])
    """
    removed = perm.value_at(position)
    # a permutation by construction, so wrapped without re-checking each entry
    return tuple.__new__(
        Permutation, [x - 1 if x > removed else x for i, x in enumerate(perm) if i != position - 1]
    )


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of size n, in lexicographic order of one-line values."""
    return map(Permutation, itertools.permutations(_values(n)))
