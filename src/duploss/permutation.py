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
A function given a sequence that is not a ``Permutation`` passes it through
the constructor first (``_as_permutation``), so one that is not a
permutation raises its typed error.  An argument that must be of some other
kind (a step, a scenario, a class spec, a width policy, a text) is checked
by the one kind rule, ``_check_kind``, and a container of them by
``_check_iterable``; both raise ``InvalidParameterError``.  Functions that
index entries in a loop then copy them with ``perm[:]``, an exact
``tuple``, since CPython specializes indexing for exact tuples only.

Pattern containment reads, per pattern, a plan of which earlier entries
bound each entry from below and above, and by how many values at least
(``_pattern_plan``): the pattern values between them must fit between the
host values matched to them, read from 0 and n + 1 where there is no
earlier bound, so even the first entry has a range.  These value gaps hold
only in a host of exactly 1..n, so a host or pattern that is not a
``Permutation`` goes through the ``Permutation`` constructor first.  Each
pattern is compiled from its plan into a matcher with one nested loop per
entry, split into chained functions of at most ``_MAX_NEST`` loops each;
a monotone pattern, k...1 or 1...k, is compiled instead into one pass over
the host that keeps one tail per subsequence length (``_monotone_source``).
Matchers are held in the dict ``_matchers``, which drops its oldest entry
first once it holds ``_MAX_MATCHERS``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence

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

    def __new__(cls, values: Iterable[int], /):
        try:
            return tuple.__new__(cls, values)
        except TypeError:
            raise InvalidParameterError(f"{values!r} is not a sequence of values") from None

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


# Wraps values that form a permutation by construction, with no check.  The
# one rule: a permutation the package computes goes through here, a step it
# generates through ``steps._step`` (radix steps aside), and only a caller's
# input and literals through the checking ``Permutation`` and ``DupLossStep``.
_trusted = functools.partial(tuple.__new__, Permutation)


def _as_permutation(perm: Sequence[int]) -> Permutation:
    """``perm`` itself when it is a ``Permutation``, else the checked
    ``Permutation`` of its entries, which raises a typed DupLossError."""
    return perm if isinstance(perm, Permutation) else Permutation(perm)


def _check_kind(value: object, kind: type, what: str) -> None:
    """The one rule for an argument that must be a ``kind``."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{what} must be a {kind.__name__}, got {value!r}")


def _check_iterable(value: object, what: str) -> None:
    """The same rule for an argument that must be iterable."""
    if not isinstance(value, Iterable):
        raise InvalidParameterError(f"{what} must be iterable, got {value!r}")


def parse_one_line(text: str) -> Permutation:
    """Parse comma-separated one-line notation; "" is the empty permutation."""
    _check_kind(text, str, "text")
    text = text.strip()
    if not text:
        return Permutation(())
    try:
        vals = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse {text!r} as one-line notation") from exc
    return Permutation(vals)


def _check_size(n: int) -> None:
    """The one rule for a size n: an exact ``int`` >= 0 (no ``bool``)."""
    if type(n) is not int or n < 0:
        raise InvalidParameterError(f"size must be an integer >= 0, got {n!r}")


def _values(n: int) -> range:
    """1..n, for a size n that must be an integer >= 0."""
    _check_size(n)
    return range(1, n + 1)


def identity(n: int) -> Permutation:
    return _trusted(_values(n))


def reversed_identity(n: int) -> Permutation:
    """n (n-1) ... 2 1, the unique permutation with n-1 descents."""
    return _trusted(reversed(_values(n)))


def descents(perm: Permutation) -> set[int]:
    """Positions i with sigma_i > sigma_{i+1}.

    >>> sorted(descents(Permutation([5, 2, 4, 3, 1, 6])))
    [1, 3, 4]
    """
    v = _as_permutation(perm)[:]
    return {i + 1 for i in range(len(v) - 1) if v[i] > v[i + 1]}


def descent_count(perm: Permutation) -> int:
    v = _as_permutation(perm)[:]
    return sum(map(operator.gt, v, v[1:]))


def _count_inversions(values: Sequence[int]) -> int:
    """Pairs i < j with values[i] > values[j], for distinct values in
    1..len(values).  Values fall into blocks of 2^12 by ``v >> 12``; a bitset
    of the block's values seen so far gives each entry the larger ones before
    it, in C on at most 4096 bits.  When n >= 4096 a pass over the block
    labels adds the pairs across blocks: field c of ``larger``, bit_length(n)
    bits wide, counts the entries seen in blocks above c.  In all
    O(n * min(n, 4096) + n^2 log n / 4096) bit operations, done in C."""
    n = len(values)
    count = 0
    blocks = [values]
    if n >> 12:
        blocks = [[] for _ in range((n >> 12) + 1)]
        w, larger = n.bit_length(), 0
        bump = [((1 << w * b) - 1) // ((1 << w) - 1) for b in range(len(blocks))]
        for v in values:
            b = v >> 12
            count += larger >> w * b & (1 << w) - 1
            larger += bump[b]
            blocks[b].append(v & 4095)
    for block in blocks:
        seen = 0
        for v in block:
            count += (seen >> v).bit_count()
            seen |= 1 << v
    return count


def inversions(perm: Permutation) -> int:
    """Number of pairs i < j with sigma_i > sigma_j, counted on bitsets of
    2^12-value blocks by ``_count_inversions``: C work on at most 4096 bits
    per entry, plus a pass over the block labels once n >= 4096.

    >>> inversions(Permutation([5, 2, 4, 3, 1, 6]))
    8
    """
    return _count_inversions(_as_permutation(perm))


def ascending_run_partition(perm: Permutation) -> list[tuple[int, int]]:
    """Maximal increasing contiguous substrings, as 1-indexed (start, end) ranges.

    The number of runs is always descent_count + 1 for nonempty permutations.

    >>> ascending_run_partition(Permutation([5, 2, 4, 3, 1, 6]))
    [(1, 1), (2, 3), (4, 4), (5, 6)]
    """
    perm = _as_permutation(perm)
    if not perm:
        return []
    cuts = [0, *sorted(descents(perm)), len(perm)]
    return [(a + 1, b) for a, b in zip(cuts, cuts[1:])]


def _pattern_plan(pattern: Permutation) -> tuple[tuple[int, int, int, int], ...]:
    """Per depth d of ``pattern``, of size k: the indices (floor, ceiling)
    among its entries before d, the one with the largest value below
    p_d = ``pattern[d]`` and the one with the smallest value above it (-1
    where there is none), and the value gaps (below, above) from them to p_d,
    read from a floor of value 0 and a ceiling of value k + 1 where there is
    none.

    The below - 1 pattern values strictly between the floor's and p_d map to
    as many distinct host values between the ones matched at the floor and at
    d, and likewise above p_d.  So in a host of 1..n every occurrence has
    v_floor + below <= v_d <= v_ceiling - above, with a missing floor
    matched to 0 and a missing ceiling to n + 1.  A gap of 1 is the plain
    order test.

    >>> _pattern_plan(Permutation([1, 3, 4, 2]))
    ((-1, -1, 1, 4), (0, -1, 2, 2), (1, -1, 1, 1), (0, 1, 1, 1))
    """
    top = len(pattern) + 1
    plan = []
    for d, p in enumerate(pattern):
        floor = ceiling = -1
        for e in range(d):
            q = pattern[e]
            if q < p and (floor < 0 or q > pattern[floor]):
                floor = e
            elif q > p and (ceiling < 0 or q < pattern[ceiling]):
                ceiling = e
        below = p - (pattern[floor] if floor >= 0 else 0)
        above = (pattern[ceiling] if ceiling >= 0 else top) - p
        plan.append((floor, ceiling, below, above))
    return tuple(plan)


# A matcher nests one loop per pattern entry and CPython refuses more than 20
# nested blocks in one function, so each function of a matcher holds at most
# this many depths, a margin below that limit, and calls the next one.
_MAX_NEST = 16


def _bounds_test(d: int, floor: int, ceiling: int, below: int, above: int) -> str:
    """The condition ``v_floor + below <= v_d <= v_ceiling - above`` as
    source, with a missing floor of 0 and ceiling of n + 1 for a host of
    1..n; "" when it rules out no value of 1..n."""
    if floor >= 0:
        low = f"v{floor} < " if below == 1 else f"v{floor} + {below - 1} < "
    else:
        low = f"{below - 1} < " if below > 1 else ""
    if ceiling >= 0:
        high = f" < v{ceiling}" if above == 1 else f" < v{ceiling} - {above - 1}"
    else:
        high = "" if above == 1 else " < n" if above == 2 else f" < n - {above - 2}"
    return f"{low}v{d}{high}" if low or high else ""


def _matcher_source(plan: tuple[tuple[int, int, int, int], ...]) -> str:
    """The source of ``match(h)``, True iff the exact ``tuple`` ``h`` (the
    ``host[:]`` that ``contains_pattern`` passes, so that its indexing is
    specialized), a permutation of 1..n, contains the pattern planned by
    ``plan``: one loop per depth d over the host indices that leave room for
    the depths after it, the last one over a slice of the values, each
    testing its value v_d against the bounds of its gaps from the values
    matched at its floor and ceiling (see ``_pattern_plan``).  After every
    ``_MAX_NEST`` depths d the innermost body calls
    ``match{d}(h, n, i{d-1}, v0, ..., v{d-1})``, which holds the next depths.
    For 231, v0 needs a smaller and a larger value after it, v1 lies above
    v0 and v2 below it:

    >>> print(_matcher_source(_pattern_plan(Permutation([2, 3, 1]))), end="")
    def match(h):
        n = len(h)
        for i0 in range(n - 2):
            v0 = h[i0]
            if 1 < v0 < n:
                for i1 in range(i0 + 1, n - 1):
                    v1 = h[i1]
                    if v0 < v1:
                        for v2 in h[i1 + 1:]:
                            if v2 < v0:
                                return True
        return False
    """
    k = len(plan)
    lines, indent, start = ["def match(h):", "    n = len(h)"], "    ", ""
    for d, gaps in enumerate(plan):
        if d and d % _MAX_NEST == 0:
            head = f"match{d}(h, n, i{d - 1}, {', '.join(f'v{e}' for e in range(d))})"
            lines += [f"{indent}if {head}:", f"{indent}    return True", "    return False"]
            lines.append(f"def {head}:")
            indent = "    "
        if d < k - 1:
            lines.append(f"{indent}for i{d} in range({start}n - {k - 1 - d}):")
            lines.append(f"{indent}    v{d} = h[i{d}]")
        else:
            lines.append(f"{indent}for v{d} in h{f'[i{d - 1} + 1:]' if d else ''}:")
        indent += "    "
        test = _bounds_test(d, *gaps)
        if test:
            lines.append(f"{indent}if {test}:")
            indent += "    "
        start = f"i{d} + 1, "
    lines += [f"{indent}return True", "    return False"]
    return "\n".join(lines) + "\n"


def _monotone_source(k: int, descending: bool) -> str:
    """The source of ``match(h)`` for the monotone pattern k...1 (when
    ``descending``) or 1...k, k >= 1, on a host tuple of 1..n: one pass, by
    Schensted's theorem that a host contains k...1 iff its longest
    decreasing subsequence has length at least k.  Tail t_j is the largest
    last entry of a decreasing subsequence of length j read so far, or 0
    while there is none, so t_1 > t_2 > ... among those set.  A value above
    t_j but below t_{j-1} extends a subsequence of length j - 1 to one of
    length j that ends higher than t_j, so it replaces t_j; a value below
    every t_1..t_{k-1} completes one of length k.  For 1...k the tails are the
    smallest last entries of increasing subsequences, start at n + 1 and
    compare by ``<``.  The sentinels 0 and n + 1 lie outside the values only
    for a host of exactly 1..n.  For k = 1 there is no tail and the first
    value is an occurrence.  Each test is its own ``if`` ending in
    ``continue``, not an ``elif``: CPython's compiler nests an ``elif`` chain
    and refuses one of about 3,000 branches, and this form has no nesting
    at any k.

    >>> print(_monotone_source(3, True), end="")
    def match(h):
        t1 = t2 = 0
        for v in h:
            if v > t1:
                t1 = v
                continue
            if v > t2:
                t2 = v
                continue
            return True
        return False
    """
    tails = [f"t{j}" for j in range(1, k)]
    op = ">" if descending else "<"
    lines = ["def match(h):"]
    if tails:
        lines.append(f"    {' = '.join(tails)} = {'0' if descending else 'len(h) + 1'}")
    lines.append("    for v in h:")
    for t in tails:
        lines += [f"        if v {op} {t}:", f"            {t} = v", "            continue"]
    lines += ["        return True", "    return False"]
    return "\n".join(lines) + "\n"


# Compiled matchers by pattern, at most ``_MAX_MATCHERS`` of them; a miss
# that finds the dict full drops the oldest entry first.
_MAX_MATCHERS = 1024
_matchers: dict[Permutation, Callable[[tuple[int, ...]], bool]] = {}


def _matcher(pattern: Permutation) -> Callable[[tuple[int, ...]], bool]:
    """The containment test of the ``Permutation`` ``pattern`` on a host
    tuple of 1..n: ``match`` compiled from ``_matcher_source``, with the
    functions it chains to in the same namespace, stored in ``_matchers``.
    Compiling takes tens to hundreds of microseconds, growing with the size,
    so ``contains_pattern`` calls this only for a pattern not held; a
    matcher holds a few kilobytes.  A monotone pattern of size k >= 1 is
    compiled from ``_monotone_source`` instead, one pass over the host.
    """
    namespace: dict = {}
    k = len(pattern)
    if k and pattern in (tuple(range(k, 0, -1)), tuple(range(1, k + 1))):
        source = _monotone_source(k, pattern[0] == k)
    else:
        source = _matcher_source(_pattern_plan(pattern))
    exec(compile(source, f"<matcher of {pattern}>", "exec"), namespace)
    while len(_matchers) >= _MAX_MATCHERS:
        del _matchers[next(iter(_matchers))]
    match = _matchers[pattern] = namespace["match"]
    return match


def contains_pattern(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to ``pattern``.

    ``host`` must be a permutation of 1..n and ``pattern`` one of 1..k.  A
    ``Permutation`` is taken as it is and any other sequence goes through the
    ``Permutation`` constructor, so a list pattern answers as its tuple.  A
    sequence that is not a permutation raises the constructor's
    ``OutOfRangeError`` or ``DuplicateValueError``, and one that is not
    iterable its ``InvalidParameterError``.

    A partial match is order-isomorphic to the pattern's prefix exactly when
    each chosen entry lies between the entries matched to its left floor and
    left ceiling in the pattern.  Each must also leave room for the pattern
    values between them: entry d lies at least ``below`` above its floor's
    value and at least ``above`` under its ceiling's, read from 0 and n + 1
    where it has none (see ``_pattern_plan``).  So a candidate costs at most
    two comparisons, whatever the depth, and even depth 0 skips the values
    that cannot begin an occurrence.  Each pattern's plan is compiled once
    into a matcher with one nested loop per entry (see ``_matcher``) that
    stops at the first full match.  A monotone pattern, k...1 or 1...k,
    takes one pass over the host instead, at most k - 1 comparisons per
    value (see ``_monotone_source``).  A held pattern costs one dict lookup.
    The matcher gets ``host[:]``, an exact ``tuple``, whose indexing CPython
    specializes.

    >>> contains_pattern(Permutation([1, 4, 2, 5, 6, 3]), Permutation([1, 3, 4, 2]))
    True
    >>> contains_pattern(Permutation([1, 4, 2, 5, 6, 3]), Permutation([3, 2, 1]))
    False
    """
    if not isinstance(pattern, Permutation):
        pattern = Permutation(pattern)
    if not isinstance(host, Permutation):
        host = Permutation(host)
    match = _matchers.get(pattern)
    if match is None:
        match = _matcher(pattern)
    return match(host[:])


def delete(perm: Permutation, position: int) -> Permutation:
    """Remove the entry at ``position`` and rank-normalize the survivors.

    The result is always a pattern of ``perm``.

    >>> delete(Permutation([4, 1, 2, 3, 5, 7, 6]), 5)
    Permutation([4, 1, 2, 3, 6, 5])
    >>> delete([3, 1, 2], 2)
    Permutation([2, 1])
    """
    perm = _as_permutation(perm)
    removed = perm.value_at(position)
    return _trusted([x - 1 if x > removed else x for i, x in enumerate(perm) if i != position - 1])


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of size n, in lexicographic order of one-line
    values; each is one by construction, so it is wrapped unchecked."""
    return map(_trusted, itertools.permutations(_values(n)))
