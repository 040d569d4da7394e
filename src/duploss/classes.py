"""Reachability classes of bounded-width duplication-loss and their
forbidden-pattern bases.

The class with parameters (K, p) holds every permutation (of any size)
reachable from the identity in at most p steps of width at most K.  Because
no-op steps exist, "at most p" and "exactly p" coincide.  The class is closed
downward under pattern containment, so it is also the avoider set of a basis
of minimal forbidden patterns; for p = 1 that basis has a closed form.

Exhaustive operations breadth-first-search the successor relation from the
identity.  Every one of them reaches the memo through ``_search(n, K)``,
which checks the size cap and keys one search by (n, min(K, n)), so an
infinite width and any width of at least n share the search at width n.
Each state's successors come from the step effects compiled once per (size,
width) in ``steps``; the memo keeps every BFS layer as a list of
``Permutation``s built once, when their states are found, so a class at
budget p is the union of the first p + 1 layers.  The cap (default 10)
refuses sizes beyond desk scale, S_11 and up; the DUPLOSS_ENUM_CAP
environment variable, an integer, is the one override.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
)
from .permutation import Permutation, all_permutations, contains_pattern, delete
from .steps import successor_values

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ClassSpec",
    "PatternBasis",
    "one_step_blockers",
    "one_step_basis",
    "enumerate_class",
    "is_member",
    "minimal_forbidden_basis",
    "bfs_min_steps",
    "is_antichain",
    "basis_to_json",
    "clear_search_cache",
]

DEFAULT_ENUMERATION_CAP = 10


@dataclass(frozen=True)
class ClassSpec:
    """Parameters (width limit, step budget) of a reachability class."""

    width_limit: int | float
    budget: int

    def __post_init__(self):
        if self.width_limit < 2:
            raise InvalidWidthError(f"width limit must be >= 2, got {self.width_limit}")
        if self.budget < 0:
            raise InvalidParameterError(f"step budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class PatternBasis:
    """A set of forbidden patterns, flagged when it forms an antichain
    (no element is a pattern of another)."""

    patterns: frozenset[Permutation]
    antichain: bool
    provenance: str  # "theorem-constructed" | "brute-force"

    def sorted_patterns(self) -> list[Permutation]:
        return sorted(self.patterns, key=lambda p: (len(p), p.values))


def _check_cap(n: int) -> None:
    env = os.environ.get("DUPLOSS_ENUM_CAP")
    try:
        limit = int(env) if env else DEFAULT_ENUMERATION_CAP
    except ValueError:
        raise InvalidParameterError(
            f"DUPLOSS_ENUM_CAP must be an integer, got {env!r}"
        ) from None
    if n > limit:
        raise BudgetExceededError(
            f"size {n} exceeds the enumeration cap {limit}; raise DUPLOSS_ENUM_CAP"
        )


class _LayeredSearch:
    """Breadth-first layers of the successor relation from identity(n).

    ``dist`` maps each visited one-line tuple to its step distance, and
    ``layers[d]`` lists the states at distance d as ``Permutation``s, each
    built once, when its state is found.  Layers are expanded on demand and
    kept, so later queries at the same (n, width) reuse all earlier work; an
    empty last layer means the search is exhausted.
    """

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        start = tuple(range(1, n + 1))
        self.dist: dict[tuple[int, ...], int] = {start: 0}
        self.layers: list[list[Permutation]] = [[Permutation._unchecked(start)]]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def _expand_layer(self) -> None:
        dist = self.dist
        depth = len(self.layers)
        width = self.width
        make = Permutation._unchecked
        layer = []
        for perm in self.layers[-1]:
            # Successors are position maps applied to a permutation, hence
            # permutations themselves; only unseen ones are built.
            for succ in successor_values(perm.values, width).difference(dist):
                dist[succ] = depth
                layer.append(make(succ))
        self.layers.append(layer)

    def grow(self, depth: int | float, state: tuple[int, ...] | None = None) -> None:
        """Expand layers until ``state`` is found, ``depth`` layers lie past
        the identity or the search is exhausted."""
        while self.depth < depth and state not in self.dist and self.layers[-1]:
            self._expand_layer()


_searches: dict[tuple[int, int], _LayeredSearch] = {}


def _search(n: int, width_limit: int | float) -> _LayeredSearch:
    """The one memoized search of size n under width limit K (infinity acts
    as n, and widths below 1 as 1); refuses sizes beyond the cap."""
    _check_cap(n)
    key = (n, max(int(min(width_limit, n)), 1))
    if key not in _searches:
        _searches[key] = _LayeredSearch(*key)
    return _searches[key]


def clear_search_cache() -> None:
    _searches.clear()


def enumerate_class(spec: ClassSpec, n: int) -> frozenset[Permutation]:
    """All size-n permutations reachable within the spec's budget."""
    search = _search(n, spec.width_limit)
    search.grow(spec.budget)
    return frozenset(itertools.chain.from_iterable(search.layers[: spec.budget + 1]))


def is_member(perm: Permutation, spec: ClassSpec) -> bool:
    """Whether ``perm`` is reachable within the spec's budget."""
    search = _search(len(perm), spec.width_limit)
    search.grow(spec.budget, perm.values)
    return search.dist.get(perm.values, spec.budget + 1) <= spec.budget


def bfs_min_steps(perm: Permutation, width_limit: int | float) -> int:
    """Minimal number of width-bounded steps building ``perm`` from identity."""
    if width_limit < 1:
        raise InvalidWidthError(f"width limit must be >= 1, got {width_limit}")
    search = _search(len(perm), width_limit)
    search.grow(math.inf, perm.values)
    if perm.values not in search.dist:
        raise InvalidWidthError(
            f"state {perm.values} unreachable at width {search.width}; "
            "widths below 2 reach only the identity"
        )
    return search.dist[perm.values]


def one_step_blockers(width_limit: int) -> frozenset[Permutation]:
    """The one-descent permutations of size K+1 that no single width-K step
    can produce: those not starting with 1 and not ending with K+1.

    There are exactly 2^(K-1) of them: the first increasing run is
    {K+1} union S for any S subset of {2..K}.
    """
    if isinstance(width_limit, float) and math.isinf(width_limit):
        raise InfiniteWidthError("blocker set is defined for finite width limits only")
    k = int(width_limit)
    if k < 2:
        raise InvalidWidthError(f"width limit must be >= 2, got {k}")
    out = []
    rest = range(2, k + 1)
    for r in range(k):
        for subset in itertools.combinations(rest, r):
            first_run = sorted(subset) + [k + 1]
            second_run = sorted(set(range(1, k + 1)) - set(subset))
            out.append(Permutation(first_run + second_run))
    return frozenset(out)


def one_step_basis(width_limit: int) -> PatternBasis:
    """The closed-form forbidden-pattern basis of the one-step class:
    {321, 3142, 2143} plus the blocker set, 3 + 2^(K-1) patterns in all.

    For K = 2 this generating set is not an antichain (3142 contains 231);
    from K = 3 on it is, and the flag is computed honestly either way.
    """
    two_descent_minimal = {
        Permutation((3, 2, 1)),
        Permutation((3, 1, 4, 2)),
        Permutation((2, 1, 4, 3)),
    }
    patterns = frozenset(two_descent_minimal | one_step_blockers(width_limit))
    return PatternBasis(patterns, is_antichain(patterns), "theorem-constructed")


def is_antichain(patterns: frozenset[Permutation]) -> bool:
    """No element of ``patterns`` is a (strict or equal) pattern of another."""
    items = sorted(patterns, key=len)
    for i, small in enumerate(items):
        for big in items[i + 1 :]:
            if len(small) < len(big) and contains_pattern(big, small):
                return False
    return True


def minimal_forbidden_basis(spec: ClassSpec, max_size: int) -> PatternBasis:
    """Brute-force minimal forbidden patterns up to ``max_size``: the
    non-members all of whose one-element deletions are members.

    Downward closure of the class makes one-element-deletion minimality
    equivalent to pattern-minimality, so the result is an antichain.
    """
    _check_cap(max_size)
    minimal: list[Permutation] = []
    smaller: frozenset[Permutation] = frozenset()
    for n in range(1, max_size + 1):
        members = enumerate_class(spec, n)
        for candidate in all_permutations(n):
            if candidate in members:
                continue
            if all(delete(candidate, pos) in smaller for pos in range(1, n + 1)):
                minimal.append(candidate)
        smaller = members
    return PatternBasis(frozenset(minimal), True, "brute-force")


def basis_to_json(
    basis: PatternBasis,
    width_limit: int | float,
    budget: int,
    max_size: int | None,
) -> dict:
    limit = "inf" if math.isinf(width_limit) else int(width_limit)
    return {
        "patterns": [str(p) for p in basis.sorted_patterns()],
        "K": limit,
        "p": budget,
        "max_size": max_size,
        "antichain": basis.antichain,
        "provenance": basis.provenance,
    }
