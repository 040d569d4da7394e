"""Reachability classes of bounded-width duplication-loss and their
forbidden-pattern bases.

The class with parameters (K, p) holds every permutation (of any size)
reachable from the identity in at most p steps of width at most K.  Because
no-op steps exist, "at most p" and "exactly p" coincide.  The class is closed
downward under pattern containment, so it is also the avoider set of a basis
of minimal forbidden patterns; for p = 1 that basis has a closed form.  Such
sets are built size by size by one rule, ``_extensions``: a permutation
avoids a basis iff it is not in the basis and its one-point deletions avoid it.

Exhaustive operations breadth-first-search the successor relation from the
identity.  Every one of them reaches the memo through ``_search(n, K)``,
which rejects a negative size, checks the size cap and keys one search by
(n, min(K, n)), so an infinite width and any width of at least n share the
search at width n, a ``_LayeredSearch`` on inverse keys.  A class at budget
p is the union of its first p + 1 layers, grown from the last class
returned.  The cap (default 10) refuses sizes beyond desk scale, S_11 and
up; the DUPLOSS_ENUM_CAP environment variable, an integer, is the one
override.  Sizes above 256, whose positions no longer fit in a byte, are
refused whatever the cap says.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
)
from .permutation import Permutation, contains_pattern, delete
from .steps import (
    _check_effect_count,
    _check_key_size,
    _check_width,
    _moving_both_ends,
    key_states,
    reverse_complements,
    state_key,
    successor_values,
)

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
        _check_width(self.width_limit)
        budget = self.budget
        if type(budget) is not int or budget < 0:
            raise InvalidParameterError(f"step budget must be an integer >= 0, got {budget!r}")


@dataclass(frozen=True)
class PatternBasis:
    """A set of forbidden patterns, flagged when it forms an antichain
    (no element is a pattern of another)."""

    patterns: frozenset[Permutation]
    antichain: bool
    provenance: str  # "theorem-constructed" | "brute-force"

    def sorted_patterns(self) -> list[Permutation]:
        return sorted(self.patterns, key=lambda p: (len(p), p))


def _check_size(n: int) -> None:
    if type(n) is not int or n < 0:
        raise InvalidParameterError(f"size must be an integer >= 0, got {n!r}")
    _check_key_size(n)
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

    The memo is keyed by inverse keys (``steps.state_key``): ``dist`` maps
    each visited state's key to its step distance, and ``frontier`` holds
    the keys of the last layer, sorted.  Every layer is closed under
    reverse-complement (``steps.reverse_complements``), so a layer is
    expanded by one call of ``steps.successor_values`` on the keys x with
    x <= rc(x); the new keys N and rc(N) make the next layer.
    ``layers[d]`` lists the states at distance d, one ``Permutation`` each,
    built once from its key when the state is found.  Layers are expanded
    on demand and kept, so later queries at the same (n, width) reuse all
    earlier work; an empty last layer means the search is exhausted.
    ``last_class`` is the (budget, class) ``enumerate_class`` returned last.
    """

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        start = state_key(range(1, n + 1))
        self.dist: dict[bytes, int] = {start: 0}
        self.frontier: list[bytes] = [start]
        self.layers: list[list[Permutation]] = [key_states(self.frontier, n)]
        self.last_class: tuple[int, frozenset[Permutation]] = (-1, frozenset())

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def _expand_layer(self) -> None:
        keys = self.frontier
        reps = list(itertools.compress(keys, map(operator.le, keys, reverse_complements(keys))))
        new = successor_values(reps, self.width).difference(self.dist)
        if new:
            new.update(reverse_complements(list(new)))
        self.frontier = sorted(new)
        self.dist.update(dict.fromkeys(self.frontier, len(self.layers)))
        self.layers.append(key_states(self.frontier, self.n))

    def grow(self, depth: int | float, state: bytes | None = None) -> None:
        """Expand layers until the state keyed ``state`` is found, ``depth``
        layers lie past the identity or the search is exhausted."""
        while self.depth < depth and state not in self.dist and self.layers[-1]:
            self._expand_layer()


_searches: dict[tuple[int, int], _LayeredSearch] = {}


def _search(n: int, width_limit: int | float) -> _LayeredSearch:
    """The one memoized search of size n under width limit K (infinity acts
    as n); refuses negative sizes and sizes beyond the cap."""
    _check_size(n)
    key = (n, min(width_limit, n))
    if key not in _searches:
        _searches[key] = _LayeredSearch(*key)
    return _searches[key]


def clear_search_cache() -> None:
    _searches.clear()


def enumerate_class(spec: ClassSpec, n: int) -> frozenset[Permutation]:
    """All size-n permutations reachable within the spec's budget.

    A budget at or above the last one asked of this search is answered by
    adding the layers between the two to the last class, so a rising run of
    budgets hashes each state in once.
    """
    search = _search(n, spec.width_limit)
    search.grow(spec.budget)
    budget = min(spec.budget, search.depth)
    last, members = search.last_class
    if last > budget:
        last, members = -1, frozenset()
    if last < budget:
        members = members.union(*search.layers[last + 1 : budget + 1])
        search.last_class = (budget, members)
    return members


def is_member(perm: Permutation, spec: ClassSpec) -> bool:
    """Whether ``perm`` is reachable within the spec's budget."""
    search = _search(len(perm), spec.width_limit)
    key = state_key(perm)
    search.grow(spec.budget, key)
    return search.dist.get(key, spec.budget + 1) <= spec.budget


def bfs_min_steps(perm: Permutation, width_limit: int | float) -> int:
    """Minimal number of width-bounded steps building ``perm`` from identity."""
    _check_width(width_limit, least=1)
    search = _search(len(perm), width_limit)
    key = state_key(perm)
    search.grow(math.inf, key)
    if key not in search.dist:
        raise InvalidWidthError(
            f"state {tuple(perm)} unreachable at width {search.width}; "
            "widths below 2 reach only the identity"
        )
    return search.dist[key]


def one_step_blockers(width_limit: int) -> frozenset[Permutation]:
    """The one-descent permutations of size K+1 that no single width-K step
    can produce: those not starting with 1 and not ending with K+1.

    They are the width-(K+1) step effects on identity(K+1), from
    ``steps._moving_both_ends``: the first run is {K+1} union S for each
    subset S of {2..K}, so there are 2^(K-1) of them, and above 2^14
    (K >= 16) they raise ``BudgetExceededError`` before any is built.
    """
    if width_limit == math.inf:
        raise InfiniteWidthError("blocker set is defined for finite width limits only")
    _check_width(width_limit)
    k = width_limit
    _check_effect_count(1 << (k - 1), f"blockers of width {k}")
    return frozenset(map(Permutation, _moving_both_ends(list(range(1, k + 2)), k + 1)))


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


def _extensions(smaller, n: int, skip=frozenset()) -> set[Permutation]:
    """The size-n permutations outside ``skip`` whose one-point deletions all
    lie in ``smaller``, a set of size-(n-1) permutations.  Each arises once,
    as n inserted into its deletion of n; ``skip`` is tested first.

    >>> sorted(map(str, _extensions({(1, 2), (2, 1)}, 3, skip={(3, 2, 1)})))
    ['1,2,3', '1,3,2', '2,1,3', '2,3,1', '3,1,2']
    """
    candidates = ((*small[:i], n, *small[i:]) for small in smaller for i in range(n))
    kept = map(Permutation, itertools.filterfalse(skip.__contains__, candidates))
    return {big for big in kept if all(delete(big, pos) in smaller for pos in range(1, n + 1))}


def minimal_forbidden_basis(spec: ClassSpec, max_size: int) -> PatternBasis:
    """Minimal forbidden patterns up to ``max_size``, the non-members whose
    one-point deletions are all members, built size by size by
    ``_extensions``.  Downward closure makes this minimality equivalent to
    pattern-minimality, so the result is an antichain.  Its provenance,
    "brute-force", means found from the class search, not from a theorem.
    """
    _check_size(max_size)
    minimal, smaller = set(), {Permutation(())}
    for n in range(1, max_size + 1):
        members = enumerate_class(spec, n)
        minimal |= _extensions(smaller, n, skip=members)
        smaller = members
    return PatternBasis(frozenset(minimal), True, "brute-force")


def basis_to_json(
    basis: PatternBasis,
    width_limit: int | float,
    budget: int,
    max_size: int | None,
) -> dict:
    return {
        "patterns": [str(p) for p in basis.sorted_patterns()],
        "K": "inf" if width_limit == math.inf else width_limit,
        "p": budget,
        "max_size": max_size,
        "antichain": basis.antichain,
        "provenance": basis.provenance,
    }
