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
which rejects a negative size and sizes above 256, whose values no longer
fit in a byte, and keys one search by (n, min(K, n)), so an infinite width
and any width of at least n share the search at width n, a
``_LayeredSearch`` that holds each state as its one-line key only.  A class at
budget p is a read-only set, a ``_ClassView``, over the ``Permutation``s of
the first p + 1 layers, built once per layer; other queries build none.

The search does its work in ``_LayeredSearch.grow`` only, and that first
refuses, with ``BudgetExceededError``, a request that may reach more than
``_MAX_STATES`` = 2^20 states (``_check_states``).  The count is worked out
before anything is built: with E(n, K) step effects, a budget-p query
reaches at most min(n!, E^0 + ... + E^p) states, and a distance query at
most n!.  So a distance query is admitted up to n = 9 and refused from
n = 10 on (at width 2 or more), while a small budget at narrow width is
admitted at any size up to 256: (K = 3, p = 2) at n = 256 predicts 582,933
states.  Between queries the searches are kept, least recently used first,
while they hold at most ``_MAX_STATES`` states in all.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Set
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
)
from .permutation import (
    Permutation,
    _as_permutation,
    _check_iterable,
    _check_kind,
    _trusted,
    contains_pattern,
    delete,
    descent_count,
)
from .steps import (
    _check_effect_count,
    _check_key_size,
    _check_width,
    _effect_count,
    _moving_both_ends,
    key_states,
    reverse_complements,
    state_key,
    successor_values,
)

__all__ = [
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

# The most states a search may be predicted to reach, and the most the held
# searches keep between them: S_9 (362,880) fits, S_10 (3,628,800) does not.
_MAX_STATES = 1 << 20


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


def _check_states(n: int, width: int | float, depth: int | float) -> int:
    """The states a search of size n at width <= ``width`` may reach within
    ``depth`` layers, min(n!, E^0 + ... + E^depth) for E(n, width) step
    effects: 1 when E = 0 (width 1), n! when ``depth`` is infinite.  Refuses
    a count over ``_MAX_STATES`` with ``BudgetExceededError``.  The sum
    stops once it reaches n! or passes the budget, so it adds at most 20
    terms whatever ``depth`` is: E >= 2 wherever n! > 2.
    """
    effects = _effect_count(n, width)
    ceiling = math.factorial(n) if effects else 1
    states = term = 1
    layers = 0
    while layers < depth and states < ceiling and states <= _MAX_STATES:
        term *= effects
        states += term
        layers += 1
    states = min(states, ceiling)
    if states > _MAX_STATES:
        within = "any number of" if depth == math.inf else depth
        raise BudgetExceededError(
            f"a search of size {n} at width {width} may reach over {_MAX_STATES} "
            f"states within {within} steps"
        )
    return states


class _LayeredSearch:
    """Breadth-first layers of the successor relation from identity(n).

    ``layers[d]`` lists the one-line keys (``steps.state_key``) at distance
    d, sorted, so in lexicographic order of one-line notation, and ``dist``
    maps each key to its distance, filled in that order.  The kernel
    composes effects on the left, which gives the same layers as steps
    applied on the right (see ``steps``).  Every layer is closed under
    reverse-complement, so a layer is
    expanded by one call of ``steps.successor_values`` on the keys x with
    x <= rc(x); the new keys N and rc(N) make the next layer.  Only
    ``enumerate_class`` builds ``members[d]``, the ``Permutation``s of
    ``layers[d]`` in order.  Layers are expanded on demand and kept, so
    later queries at the same (n, width) reuse all earlier work; an empty
    last layer means the search is exhausted.
    """

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        start = state_key(range(1, n + 1))
        self.dist: dict[bytes, int] = {start: 0}
        self.layers: list[list[bytes]] = [[start]]
        self.members: list[list[Permutation]] = []

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def _expand_layer(self) -> None:
        keys = self.layers[-1]
        reps = list(itertools.compress(keys, map(operator.le, keys, reverse_complements(keys))))
        new = successor_values(reps, self.width).difference(self.dist)
        if new:
            new.update(reverse_complements(list(new)))
        keys = sorted(new)
        self.dist.update(dict.fromkeys(keys, len(self.layers)))
        self.layers.append(keys)

    def grow(self, depth: int | float, state: bytes | None = None) -> None:
        """Expand layers until the state keyed ``state`` is found, ``depth``
        layers lie past the identity or the search is exhausted.  A depth
        that may reach over ``_MAX_STATES`` states is refused first, before
        any layer is expanded."""
        _check_states(self.n, self.width, depth)
        while self.depth < depth and state not in self.dist and self.layers[-1]:
            self._expand_layer()


_searches: dict[tuple[int, int], _LayeredSearch] = {}


def _search(n: int, width_limit: int | float) -> _LayeredSearch:
    """The one memoized search of size n under width limit K (infinity acts
    as n); refuses negative sizes and sizes above 256.  The other searches
    are dropped, least recently used first, while they and this one hold
    more than ``_MAX_STATES`` states."""
    _check_key_size(n)
    key = (n, min(width_limit, n))
    search = _searches.pop(key, None)
    if search is None:
        search = _LayeredSearch(*key)
    held = sum(len(s.dist) for s in _searches.values()) + len(search.dist)
    while held > _MAX_STATES:
        held -= len(_searches.pop(next(iter(_searches))).dist)
    _searches[key] = search
    return search


def clear_search_cache() -> None:
    _searches.clear()


class _ClassView(Set):
    """The members of some search layers, as a read-only set that iterates
    the member lists' own objects.  It is equal and hash-equal to the frozenset
    of its members, and its set operators return frozensets.  Membership
    asks that frozenset, built on the first test, so it answers as the
    frozenset does: a plain tuple equal to a member is in, an unhashable
    value raises ``TypeError``."""

    __slots__ = ("_layers", "_len", "_members")
    __hash__ = Set._hash
    _from_iterable = frozenset

    def __init__(self, layers: list[list[Permutation]]):
        self._layers = layers
        self._len = sum(map(len, layers))
        self._members: frozenset[Permutation] | None = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return itertools.chain.from_iterable(self._layers)

    def __contains__(self, value) -> bool:
        if self._members is None:
            self._members = frozenset(self)
        return value in self._members


def enumerate_class(spec: ClassSpec, n: int) -> Set[Permutation]:
    """All size-n permutations reachable within the spec's budget, as a
    read-only set over the search's first budget + 1 member lists, each built
    once (``_ClassView``).  Later growth of the search leaves it unchanged."""
    _check_kind(spec, ClassSpec, "class spec")
    search = _search(n, spec.width_limit)
    search.grow(spec.budget)
    members = search.members
    members += [key_states(keys, n) for keys in search.layers[len(members) : spec.budget + 1]]
    return _ClassView(members[: spec.budget + 1])


def is_member(perm: Permutation, spec: ClassSpec) -> bool:
    """Whether ``perm`` is reachable within the spec's budget."""
    _check_kind(spec, ClassSpec, "class spec")
    perm = _as_permutation(perm)
    search = _search(len(perm), spec.width_limit)
    key = state_key(perm)
    search.grow(spec.budget, key)
    return search.dist.get(key, spec.budget + 1) <= spec.budget


def bfs_min_steps(perm: Permutation, width_limit: int | float) -> int:
    """Minimal number of width-bounded steps building ``perm`` from identity."""
    perm = _as_permutation(perm)
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
    return frozenset(map(_trusted, _moving_both_ends(list(range(1, k + 2)), k + 1)))


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
    """No element of ``patterns`` is a (strict or equal) pattern of another.

    Each pattern is tested only against strictly larger ones, and not
    against one with fewer descents: a subsequence of entries spread over r
    ascending runs has at most r runs, so a pattern never has more descents
    than a permutation containing it.
    """
    _check_iterable(patterns, "patterns")
    items = sorted(patterns, key=len)
    sizes = [len(p) for p in items]
    falls = [descent_count(p) for p in items]
    for small, size, fall in zip(items, sizes, falls):
        larger = bisect.bisect_right(sizes, size)
        for big, big_fall in zip(items[larger:], falls[larger:]):
            if fall <= big_fall and contains_pattern(big, small):
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
    kept = map(_trusted, itertools.filterfalse(skip.__contains__, candidates))
    return {big for big in kept if all(delete(big, pos) in smaller for pos in range(1, n + 1))}


def minimal_forbidden_basis(spec: ClassSpec, max_size: int) -> PatternBasis:
    """Minimal forbidden patterns up to ``max_size``, the non-members whose
    one-point deletions are all members, built size by size by
    ``_extensions``.  Downward closure makes this minimality equivalent to
    pattern-minimality, so the result is an antichain.  Its provenance,
    "brute-force", means found from the class search, not from a theorem.
    Its largest class is checked against the state budget up front.
    """
    _check_kind(spec, ClassSpec, "class spec")
    _check_key_size(max_size)
    _check_states(max_size, spec.width_limit, spec.budget)
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
    _check_kind(basis, PatternBasis, "basis")
    return {
        "patterns": [str(p) for p in basis.sorted_patterns()],
        "K": "inf" if width_limit == math.inf else width_limit,
        "p": budget,
        "max_size": max_size,
        "antichain": basis.antichain,
        "provenance": basis.provenance,
    }
