"""Computations made apart from ``duploss``, used to check its outputs.

Nothing here imports the library.  Permutations are plain tuples of the
values 1..n in one-line notation; steps follow the model's definition: the
window of ``width`` entries at 1-based ``start`` is rearranged into the
entries at the kept offsets, in order, followed by the rest, in order.
"""

from __future__ import annotations

import itertools
import math
import random


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def shuffled(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform permutation of 1..n drawn from ``rng`` (the benchmark's inputs)."""
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return tuple(vals)


def fisher_yates(n: int, seed: int) -> tuple[int, ...]:
    """The documented sampling procedure of the bench CSV: a Mersenne Twister
    seeded with ``seed``, then swaps of position i with a uniform j <= i for
    i = n-1 down to 1 (0-based)."""
    rng = random.Random(seed)
    vals = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        vals[i], vals[j] = vals[j], vals[i]
    return tuple(vals)


def apply_step(work: list[int], start: int, width: int, keep: list[int]) -> None:
    """Apply one step in place, after checking its shape against ``work``."""
    if not (
        start >= 1
        and width >= 1
        and start + width - 1 <= len(work)
        and all(a < b for a, b in zip([0, *keep], [*keep, width + 1]))
    ):
        raise CheckError(f"step start {start} width {width} keep {keep} is malformed "
                         f"for size {len(work)}")
    lo = start - 1
    window = work[lo : lo + width]
    kept = set(keep)
    work[lo : lo + width] = [window[o - 1] for o in keep] + [
        window[o - 1] for o in range(1, width + 1) if o not in kept
    ]


def inversions(values) -> int:
    """Pairs i < j with values[i] > values[j], by a Fenwick tree in O(n log n)."""
    n = len(values)
    tree = [0] * (n + 1)
    count = 0
    for seen, v in enumerate(values):
        i, at_most = v, 0
        while i:
            at_most += tree[i]
            i &= i - 1
        count += seen - at_most
        i = v
        while i <= n:
            tree[i] += 1
            i += i & -i
    return count


def descents(values) -> int:
    return sum(1 for a, b in zip(values, values[1:]) if a > b)


def lower_bound(values, width: int) -> int:
    """Certified steps for one target: max(ceil(log2(d+1)), ceil(inv / floor(K^2/4)))."""
    per_step = width * width // 4
    return max(descents(values).bit_length(), -(-inversions(values) // per_step))


def n_over_log_width(n: int) -> int:
    """The ``n_over_log`` width policy: ceil(n / log2 n), clamped into [2, n]."""
    if n < 2:
        return 2
    return max(2, min(n, math.ceil(n / math.log2(n))))


def one_step_reach(n: int, width: int) -> frozenset[tuple[int, ...]]:
    """Everything one step of width <= ``width`` makes from the identity of size
    n: every window, every keep set (the no-op ones give the identity)."""
    ident = list(range(1, n + 1))
    out = {tuple(ident)}
    for start in range(1, n + 1):
        for w in range(1, min(width, n - start + 1) + 1):
            for r in range(w + 1):
                for keep in itertools.combinations(range(1, w + 1), r):
                    work = ident[:]
                    apply_step(work, start, w, list(keep))
                    out.add(tuple(work))
    return frozenset(out)


def delete(values, index: int) -> tuple[int, ...]:
    """Drop the entry at 0-based ``index`` and rank-normalise the rest."""
    gone = values[index]
    return tuple(v - (v > gone) for i, v in enumerate(values) if i != index)


def minimal_non_members(n: int, members, smaller) -> set[tuple[int, ...]]:
    """Size-n permutations outside ``members`` whose every one-entry deletion
    lies in ``smaller`` (the class at size n-1)."""
    return {
        p
        for p in itertools.permutations(range(1, n + 1))
        if p not in members and all(delete(p, i) in smaller for i in range(n))
    }


def lex_rank(values) -> int:
    """Index of ``values`` in the lexicographic order of its symmetric group."""
    n = len(values)
    rank = 0
    for i, v in enumerate(values):
        smaller_later = sum(1 for w in values[i + 1 :] if w < v)
        rank = rank * (n - i) + smaller_later
    return rank


def bfs_distances(n: int, width: int) -> bytearray:
    """Fewest steps of width <= ``width`` from the identity to every
    permutation of size n, indexed by ``lex_rank`` (255 where unreachable)."""
    moves = set()
    for start in range(n):
        for w in range(2, min(width, n - start) + 1):
            for r in range(w + 1):
                for keep in itertools.combinations(range(w), r):
                    order = list(keep) + [o for o in range(w) if o not in keep]
                    if order != list(range(w)):
                        moves.add((start, w, tuple(order)))
    dist = bytearray([255]) * math.factorial(n)
    frontier = [tuple(range(1, n + 1))]
    seen = set(frontier)
    depth = 0
    while frontier:
        for state in frontier:
            dist[lex_rank(state)] = depth
        depth += 1
        following = []
        for state in frontier:
            for lo, w, order in moves:
                nxt = state[:lo] + tuple(state[lo + o] for o in order) + state[lo + w :]
                if nxt not in seen:
                    seen.add(nxt)
                    following.append(nxt)
        frontier = following
    return dist
