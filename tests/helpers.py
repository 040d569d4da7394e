"""Independent brute-force oracles and shared hypothesis strategies.

Everything here recomputes results from first principles (itertools
enumeration, direct filtering) so that library outputs are checked against
code that shares none of their implementation.
"""

import itertools
import math
import random

from hypothesis import strategies as st

from duploss import (
    DupLossStep,
    NotSortedWindowError,
    Permutation,
    WidthExceededError,
    all_permutations,
    bucket_phases,
    bucket_windows,
    delete,
    enumerate_class,
    random_permutation,
)
from duploss.steps import _check_window, _effects, apply_step_to_list


def rank_pattern(vals):
    """Rank-normalize a sequence of distinct ints to a tuple over 1..k."""
    order = sorted(vals)
    rank = {v: r + 1 for r, v in enumerate(order)}
    return tuple(rank[v] for v in vals)


def brute_occurrence_indices(host, patt):
    """All 1-indexed occurrence index tuples, by full combination scan."""
    out = []
    for combo in itertools.combinations(range(len(host)), len(patt)):
        if rank_pattern([host[i] for i in combo]) == tuple(patt):
            out.append(tuple(i + 1 for i in combo))
    return out


def brute_step_results(vals, start0, width):
    """All outputs of steps on the window [start0, start0+width) (0-indexed),
    over every keep subset, by direct list surgery."""
    window = vals[start0 : start0 + width]
    results = set()
    for r in range(width + 1):
        for kept in itertools.combinations(range(width), r):
            keptv = [window[i] for i in kept]
            lostv = [window[i] for i in range(width) if i not in kept]
            results.add(vals[:start0] + tuple(keptv + lostv) + vals[start0 + width :])
    return results


def mask_offsets(width, mask):
    """The offsets 1..width a keep mask keeps, read bit by bit."""
    return frozenset(o + 1 for o in range(width) if mask >> o & 1)


def apply_keep_set(values, step):
    """A step's effect read from its keep set, decoded here from
    ``step.mask`` bit by bit: the window becomes its entries at kept offsets,
    then the others, each group in its original order.  The slow-path
    oracle of the mask kernel ``apply_step_to_list``, sharing none of its
    decoding."""
    lo, keep = step.start - 1, mask_offsets(step.width, step.mask)
    window = values[lo : lo + step.width]
    kept = [v for o, v in enumerate(window, 1) if o in keep]
    values[lo : lo + step.width] = kept + [v for o, v in enumerate(window, 1) if o not in keep]


def replay_step_by_step(scenario):
    """Fold the steps over identity(n) one ``apply_step_to_list`` call per
    step, checking each step's width against the limit, then its window
    against n, just before applying it.  The slow-path oracle of
    ``scenarios.replay``, which checks every step first and applies each
    run of rotation steps as one slice rotation."""
    work = list(range(1, scenario.n + 1))
    for step in scenario.steps:
        if step.width > scenario.width_limit:
            raise WidthExceededError(
                f"step width {step.width} exceeds limit {scenario.width_limit}"
            )
        _check_window(step, scenario.n)
        apply_step_to_list(work, step)
    return Permutation(work)


def move_right(work, lo, hi, moved):
    """The step on window [lo, hi] that keeps the entries not in ``moved`` in
    the first copy and the others in the second.  The window of ``work`` is
    rewritten in the same pass that finds the keep mask."""
    kept, rest, mask, bit = [], [], 0, 1
    for v in work[lo - 1 : hi]:
        if v in moved:
            rest.append(v)
        else:
            kept.append(v)
            mask |= bit
        bit <<= 1
    work[lo - 1 : hi] = kept + rest
    return DupLossStep(lo, hi - lo + 1, mask)


def scan_radix_steps(work, start, target):
    """Rearrange the increasing arrangement of ``target``'s values, sitting in
    ``work`` at positions start.., into ``target`` by one ``move_right`` per
    run-label bit, least significant first; mutates ``work`` and returns the
    steps.  The slow-path oracle of ``scenarios._radix_steps``, which builds
    each mask from the labels without a working list."""
    k = len(target)
    label = {}
    run = 0
    prev = None
    for v in target:
        if prev is not None and v < prev:
            run += 1
        label[v] = run
        prev = v
    steps = []
    for bit in range(run.bit_length()):
        ones = frozenset(v for v in target if label[v] >> bit & 1)
        steps.append(move_right(work, start, start + k - 1, ones))
    if work[start - 1 : start - 1 + k] != list(target):
        raise NotSortedWindowError(
            f"window [{start}, {start + k - 1}] did not hold {sorted(target)} in increasing order"
        )
    return steps


def scan_convoy(work, members, target_start, target_end, width_limit):
    """Move ``members`` rightward so they occupy target_start..target_end,
    each step a ``move_right`` that scans and rewrites its width-K window;
    mutates ``work`` and returns the steps.  The window starts at the
    leftmost member, clamped to end at target_end, and the step whose window
    ends there is the last."""
    s = next((i for i, v in enumerate(work, 1) if v in members), target_start)
    steps = []
    while s < target_start:
        if s + width_limit - 1 >= target_end:
            lo, hi = max(1, target_end - width_limit + 1), target_end
        else:
            lo, hi = s, s + width_limit - 1
        step = move_right(work, lo, hi, members)
        steps.append(step)
        if hi == target_end:
            break
        s = lo + step.mask.bit_count()  # the members now fill the window's right end
    return steps


def scan_bucket_phases(target, width_limit):
    """The bucket generator's two phases with phase 1 by ``scan_convoy``, and
    phase 2 by ``scan_radix_steps`` started from the list phase 1 wrote.  The
    slow-path oracle of ``bucket_phases``, which computes phase 1 from value
    ranks and phase 2 from run labels, and writes no list; the blocks are
    the library's own."""
    windows = bucket_windows(len(target), width_limit)
    work = list(range(1, len(target) + 1))
    phase1 = []
    for t1, t2 in reversed(windows[1:]):
        phase1 += scan_convoy(work, frozenset(target[t1 - 1 : t2]), t1, t2, width_limit)
    phase2 = []
    for t1, t2 in list(reversed(windows[1:])) + windows[:1]:
        phase2 += scan_radix_steps(work, t1, target[t1 - 1 : t2])
    return phase1, phase2


def check_bucket_phases(
    sizes, seeds, widths=lambda n: (2, 3, 8, math.ceil(n / math.log2(n)), math.inf)
):
    """Assert ``bucket_phases`` equals ``scan_bucket_phases`` step for step on
    ``random_permutation(n, seed)`` for each size, seed and width in
    ``widths(n)``; returns the number of distinct cases checked."""
    cases = 0
    for n in sizes:
        for seed in seeds:
            p = random_permutation(n, seed)
            for limit in dict.fromkeys(widths(n)):
                assert bucket_phases(p, limit) == scan_bucket_phases(p, limit), (n, seed, limit)
                cases += 1
    return cases


def backtrack_contains(host, pattern):
    """True iff some subsequence of ``host`` is order-isomorphic to ``pattern``,
    by comparing each candidate with every entry already chosen.  The
    slow-path oracle of ``contains_pattern``, which compares it with two.

    Backtracking with prefix pruning: a partial choice is extended only while
    it stays order-isomorphic to the corresponding pattern prefix, and the
    search stops at the first full match.

    >>> backtrack_contains(Permutation([1, 4, 2, 5, 6, 3]), Permutation([1, 3, 4, 2]))
    True
    >>> backtrack_contains(Permutation([1, 4, 2, 5, 6, 3]), Permutation([3, 2, 1]))
    False
    """
    hv, patt = tuple(host), tuple(pattern)
    n, k = len(hv), len(patt)
    chosen = []

    def extend(depth: int, start: int) -> bool:
        if depth == k:
            return True
        for i in range(start, n - (k - depth) + 1):
            v = hv[i]
            if all((v > hv[j]) == (patt[depth] > patt[d]) for d, j in enumerate(chosen)):
                chosen.append(i)
                if extend(depth + 1, i + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def longest_decreasing_length(vals):
    """The length of a longest decreasing subsequence, by the quadratic
    dynamic program: the longest ending at entry j is one more than the
    longest ending at an earlier, larger entry.  The oracle of the one-pass
    matchers of monotone patterns, which keep one tail per length."""
    ending = []
    for j, v in enumerate(vals):
        ending.append(1 + max((ending[i] for i in range(j) if vals[i] > v), default=0))
    return max(ending, default=0)


def scan_minimal_forbidden_basis(spec, max_size):
    """Minimal forbidden patterns up to ``max_size``, by a scan of each S_n
    for the non-members all of whose one-point deletions are members.  The
    slow-path oracle of ``minimal_forbidden_basis``, which builds each size
    from the class one size below."""
    minimal = set()
    smaller = frozenset()
    for n in range(1, max_size + 1):
        members = enumerate_class(spec, n)
        for candidate in all_permutations(n):
            if candidate in members:
                continue
            if all(delete(candidate, pos) in smaller for pos in range(1, n + 1)):
                minimal.add(candidate)
        smaller = members
    return frozenset(minimal)


def keep_set_effect_maps(n, width):
    """The set of position maps of every step of width 2..width on size n,
    identity aside, built from offset sets through ``apply_keep_set``: the
    oracle of ``steps._effects(n, width)``, which builds each map once."""
    maps = set()
    for lo in range(n):
        for w in range(2, min(width, n - lo) + 1):
            for mask in range(1 << w):
                positions = list(range(n))
                apply_keep_set(positions, DupLossStep(lo + 1, w, mask_offsets(w, mask)))
                maps.add(tuple(positions))
    maps.discard(tuple(range(n)))
    return maps


def per_key_successor_values(keys, width_limit):
    """The keys one step of width <= width_limit from any of ``keys``, plus
    ``keys`` themselves, each once in order of first appearance, by one
    ``translate`` per key and effect table.  The slow-path oracle of the
    layer kernel ``steps.successor_values``, which translates the joined
    layer once per table."""
    tables = _effects(len(keys[0]), min(width_limit, len(keys[0])))
    stepped = itertools.chain.from_iterable(map(key.translate, tables) for key in keys)
    return dict.fromkeys(itertools.chain(keys, stepped))


def per_key_layers(start, width_limit):
    """The breadth-first layers, as lists of keys, of the search from the
    key ``start`` over ``per_key_successor_values``, every state expanded."""
    seen = {start}
    layers = [[start]]
    while layers[-1]:
        layer = [key for key in per_key_successor_values(layers[-1], width_limit) if key not in seen]
        seen.update(layer)
        layers.append(layer)
    return layers


def brute_successors(vals, width_limit):
    """One-step neighborhood by direct window/subset enumeration."""
    n = len(vals)
    out = {vals}
    for start0 in range(n):
        for width in range(1, min(width_limit, n) + 1):
            if start0 + width > n:
                break
            out |= brute_step_results(vals, start0, width)
    return out


def brute_distances(n, width_limit):
    """Step distance from the identity of every reachable size-n state, by a
    plain breadth-first search over ``brute_successors``."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for succ in brute_successors(state, width_limit):
                if succ not in dist:
                    dist[succ] = dist[state] + 1
                    nxt.append(succ)
        frontier = nxt
    return dist


def brute_one_descent(m):
    """All permutations of size m with exactly one descent, by filtering."""
    out = []
    for vals in itertools.permutations(range(1, m + 1)):
        if sum(1 for i in range(m - 1) if vals[i] > vals[i + 1]) == 1:
            out.append(Permutation(vals))
    return out


def descent_positions(vals):
    return {i + 1 for i in range(len(vals) - 1) if vals[i] > vals[i + 1]}


def descent_count_by_scan(vals):
    """Descents counted in one pass over adjacent pairs.  The oracle of
    ``descent_count``, which reads the descent set."""
    v = tuple(vals)
    return sum(1 for i in range(len(v) - 1) if v[i] > v[i + 1])


def run_partition_by_scan(vals):
    """Maximal increasing runs as 1-indexed (start, end) ranges, cut in one
    pass wherever an entry is smaller than the one before.  The oracle of
    ``ascending_run_partition``, which cuts at the sorted descent set."""
    v = tuple(vals)
    n = len(v)
    if n == 0:
        return []
    runs = []
    start = 1
    for i in range(1, n):
        if v[i] < v[i - 1]:
            runs.append((start, i))
            start = i + 1
    runs.append((start, n))
    return runs


def inversion_count(vals):
    n = len(vals)
    return sum(1 for i in range(n) for j in range(i + 1, n) if vals[i] > vals[j])


def fenwick_inversions(vals):
    """Inversions of distinct values in 1..len(vals) in O(n log n): each entry
    adds the number of larger entries before it, read off a Fenwick tree over
    the values seen so far.  The oracle of ``permutation._count_inversions``
    at sizes too large for the all-pairs ``inversion_count``."""
    n = len(vals)
    tree = [0] * (n + 1)
    count = 0
    for seen, v in enumerate(vals):
        i, not_larger = v, 0
        while i:
            not_larger += tree[i]
            i &= i - 1
        count += seen - not_larger
        while v <= n:
            tree[v] += 1
            v += v & -v
    return count


def swap_loop_permutation(n, seed):
    """Fisher-Yates by one ``randrange`` swap per position, from the last
    down.  The oracle of ``random_permutation``, which shuffles instead."""
    vals = list(range(1, n + 1))
    rng = random.Random(seed)
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        vals[i], vals[j] = vals[j], vals[i]
    return Permutation(vals)


@st.composite
def permutations_st(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    vals = draw(st.permutations(tuple(range(1, n + 1))))
    return Permutation(vals)
