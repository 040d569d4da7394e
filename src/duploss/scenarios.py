"""Scenario generators: transcripts of duplication-loss steps that build a
target permutation from the identity.

Two generators are provided.

``radix_scenario`` is the unbounded model (K >= n).  Entries are labelled by
the 0-based index of the maximal increasing run of the target they belong to,
and one step per label bit (least significant first) keeps the 0-bit entries
in the first copy.  This is a stable radix sort of the labels and finishes in
exactly ceil(log2(descents + 1)) steps, each spanning the whole permutation.

``bucket_scenario`` handles arbitrary targets under a width limit K.  Working
right to left in blocks of floor(K/2) positions (plus a leftmost remainder
block of width at most K), phase 1 convoys each block's values into place in
increasing order, and phase 2 runs the radix generator inside each block.
Each convoy stably partitions the positions up to its block's end, so phase
1 reads a member's position as its rank among the values not yet placed.
Both phases emit masks only, from value ranks and from run labels; only
``steps.apply_step_to_list`` (one step) and ``steps.apply_steps_to_list`` (a
transcript) write the effect of steps.  Phase 1 builds its
steps through the unchecked ``steps._step`` and emits each run of windows
that reaches no new member in one comprehension; phase 2 builds them
through the checked ``DupLossStep``.  Phase 2 sorts on byte columns: one
byte per position holds 8 bits of its run label, and each bit's pass reads
its keep mask and its stable partition from ``bytes.translate``, so only
the labelling and one column per 8 bits run Python code per value.

Each generator takes a ``Permutation`` as is and checks any other target
through the ``Permutation`` constructor, so a repeated or missing value is
a typed error, and so is a target that is not iterable.

``replay`` checks every step's width and window first, then applies the
whole transcript by ``steps.apply_steps_to_list``, which writes each run of
convoy steps that reach no new member as one slice rotation.  ``Scenario``
stores its steps as a tuple and refuses any entry that is not a
``DupLossStep``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import InvalidParameterError, NotSortedWindowError, WidthExceededError
from .permutation import Permutation, _as_permutation, _check_kind, _check_size, _trusted
from .steps import (
    DupLossStep,
    _check_width,
    _check_window,
    _step,
    apply_steps_to_list,
    step_to_json,
)

__all__ = [
    "Scenario",
    "radix_scenario",
    "bucket_scenario",
    "bucket_phases",
    "bucket_windows",
    "replay",
    "scenario_to_json",
]


@dataclass(frozen=True)
class Scenario:
    """An ordered step list replayable from identity(n) under a width limit.

    ``width_limit`` may be ``math.inf`` for the unbounded (whole-permutation)
    model; every step must respect it for the scenario to replay.  The steps
    may be given as any iterable of ``DupLossStep`` and are stored as a tuple.
    """

    n: int
    width_limit: int | float
    steps: tuple[DupLossStep, ...]

    def __post_init__(self):
        _check_size(self.n)
        _check_width(self.width_limit, least=1)
        try:
            steps = tuple(self.steps)
        except TypeError:
            raise InvalidParameterError(f"steps {self.steps!r} are not iterable") from None
        for step in steps:
            if not isinstance(step, DupLossStep):
                raise InvalidParameterError(f"step {step!r} is not a DupLossStep")
        object.__setattr__(self, "steps", steps)

    @property
    def step_count(self) -> int:
        return len(self.steps)


# For label bit b of a byte digit d: _KEEP_DIGIT[b] maps d to b"1" when bit b is
# clear (the value is kept first), else b"0"; _WITH_BIT[b] and _WITHOUT_BIT[b]
# hold the digits with bit b set and clear.
_KEEP_DIGIT = [(b"1" * (1 << b) + b"0" * (1 << b)) * (128 >> b) for b in range(8)]
_WITH_BIT = [
    bytes(compress(range(256), (b"\0" * (1 << b) + b"\1" * (1 << b)) * (128 >> b)))
    for b in range(8)
]
_WITHOUT_BIT = [bytes(range(256)).translate(None, digits) for digits in _WITH_BIT]


def _radix_steps(start: int, target: Sequence[int]) -> list[DupLossStep]:
    """The steps rearranging the increasing arrangement of ``target``'s values,
    at positions start.., into ``target``: one stable pass per run-label bit,
    least significant first, keeps the 0-bit values first.  Exactly
    descents.bit_length() steps.

    The passes run on byte columns, 8 label bits at a time.  ``lab`` holds
    the labels in window order, and ``col`` one byte per position: the
    current group's digit of that position's label.  A pass's keep mask is
    ``col`` translated to binary digits, and the pass itself is the stable
    partition of ``col`` by two byte deletions, so no Python code runs per
    value inside a group.  Between groups ``lab`` is stably sorted by the
    finished group's digit, which is where its passes leave it.  The
    target's labels do not decrease, so the passes end with ``col`` sorted.
    """
    label = {}
    run = 0
    prev = None
    for v in target:
        if prev is not None and v < prev:
            run += 1
        label[v] = run
        prev = v
    k, bits = len(target), run.bit_length()
    lab = list(map(label.__getitem__, sorted(target)))
    steps = []
    col = b""
    for lo in range(0, bits, 8):
        if lo:
            lab.sort(key=lambda x: x >> lo - 8 & 255)
        col = bytes([x >> lo & 255 for x in lab])
        for b in range(min(8, bits - lo)):
            steps.append(DupLossStep(start, k, int(col.translate(_KEEP_DIGIT[b])[::-1], 2)))
            col = col.translate(None, _WITH_BIT[b]) + col.translate(None, _WITHOUT_BIT[b])
    if col != bytes(sorted(col)):
        raise NotSortedWindowError(f"radix passes at {start} did not build {list(target)}")
    return steps


def radix_scenario(target: Permutation) -> Scenario:
    """Scenario building ``target`` from the identity with whole-permutation
    steps, under width limit n (1 when n = 0)."""
    target = _as_permutation(target)
    n = len(target)
    return Scenario(n, max(n, 1), tuple(_radix_steps(1, target.values)))


def bucket_windows(n: int, width_limit: int | float) -> list[tuple[int, int]]:
    """The block decomposition of positions 1..n used by the bucket generator,
    left to right: a remainder block of width <= K, then floor(K/2)-wide blocks
    anchored at the right end."""
    _check_size(n)
    _check_width(width_limit)
    if n == 0:
        return []
    if n <= width_limit:
        return [(1, n)]
    half = width_limit // 2
    blocks = math.ceil((n - width_limit) / half)
    windows = [(1, n - blocks * half)]
    for i in range(blocks, 0, -1):
        windows.append((n - i * half + 1, n - (i - 1) * half))
    return windows


def _convoy_steps(
    where: Sequence[int], target_start: int, target_end: int, width_limit: int
) -> list[DupLossStep]:
    """The steps moving the members at increasing positions ``where`` to
    target_start..target_end, each group keeping its order.  Each K-wide
    window starts at the convoy [s, s+m-1] of the m members moved so far
    (clamped to end at target_end) and moves it and each member it reaches
    to its end; the last ends at target_end.

    A run of windows that reach no new member and end before target_end is
    fully determined: each has mask (1 << K) - (1 << m), and s advances by
    K - m.  With ``nxt`` the next member's position capped at target_end,
    the run has (nxt - s - K) // (K - m) + 1 steps, emitted in one
    comprehension.  When the members fit the block, the k - m still to come
    lie at or before target_start + m, so no run passes target_start.  The
    steps are built by the unchecked ``steps._step``.  Raises
    NotSortedWindowError unless they fill the block exactly.
    """
    k, m = len(where), 0  # where[m:] are still where they started
    s = where[0] if k else target_start
    steps: list[DupLossStep] = []
    while s < target_start and m < width_limit:  # K members would fill the window
        gain = width_limit - m
        nxt = min(where[m], target_end) if m < k else target_end
        run = (nxt - s - width_limit) // gain + 1
        if run > 0:
            mask = (1 << width_limit) - (1 << m)
            steps += [_step(lo, width_limit, mask) for lo in range(s, s + run * gain, gain)]
            s += run * gain
            if s >= target_start:
                break
        hi = min(s + width_limit - 1, target_end)
        lo = max(1, hi - width_limit + 1)
        moved = ((1 << m) - 1) << (s - lo)
        while m < k and where[m] <= hi:
            moved |= 1 << (where[m] - lo)
            m += 1
        steps.append(_step(lo, hi - lo + 1, ((1 << (hi - lo + 1)) - 1) ^ moved))
        s = hi - m + 1
        if hi == target_end:
            break
    if k != target_end - target_start + 1 or s != target_start or where[-1] > target_end:
        raise NotSortedWindowError(f"convoy left [{target_start}, {target_end}] unfilled")
    return steps


def bucket_phases(
    target: Permutation, width_limit: int | float
) -> tuple[list[DupLossStep], list[DupLossStep]]:
    """The two step lists of the bucket generator for ``target``.

    Phase 1 convoys each block's values into place, rightmost block first.
    Until block [t1, t2] is convoyed, positions 1..t2 hold the values not yet
    placed in increasing order, so a member's position is its rank among them.
    Phase 2 starts from every block increasing and radix-rearranges the blocks
    right to left, the leftmost remainder block last.
    """
    target = _as_permutation(target)
    n = len(target)
    windows = bucket_windows(n, width_limit)
    unplaced = list(range(1, n + 1))
    phase1: list[DupLossStep] = []
    # windows[0] is the leftmost remainder block; convoy the others right to left.
    for t1, t2 in reversed(windows[1:]):
        where = [bisect_left(unplaced, v) + 1 for v in sorted(target[t1 - 1 : t2])]
        phase1.extend(_convoy_steps(where, t1, t2, width_limit))
        for p in reversed(where):
            del unplaced[p - 1]
    phase2: list[DupLossStep] = []
    for t1, t2 in list(reversed(windows[1:])) + windows[:1]:
        phase2.extend(_radix_steps(t1, target[t1 - 1 : t2]))
    return phase1, phase2


def bucket_scenario(target: Permutation, width_limit: int | float) -> Scenario:
    """A width-bounded scenario building ``target`` from the identity.

    For n <= K this degenerates to a single radix call on the whole
    permutation; widths never exceed the limit.
    """
    target = _as_permutation(target)
    phase1, phase2 = bucket_phases(target, width_limit)
    return Scenario(len(target), width_limit, tuple(phase1 + phase2))


def _check_steps(scenario: Scenario) -> None:
    """Each step's width against the limit, then its window against n, in
    one pass; raises for the first offending step.  ``_check_window`` runs
    only for a window that ends past n, so it raises every time it runs."""
    n, limit = scenario.n, scenario.width_limit
    for step in scenario.steps:
        if step.width > limit:
            raise WidthExceededError(f"step width {step.width} exceeds limit {limit}")
        if step.start + step.width > n + 1:
            _check_window(step, n)


def replay(scenario: Scenario) -> Permutation:
    """Fold the steps over identity(n), validating width and window bounds.
    Steps permute entries, so the result is wrapped without re-checking it.
    A ``scenario`` that is not a ``Scenario`` raises ``InvalidParameterError``."""
    _check_kind(scenario, Scenario, "scenario")
    _check_steps(scenario)
    work = list(range(1, scenario.n + 1))
    apply_steps_to_list(work, scenario.steps)
    return _trusted(work)


def scenario_to_json(scenario: Scenario) -> dict:
    """JSON form: width limit "inf" when unbounded, plus the replayed result.
    ``replay`` runs first, so it refuses what is not a ``Scenario``."""
    final = str(replay(scenario))
    return {
        "n": scenario.n,
        "width_limit": "inf" if scenario.width_limit == math.inf else scenario.width_limit,
        "steps": [step_to_json(s) for s in scenario.steps],
        "final": final,
    }

