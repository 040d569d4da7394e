"""One tandem duplication - random loss step and the step neighborhood.

A step duplicates the window of ``width`` entries starting at ``start``,
inserts the copy immediately after the original, then deletes one copy of
every duplicated entry.  The net effect keeps the offsets in ``keep`` (in
their original order) followed by the remaining offsets (in their original
order); everything outside the window is untouched.  Width-1 steps and keep
sets that are a prefix {1..j} of the window are legal no-ops.

A step holds its keep set as an int bitmask, ``mask``: bit o-1 is set when
offset o is kept.  ``DupLossStep`` accepts either that mask or a set of
offsets, and ``keep`` reads the offsets back as a frozenset.  It checks
every argument, at the edge.  ``_step(start, width, mask)`` sets the slots
unchecked, for a generated step (the rule is at ``permutation._trusted``).

``apply_step_to_list`` writes one step's effect: it reorders the window
by an ``operator.itemgetter`` made once per ``(width, mask)``, decoded in C
and kept in a bounded cache (``_window_order``).  ``apply_step`` and the step
neighbourhood apply steps through it, and both scenario generator phases
emit masks only.  The tests pin it to ``tests/helpers.apply_keep_set``.
``apply_steps_to_list`` writes the effect of a sequence of steps, for
replay: a run of rotation steps (each keeps a suffix of its window, all of
one width and mask, each starting where the one before left its moved
entries), which the bucket convoy emits at narrow K, is one slice rotation,
and every other step goes through ``apply_step_to_list``.

The step neighborhood works on one-line keys: ``state_key(perm)`` is the
permutation as ``bytes`` (byte i holds the 0-based value at position i), so
sizes up to ``MAX_KEY_SIZE`` = 256 fit.  ``_effects`` builds each step effect
once per (size, width), from the steps that move both ends of their window,
as its position map m in a 256-byte ``bytes.translate`` table, refuses over
2^14 of them with ``BudgetExceededError`` and holds at most 2^16 tables
between calls.  Translating a key by m relabels its values: it gives the key
of m o pi, the effect composed on the left, where a step takes pi to pi o m.
A search from the identity needs only the layers, and those are the same
either way: the distance of pi is its word length over the set S of effects,
and the products of k effects form one set S^k whichever side each factor is
composed on.  ``successor_values`` is the layer kernel: it joins a whole
breadth-first layer of keys into one ``bytes``, translates that once per
effect, splits each result back into keys with a cached ``struct.Struct``
and returns the neighbourhood as a set.
The effects are closed under reversal, so ``reverse_complements`` (rc:
reverse positions and complement values, one reversed join, translate and
split per layer) maps a neighbourhood onto the neighbourhood of the rc
states.  ``successors`` applies the steps to a ``Permutation`` itself, on
the right, and reads no keys.

``_check_width`` is the one rule for a width limit K, and every entry point
that takes K calls it: K is an exact ``int`` of at least 2, or at least 1
for ``successors``, ``classes.bfs_min_steps`` and ``scenarios.Scenario``, or
``math.inf``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvalidWidthError,
    WindowOutOfRangeError,
)
from .permutation import (
    Permutation,
    _as_permutation,
    _check_kind,
    _check_size,
    _count_inversions,
    _trusted,
)

__all__ = [
    "DupLossStep",
    "apply_step",
    "successors",
    "inversions_created",
    "step_to_json",
]


@dataclass(frozen=True, init=False, repr=False, slots=True)
class DupLossStep:
    """A duplication-loss event: window ``[start, start+width-1]`` plus the
    relative offsets (1..width) retained in the first copy, given either as
    a set of offsets or as a bitmask (bit o-1 set when offset o is kept)."""

    start: int
    width: int
    mask: int

    def __init__(self, start: int, width: int, keep: int | Iterable[int] = 0):
        if type(start) is not int or start < 1:
            raise InvalidParameterError(f"start must be an integer >= 1, got {start!r}")
        if type(width) is not int or width < 1:
            raise InvalidParameterError(f"width must be an integer >= 1, got {width!r}")
        if isinstance(keep, int):
            if type(keep) is not int or not 0 <= keep < 1 << width:
                raise InvalidParameterError(f"keep mask {keep!r} outside 0..{(1 << width) - 1}")
            mask = keep
        else:
            try:
                offsets = frozenset(keep)
            except TypeError:
                raise InvalidParameterError(
                    f"keep {keep!r} is neither a mask nor a set of offsets"
                ) from None
            for o in offsets:
                if type(o) is not int:
                    raise InvalidParameterError(f"keep offset {o!r} is not an integer")
            if not offsets <= set(range(1, width + 1)):
                raise InvalidParameterError(f"keep offsets {sorted(offsets)} outside 1..{width}")
            mask = sum(1 << (o - 1) for o in offsets)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mask", mask)

    @property
    def keep(self) -> frozenset[int]:
        return frozenset(_kept_offsets(self.width, self.mask))

    @property
    def end(self) -> int:
        return self.start + self.width - 1

    def __repr__(self) -> str:
        return f"DupLossStep(start={self.start}, width={self.width}, keep={self.keep!r})"


_set_start = DupLossStep.start.__set__
_set_width = DupLossStep.width.__set__
_set_mask = DupLossStep.mask.__set__


def _step(start: int, width: int, mask: int) -> DupLossStep:
    """The trusted constructor: the step with these fields, unchecked, for
    a generator that has built a valid (start, width, mask) itself.  It sets
    the slots directly, so ``DupLossStep.__init__`` and its checks never run."""
    step = object.__new__(DupLossStep)
    _set_start(step, start)
    _set_width(step, width)
    _set_mask(step, mask)
    return step


# Binary digits "0"/"1" to bytes 0/1, and bytes 0/1 swapped.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_FLIP_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _mask_bits(width: int, mask: int) -> bytes:
    """The keep mask as bytes: byte o is 1 when offset o+1 is kept, else 0.

    Decoded in C from the mask's binary digits, lowest first.  Bits at or
    above ``width``, which only the unchecked ``_step`` could set, give extra
    bytes that the callers' ``range(width)`` leaves unread.
    """
    return format(mask, "b").zfill(width)[::-1].encode().translate(_DIGIT_BITS)


@functools.lru_cache(maxsize=1024)
def _kept_offsets(width: int, mask: int) -> tuple[int, ...]:
    """The offsets a keep mask keeps, in increasing order.

    >>> _kept_offsets(5, 0b10110)
    (2, 3, 5)
    """
    return tuple(itertools.compress(range(1, width + 1), _mask_bits(width, mask)))


def _check_width(width_limit: int | float, least: int = 2) -> None:
    """The one rule for a width limit K: an exact ``int`` (no ``bool`` or
    other subclass) of at least ``least``, or ``math.inf``."""
    if width_limit == math.inf:
        return
    if type(width_limit) is not int or width_limit < least:
        raise InvalidWidthError(
            f"width limit must be an integer >= {least} or inf, got {width_limit!r}"
        )


def _check_window(step: DupLossStep, n: int) -> None:
    if step.end > n:
        raise WindowOutOfRangeError(
            f"window [{step.start}, {step.end}] does not fit in size {n}"
        )


@functools.lru_cache(maxsize=1024)
def _window_order(width: int, mask: int) -> operator.itemgetter:
    """The window reordering of a step: kept offsets, then the others.

    Both index lists are picked by ``itertools.compress`` from the mask's
    bytes, ``_mask_bits``, and their flip, so the plan is decoded from the
    mask's binary digits in C, with no Python code per offset.  That matters
    at K = n / log n: wide masks almost never repeat, so most plans are built
    once, and a ``duploss bench --policy n_over_log`` campaign up to n = 2048
    builds about 860 of them, of mean width 89.  For the same reason the
    cache is bounded, like ``_kept_offsets``: unbounded, it would hold one
    entry per step generated.
    """
    bits, offsets = _mask_bits(width, mask), range(width)
    moved = itertools.compress(offsets, bits.translate(_FLIP_BITS))
    return operator.itemgetter(*itertools.compress(offsets, bits), *moved)


def apply_step_to_list(values: list[int], step: DupLossStep) -> None:
    """In-place core of apply_step; callers guarantee the window fits.

    The window becomes its entries at kept offsets, then the others, each
    group in its original order.  Width 1 is a no-op (and an itemgetter of
    one index would return a bare value).
    """
    width = step.width
    if width > 1:
        lo = step.start - 1
        values[lo : lo + width] = _window_order(width, step.mask)(values[lo : lo + width])


def apply_steps_to_list(values: list[int], steps: Iterable[DupLossStep]) -> None:
    """Apply ``steps`` in order, in place; callers guarantee each window fits.

    A rotation step keeps the suffix {m+1..w} of its window, 1 <= m < w: its
    mask is (1 << w) - (1 << m), and it moves the window's first m entries
    to the window's end.  Rotation steps with one width and one mask whose
    starts advance by w - m carry the same m entries, so a run of them is
    one left rotation by m of the span they cover, written as one slice
    assignment.  Every other step goes through ``apply_step_to_list``.

    >>> values = list(range(1, 9))
    >>> apply_steps_to_list(values, [DupLossStep(1, 3, 0b110), DupLossStep(3, 3, 0b110)])
    >>> values
    [2, 3, 4, 5, 1, 6, 7, 8]
    """
    # The open run: left rotation by m of values[lo:...], whose next step
    # would start at nxt.  Starts are at least 1, so nxt = 0 matches none.
    nxt = lo = m = gain = width = mask = 0
    for step in steps:
        if step.start == nxt and step.mask == mask and step.width == width:
            nxt += gain
            continue
        if nxt:
            hi = nxt - gain - 1 + width
            values[lo:hi] = values[lo + m : hi] + values[lo : lo + m]
        width, mask = step.width, step.mask
        low = mask & -mask
        if low > 1 and mask + low == 1 << width:
            m = low.bit_length() - 1
            gain = width - m
            lo = step.start - 1
            nxt = step.start + gain
        else:
            nxt = 0
            apply_step_to_list(values, step)
    if nxt:
        hi = nxt - gain - 1 + width
        values[lo:hi] = values[lo + m : hi] + values[lo : lo + m]


def apply_step(perm: Permutation, step: DupLossStep) -> Permutation:
    """Apply one duplication-loss step.

    >>> from .permutation import identity
    >>> apply_step(identity(7), DupLossStep(3, 4, frozenset({2, 3})))
    Permutation([1, 2, 4, 5, 3, 6, 7])

    A ``perm`` that is not a ``Permutation`` goes through its constructor,
    and a ``step`` that is not a ``DupLossStep`` raises
    ``InvalidParameterError``.
    """
    perm = _as_permutation(perm)
    _check_kind(step, DupLossStep, "step")
    _check_window(step, len(perm))
    vals = list(perm.values)
    apply_step_to_list(vals, step)
    return _trusted(vals)


# The largest size whose 0-based values fit in a byte, as one-line keys need.
MAX_KEY_SIZE = 256
_BYTES = bytes(range(256))
# The most step effects ``_effects`` builds; n = 14, K = 14 has 16,369.
_MAX_EFFECTS = 1 << 14


def _check_key_size(n: int) -> None:
    """The one bound on sizes the one-line keys can hold, past ``_check_size``."""
    _check_size(n)
    if n > MAX_KEY_SIZE:
        raise BudgetExceededError(
            f"size {n} exceeds {MAX_KEY_SIZE}, the largest size whose values fit in a byte"
        )


def state_key(perm: Sequence[int]) -> bytes:
    """The one-line key of a permutation: byte i is the 0-based value at
    position i.

    >>> state_key(Permutation([3, 1, 2]))
    b'\\x02\\x00\\x01'
    """
    return bytes(v - 1 for v in perm)


def key_states(keys: Iterable[bytes], n: int) -> list[Permutation]:
    """The size-n permutations whose one-line keys are ``keys``, in order.

    The keys are joined, translated to 1-based values and unpacked n bytes
    at a time.  Each is a permutation by construction, so it is wrapped
    without ``Permutation``'s check, and without a Python frame per state.
    """
    if 0 < n < 256:
        values = b"".join(keys).translate(_BYTES[1:] + _BYTES[:1])
        return list(map(_trusted, struct.iter_unpack(f"{n}B", values)))
    # A zero-length struct unpacks nothing, and value 256 has no byte.
    return [_trusted(v + 1 for v in key) for key in keys]


def _moving_both_ends(values: list[int], width: int) -> Iterator[list[int]]:
    """``values`` after each width-``width`` step that moves both ends of
    its window: one that keeps the last offset and not the first.  Each
    gives its own arrangement, and any other step that moves anything does
    what one of these does on a narrower window, so over all widths these
    are the step effects, each once."""
    # Windows innermost, so each mask's plan is made once, not once per window.
    for mask in range(1 << (width - 1), 1 << width, 2):
        for lo in range(1, len(values) - width + 2):
            out = values.copy()
            apply_step_to_list(out, _step(lo, width, mask))
            yield out


def _effect_count(n: int, width: int) -> int:
    """E(n, K), the step effects of width <= K on size n, identity aside:
    2^(w-2) on each of the n-w+1 windows of width w.

    >>> _effect_count(8, 3)
    19
    >>> all(_effect_count(n, n) == 2**n - n - 1 for n in range(12))
    True
    """
    return sum((n - w + 1) << (w - 2) for w in range(2, min(width, n) + 1))


def _check_effect_count(count: int, what: str) -> None:
    """The one budget on built step effects."""
    if count > _MAX_EFFECTS:
        raise BudgetExceededError(f"{count} {what} exceed {_MAX_EFFECTS}")


# ``_effects`` keeps its results, least recently used first, while they hold
# at most this many tables in all (an empty result counting as one): four
# sets at the budget, where one near it, (256, 7), is about 4.6 MB.
_MAX_HELD_EFFECTS = 1 << 16
_held_effects: dict[tuple[int, int], tuple[bytes, ...]] = {}


def _effects(n: int, width: int) -> tuple[bytes, ...]:
    """The E(n, width) step effects of width <= ``width`` on size n, from
    ``_moving_both_ends``, as 256-byte ``bytes.translate`` tables.  A step
    takes pi to pi o m, where output position i takes the entry at input
    position m[i]; the table is m itself, the identity past n, and
    translating a one-line key by it gives the key of m o pi.  Results are
    held in ``_held_effects`` within ``_MAX_HELD_EFFECTS`` tables."""
    key = (n, width)
    tables = _held_effects.pop(key, None)
    if tables is None:
        _check_effect_count(_effect_count(n, width), f"step effects on size {n}")
        widths = range(2, min(width, n) + 1)
        maps = itertools.chain.from_iterable(_moving_both_ends(list(range(n)), w) for w in widths)
        tables = tuple(bytes(m) + _BYTES[n:] for m in maps)
        held = sum(max(len(t), 1) for t in _held_effects.values()) + max(len(tables), 1)
        while held > _MAX_HELD_EFFECTS:
            held -= max(len(_held_effects.pop(next(iter(_held_effects)))), 1)
    _held_effects[key] = tables
    return tables


# Keys are split from a joined layer this many at a time, by one cached
# struct per size, made only for layers that long; a shorter remainder gets a
# struct of its own, made with ``struct.Struct`` so that the module's own
# format cache does not keep it.  A struct costs about 32 bytes per key it
# splits, so chunks stay short.
_CHUNK = 1024


@functools.lru_cache(maxsize=16)
def _chunk_struct(n: int) -> struct.Struct:
    return struct.Struct(f"{n}s" * _CHUNK)


def _split_plan(n: int, count: int) -> list[tuple[struct.Struct, int]]:
    """How to cut ``count`` size-n keys, joined end to end, back into keys:
    (struct, offset) pairs whose ``unpack_from`` results chain to the keys."""
    whole, rest = divmod(count, _CHUNK)
    plan = [(_chunk_struct(n), i * _CHUNK * n) for i in range(whole)]
    plan.append((struct.Struct(f"{n}s" * rest), whole * _CHUNK * n))
    return plan


def successor_values(keys: Sequence[bytes], width_limit: int | float) -> set[bytes]:
    """The layer kernel: the set of one-line keys one step effect of width
    <= width_limit, composed on the left, from any of ``keys`` (a nonempty
    layer, all of one size), plus ``keys`` themselves.

    The layer is joined into one ``bytes``, which is translated once per
    step effect and split back into keys, so no Python code runs per key.
    """
    n = len(keys[0])
    plan = _split_plan(n, len(keys))
    joined = b"".join(keys)
    out = set(keys)
    for table in _effects(n, min(width_limit, n)):
        stepped = joined.translate(table)
        for cut, at in plan:
            out.update(cut.unpack_from(stepped, at))
    return out


def reverse_complements(keys: Sequence[bytes]) -> list[bytes]:
    """The one-line keys of rc(pi) = C o pi o R, for the keys of a nonempty
    list of size-n states, in the same order: R reverses positions and C
    complements values, v -> n+1-v.  On a key q this is
    ``q[::-1].translate(flip)`` with ``flip[b] = n-1-b``, applied here to
    the whole joined list at once.  rc is an involution, and since every
    step effect conjugated by R is a step effect, rc(pi) is exactly as far
    from the identity as pi.
    """
    n = len(keys[0])
    flip = bytes.maketrans(_BYTES[:n], _BYTES[:n][::-1])
    joined = b"".join(keys)[::-1].translate(flip)
    plan = _split_plan(n, len(keys))
    out = list(itertools.chain.from_iterable(cut.unpack_from(joined, at) for cut, at in plan))
    out.reverse()
    return out


def successors(perm: Permutation, width_limit: int | float) -> set[Permutation]:
    """All permutations reachable from ``perm`` in one step of width <= width_limit,
    deduplicated by output; ``perm`` itself is always included (no-op masks).
    A ``perm`` that is not a ``Permutation`` goes through its constructor, so
    a non-permutation is a typed error.  Sizes above ``MAX_KEY_SIZE``, and
    sizes and widths with over 2^14 step effects, raise
    ``BudgetExceededError``.

    >>> from .permutation import identity
    >>> sorted(str(p) for p in successors(identity(2), 2))
    ['1,2', '2,1']
    """
    perm = _as_permutation(perm)
    _check_width(width_limit, least=1)
    n = len(perm)
    _check_key_size(n)
    _check_effect_count(_effect_count(n, width_limit), f"step effects on size {n}")
    moved = (_moving_both_ends(list(perm), w) for w in range(2, min(width_limit, n) + 1))
    return {perm, *map(_trusted, itertools.chain.from_iterable(moved))}


def inversions_created(perm: Permutation, step: DupLossStep) -> int:
    """Inversion count change caused by one step (may be negative).

    Only pairs inside the window can change order, so only the window is
    counted: its entries are ranked, and the result is the inversions of the
    ranks after the step minus those before.

    For a step of width k this is never more than floor(k^2 / 4): new
    inversions only pair a kept-first entry with a kept-second one, giving at
    most i*(k-i) of them when i offsets are kept.  A ``perm`` that is not a
    ``Permutation`` goes through its constructor, and a ``step`` that is not
    a ``DupLossStep`` raises ``InvalidParameterError``.
    """
    perm = _as_permutation(perm)
    _check_kind(step, DupLossStep, "step")
    _check_window(step, len(perm))
    lo = step.start - 1
    window = perm.values[lo : lo + step.width]
    rank = {v: r for r, v in enumerate(sorted(window), 1)}
    ranks = [rank[v] for v in window]
    before = _count_inversions(ranks)
    apply_step_to_list(ranks, _step(1, step.width, step.mask))
    return _count_inversions(ranks) - before


def step_to_json(step: DupLossStep) -> dict:
    keep = list(_kept_offsets(step.width, step.mask))
    return {"start": step.start, "width": step.width, "keep": keep}

