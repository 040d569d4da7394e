"""Value-position vectors: how far each value sits from its sorted position,
and what those displacement spans jointly cover.

For a value i of a permutation, its vp-vector spans the positions between
where i currently sits and position i (both ends included); it is empty
exactly when i is a fixpoint, and otherwise covers at least two elements.
The vp-domain is the set of all elements covered by at least one vp-vector;
a contiguous run of positions holding no vp-domain element is a free window,
and all of its elements are fixpoints.

Besides the definitions, this module provides executable checks of two
removal facts used when reasoning about minimal forbidden patterns: deleting
one element changes each surviving value's span size by at most one, and some
deletion position always creates at most one new fixpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NoWitnessError
from .permutation import Permutation, _as_permutation, delete

__all__ = [
    "VpVector",
    "FreeWindowDecomposition",
    "vp_vector",
    "vp_vectors",
    "vp_domain",
    "free_window_decomposition",
    "fixpoints",
    "quasi_diagonal_values",
    "removal_span_stability",
    "safe_removal_position",
    "format_vp_vectors",
]


@dataclass(frozen=True)
class VpVector:
    """The displacement span of one value.

    ``covered`` lists, in position order, the elements at positions between
    ``from_position`` (where the value sits) and ``to_position`` (where it
    belongs); it is empty iff the value is a fixpoint.
    """

    value: int
    from_position: int
    to_position: int
    covered: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.covered)

    @property
    def is_empty(self) -> bool:
        return not self.covered

    @property
    def direction(self) -> int:
        """-1 leftward move, +1 rightward, 0 for a fixpoint."""
        if self.is_empty:
            return 0
        return 1 if self.to_position > self.from_position else -1


@dataclass(frozen=True)
class FreeWindowDecomposition:
    """Alternating maximal position runs inside/outside the vp-domain.

    Both window lists hold 1-indexed inclusive (start, end) ranges; together
    they are disjoint and cover 1..n.
    """

    vp_windows: tuple[tuple[int, int], ...]
    free_windows: tuple[tuple[int, int], ...]


def vp_vector(perm: Permutation, value: int) -> VpVector:
    """The vp-vector of one value; empty when the value is a fixpoint."""
    perm = _as_permutation(perm)
    from_pos = perm.position_of(value)
    to_pos = value
    if from_pos == to_pos:
        return VpVector(value, from_pos, to_pos, ())
    lo, hi = min(from_pos, to_pos), max(from_pos, to_pos)
    return VpVector(value, from_pos, to_pos, perm.values[lo - 1 : hi])


def vp_vectors(perm: Permutation) -> list[VpVector]:
    """The vp-vectors of every value 1..n, in value order."""
    perm = _as_permutation(perm)
    return [vp_vector(perm, i) for i in range(1, len(perm) + 1)]


def vp_domain(perm: Permutation) -> frozenset[int]:
    """All elements covered by at least one vp-vector."""
    out: set[int] = set()
    for vec in vp_vectors(perm):
        out.update(vec.covered)
    return frozenset(out)


def free_window_decomposition(perm: Permutation) -> FreeWindowDecomposition:
    """Split 1..n into maximal runs of vp-domain positions and free runs."""
    perm = _as_permutation(perm)
    domain = vp_domain(perm)
    vp_runs: list[tuple[int, int]] = []
    free_runs: list[tuple[int, int]] = []
    start = 1
    for covered, run in itertools.groupby(perm.values, key=domain.__contains__):
        end = start + len(list(run)) - 1
        (vp_runs if covered else free_runs).append((start, end))
        start = end + 1
    return FreeWindowDecomposition(tuple(vp_runs), tuple(free_runs))


def fixpoints(perm: Permutation) -> set[int]:
    return {v for i, v in enumerate(_as_permutation(perm), start=1) if v == i}


def quasi_diagonal_values(perm: Permutation) -> set[int]:
    """Values sitting immediately next to their sorted position: i with
    sigma_{i-1} = i or sigma_{i+1} = i.  Only these can become fixpoints
    when a single element is removed."""
    v = _as_permutation(perm)[:]
    n = len(v)
    out = set()
    for i in range(1, n + 1):
        if i >= 2 and v[i - 2] == i:
            out.add(i)
        if i <= n - 1 and v[i] == i:
            out.add(i)
    return out


def removal_span_stability(perm: Permutation) -> bool:
    """Check that every single-element removal leaves every surviving
    non-fixpoint value either a fixpoint or with its vp-vector size changed
    by at most one.

    Survivor values are compared after rank renormalization: value i above
    the removed value becomes i - 1 in the reduced permutation.
    """
    perm = _as_permutation(perm)
    n = len(perm)
    sizes = {vec.value: vec.size for vec in vp_vectors(perm) if not vec.is_empty}
    for position in range(1, n + 1):
        removed = perm.value_at(position)
        reduced = delete(perm, position)
        for value, size in sizes.items():
            if value == removed:
                continue
            shifted = value - 1 if value > removed else value
            after = vp_vector(reduced, shifted).size
            if after != 0 and abs(after - size) > 1:
                return False
    return True


def safe_removal_position(perm: Permutation) -> int:
    """A position whose removal yields at most one more fixpoint.

    Such a position always exists; scanning left to right returns the first.
    """
    perm = _as_permutation(perm)
    n = len(perm)
    if n < 1:
        raise NoWitnessError("empty permutation has no removal position")
    before = len(fixpoints(perm))
    for position in range(1, n + 1):
        if len(fixpoints(delete(perm, position))) <= before + 1:
            return position
    raise NoWitnessError(f"no safe removal position in {perm}")


def format_vp_vectors(perm: Permutation) -> str:
    """Diagnostic dump: one line per value with its span and covered set."""
    perm = _as_permutation(perm)
    lines = [f"vp-vectors of {perm}"]
    for vec in vp_vectors(perm):
        if vec.is_empty:
            lines.append(f"  {vec.value}: fixpoint")
        else:
            arrow = "->" if vec.direction > 0 else "<-"
            lines.append(
                f"  {vec.value}: position {vec.from_position} {arrow} {vec.to_position}"
                f"  covers {{{', '.join(str(v) for v in vec.covered)}}}"
            )
    dom = sorted(vp_domain(perm))
    lines.append(f"vp-domain: {{{', '.join(str(v) for v in dom)}}}")
    return "\n".join(lines)
