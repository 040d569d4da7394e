"""Seeded sampling, certified lower bounds, and the benchmark harness.

Sampling shuffles 1..n with ``random.Random(seed).shuffle``, a Mersenne
Twister seeded per call, so every emitted row can be regenerated from its
(n, seed) pair alone.  Benchmark rows are replay-verified and checked
against the per-permutation lower bound before they are emitted.
CSV output is deterministic by default: wall-clock timings live in the
``BenchRow`` objects but are only written when explicitly requested, since
they vary between runs.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InvalidParameterError, VerificationError
from .permutation import (
    Permutation,
    _as_permutation,
    _check_iterable,
    _check_kind,
    _check_size,
    _trusted,
    _values,
    descent_count,
    inversions,
    reversed_identity,
)
from .scenarios import bucket_scenario, replay
from .steps import _check_width

__all__ = [
    "WidthPolicy",
    "BenchRow",
    "parse_width_policy",
    "random_permutation",
    "lower_bound_steps",
    "per_permutation_lower_bound",
    "run_benchmark",
    "rows_to_csv",
    "rows_to_json",
]

CSV_SCHEMA = "n,K,algorithm,seed,steps,inversions,descents,wall_time_ms"
CSV_VERSION_COMMENT = f"# duploss bench csv v1: {CSV_SCHEMA}"

REVERSED_IDENTITY_SEED = -1  # marks the deterministic worst-case row

# The width rule of each scaled policy kind, for sizes n >= 2.
_SCALED_WIDTHS = {
    "full": lambda n: n,
    "n_over_log": lambda n: math.ceil(n / math.log2(n)),
    "sqrt": lambda n: math.ceil(math.sqrt(n)),
}


@dataclass(frozen=True)
class WidthPolicy:
    """How the width limit K depends on the size n.

    kinds: "constant" (a fixed c) or a scaled kind of ``_SCALED_WIDTHS``:
    "full" (K = n), "n_over_log" (ceil(n / log2 n)) or "sqrt"
    (ceil(sqrt(n))).  The evaluated value is clamped into [2, n] (and is 2
    when n < 2).
    """

    kind: str
    constant: int | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if type(self.constant) is not int or self.constant < 2:
                raise InvalidParameterError("constant policy needs a constant >= 2")
        elif self.kind not in _SCALED_WIDTHS:
            raise InvalidParameterError(f"unknown width policy kind {self.kind!r}")

    def width_for(self, n: int) -> int:
        if n < 2:
            return 2
        rule = _SCALED_WIDTHS.get(self.kind)
        return max(2, min(n, rule(n) if rule else self.constant))


def parse_width_policy(text: str) -> WidthPolicy:
    """Parse "constant:8" (or bare "8") or the name of a scaled kind."""
    _check_kind(text, str, "width policy text")
    text = text.strip()
    if text in _SCALED_WIDTHS:
        return WidthPolicy(text)
    constant = text.removeprefix("constant:").strip()
    if constant.isdecimal():
        return WidthPolicy("constant", int(constant))
    raise InvalidParameterError(f"cannot parse width policy {text!r}")


def random_permutation(n: int, seed: int) -> Permutation:
    """Uniform permutation of size n, deterministic per (n, seed).  The seed
    must be an ``int``, since ``random.Random`` also takes None (OS entropy).
    ``random.Random(seed).shuffle`` draws the values, wrapped unchecked."""
    vals = list(_values(n))
    if type(seed) is not int:
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    random.Random(seed).shuffle(vals)
    return _trusted(vals)


def _lower_bound(n: int, d: int, inv: int, width_limit: int) -> int:
    """The larger of the descent term ceil(log2(d + 1)) and the inversion
    term ceil(inv / floor(K^2/4)), for a size-n permutation with d descents
    and inv inversions.  K may be ``math.inf``; it is taken as at most n,
    since no window is wider than the permutation.  Sizes 0 and 1 need no
    step."""
    _check_width(width_limit)
    if n <= 1:
        return 0
    k = min(width_limit, n)
    log_term = d.bit_length()  # == ceil(log2(d + 1))
    inv_term = math.ceil(inv / (k * k // 4))
    return max(log_term, inv_term)


def lower_bound_steps(n: int, width_limit: int) -> int:
    """Steps certifiably necessary for the worst permutation of size n: the
    bound of a permutation with n - 1 descents and n(n-1)/2 inversions."""
    _check_size(n)
    return _lower_bound(n, n - 1, n * (n - 1) // 2, width_limit)


def per_permutation_lower_bound(perm: Permutation, width_limit: int) -> int:
    """Steps certifiably necessary for this particular permutation."""
    perm = _as_permutation(perm)
    return _lower_bound(len(perm), descent_count(perm), inversions(perm), width_limit)


@dataclass(frozen=True)
class BenchRow:
    n: int
    width: int
    algorithm: str
    seed: int
    steps: int
    inversions: int
    descents: int
    wall_time_ms: float


def _derive_seed(master: int, n: int, index: int) -> int:
    """Stable per-sample seed mixing; recorded in the row for reproducibility."""
    h = (
        master * 0x9E3779B97F4A7C15
        + n * 0xBF58476D1CE4E5B9
        + index * 0x94D049BB133111EB
    ) & (2**63 - 1)
    return h


def _bench_one(perm: Permutation, width: int, seed: int) -> BenchRow:
    t0 = time.perf_counter()
    scenario = bucket_scenario(perm, width)
    final = replay(scenario)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if final != perm:
        raise VerificationError(f"scenario for {perm} replayed to {final}")
    steps = scenario.step_count
    inv, d = inversions(perm), descent_count(perm)
    bound = _lower_bound(len(perm), d, inv, width)
    if steps < bound:
        raise VerificationError(f"step count {steps} below certified lower bound {bound}")
    return BenchRow(
        n=len(perm),
        width=width,
        algorithm="bucket",
        seed=seed,
        steps=steps,
        inversions=inv,
        descents=d,
        wall_time_ms=elapsed_ms,
    )


def run_benchmark(
    policy: WidthPolicy, sizes: Iterable[int], samples: int, seed: int
) -> list[BenchRow]:
    """Bucket-scenario rows for each size: the reversed identity first, then
    ``samples`` seeded uniform permutations.  Every row is replay-verified and
    lower-bound-checked."""
    _check_kind(policy, WidthPolicy, "policy")
    if type(samples) is not int or samples < 1:
        raise InvalidParameterError(f"samples must be an integer >= 1, got {samples!r}")
    # read once, so that a one-shot iterator gives the check and the rows
    # the same sizes
    values = list(sizes) if isinstance(sizes, Iterable) else None
    if values is None or any(type(n) is not int or n < 0 for n in values):
        raise InvalidParameterError(f"sizes must be integers >= 0, got {sizes!r}")
    if type(seed) is not int:
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    rows = []
    for n in values:
        width = policy.width_for(n)
        rows.append(_bench_one(reversed_identity(n), width, REVERSED_IDENTITY_SEED))
        for k in range(samples):
            row_seed = _derive_seed(seed, n, k)
            rows.append(_bench_one(random_permutation(n, row_seed), width, row_seed))
    return rows


def _cells(r: BenchRow, include_timings: bool) -> tuple:
    """The row's values in ``CSV_SCHEMA`` order; the wall time, rounded to
    3 decimals, is None unless timings are requested."""
    _check_kind(r, BenchRow, "row")
    wall = round(r.wall_time_ms, 3) if include_timings else None
    return (r.n, r.width, r.algorithm, r.seed, r.steps, r.inversions, r.descents, wall)


def rows_to_csv(rows: list[BenchRow], include_timings: bool = False) -> str:
    """Render rows under the fixed, versioned schema.

    Timings are left blank unless requested, so identical seeds yield
    byte-identical output.
    """
    _check_iterable(rows, "rows")
    lines = [CSV_VERSION_COMMENT, CSV_SCHEMA]
    for r in rows:
        *cells, wall = _cells(r, include_timings)
        lines.append(",".join([*map(str, cells), "" if wall is None else f"{wall:.3f}"]))
    return "".join(line + "\n" for line in lines)


def rows_to_json(rows: list[BenchRow], include_timings: bool = False) -> str:
    """JSON mirror of the CSV schema."""
    _check_iterable(rows, "rows")
    keys = CSV_SCHEMA.split(",")
    return json.dumps([dict(zip(keys, _cells(r, include_timings))) for r in rows], indent=2)
