"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Ranges and tolerances are pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines as they complete).
"""

import itertools
import math
import subprocess
import sys
import time

import pytest

from duploss import (
    ClassSpec,
    DupLossStep,
    Permutation,
    all_permutations,
    apply_step,
    bucket_scenario,
    identity,
    inversions_created,
    minimal_forbidden_basis,
    one_step_basis,
    one_step_blockers,
    random_permutation,
    replay,
    reversed_identity,
    rows_to_csv,
    run_benchmark,
)
from duploss.bench import WidthPolicy
from duploss.verify import suite_basis, suite_lemmas, suite_whole_genome

# frozen calibration band for criterion 10 (see that test for the series)
SCALING_BAND = (1.1, 2.6)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


def _check_suite(num: int, name: str, results) -> None:
    failures = [(check, detail) for check, ok, detail in results if not ok]
    _report(num, name, not failures)
    assert not failures, failures


@pytest.fixture(scope="module")
def whole_genome():
    return suite_whole_genome(7)  # criteria 04 and 05 share one run


def test_criterion_01_golden_step_semantics():
    step = DupLossStep(3, 4, frozenset({2, 3}))
    t0 = time.perf_counter()
    result = apply_step(identity(7), step)
    elapsed = time.perf_counter() - t0
    ok = result == Permutation([1, 2, 4, 5, 3, 6, 7]) and elapsed < 1e-3
    _report(1, "golden step semantics", ok)
    assert result == Permutation([1, 2, 4, 5, 3, 6, 7])
    assert elapsed < 1e-3


def test_criterion_02_one_step_basis_reproduction():
    golden = {
        "3,2,1", "3,1,4,2", "2,1,4,3",
        "2,3,4,5,1", "2,3,5,1,4", "2,4,5,1,3", "3,4,5,1,2",
        "2,5,1,3,4", "3,5,1,2,4", "4,5,1,2,3", "5,1,2,3,4",
    }
    basis = minimal_forbidden_basis(ClassSpec(4, 1), 5)
    sizes_ok = all(
        len(one_step_basis(k).patterns) == 3 + 2 ** (k - 1)
        and len(one_step_blockers(k)) == 2 ** (k - 1)
        for k in range(2, 8)
    )
    ok = {str(p) for p in basis.patterns} == golden and sizes_ok
    _report(2, "one-step basis reproduction", ok)
    assert {str(p) for p in basis.patterns} == golden
    assert sizes_ok


def test_criterion_03_class_basis_duality():
    _check_suite(3, "class-basis duality", suite_basis(8))


def test_criterion_04_whole_genome_optimum(whole_genome):
    _check_suite(4, "whole-genome optimum", whole_genome[:2])  # search and radix


def test_criterion_05_descent_characterization(whole_genome):
    _check_suite(5, "descent characterization of unbounded classes", whole_genome[2:])


def test_criterion_06_bucket_correctness():
    failures = []
    for n in range(1, 8):
        for width in range(2, 8):
            for p in all_permutations(n):
                sc = bucket_scenario(p, width)
                if replay(sc) != p or any(s.width > width for s in sc.steps):
                    failures.append((n, width, p))
    for n, width in ((50, 5), (100, 10), (200, 8)):
        for k in range(1000):
            p = random_permutation(n, 10_000 * n + k)
            sc = bucket_scenario(p, width)
            if replay(sc) != p or any(s.width > width for s in sc.steps):
                failures.append((n, width, k))
    ok = not failures
    _report(6, "bucket correctness", ok)
    assert not failures, failures[:5]


def test_criterion_07_lower_bound_consistency():
    rows = []
    rows += run_benchmark(WidthPolicy("constant", 4), [16, 32, 64], samples=25, seed=2024)
    rows += run_benchmark(WidthPolicy("sqrt"), [25, 49], samples=25, seed=2025)
    rows += run_benchmark(WidthPolicy("full"), [8, 16], samples=25, seed=2026)
    rows += run_benchmark(WidthPolicy("n_over_log"), [32, 64], samples=25, seed=2027)
    failures = []
    for row in rows:
        bound = max(
            row.descents.bit_length(),
            math.ceil(row.inversions / (row.width * row.width // 4)),
        )
        if row.steps < bound:
            failures.append(row)
    ok = not failures
    _report(7, "lower-bound consistency on benchmark rows", ok)
    assert not failures, failures[:3]


def test_criterion_08_inversion_creation_bound():
    failures = []
    for width in range(2, 7):
        best = max(
            inversions_created(identity(width), DupLossStep(1, width, frozenset(keep)))
            for r in range(width + 1)
            for keep in itertools.combinations(range(1, width + 1), r)
        )
        if best != width * width // 4:
            failures.append((width, best))
    ok = not failures
    _report(8, "inversion-creation bound", ok)
    assert not failures, failures


def test_criterion_09_vp_lemma_suite():
    _check_suite(9, "vp-vector lemma suite", suite_lemmas(7))


def test_criterion_10_scaling_band():
    width = 8
    sizes = [64, 128, 256, 512, 1024]
    rev_ratios = []
    for n in sizes:
        target = reversed_identity(n)
        sc = bucket_scenario(target, width)
        assert replay(sc) == target
        rev_ratios.append(sc.step_count * width * width / (n * n))
    mean_ratios = []
    for n in sizes:
        total = 0
        for k in range(200):
            p = random_permutation(n, 1_000_000 + 1000 * n + k)
            total += bucket_scenario(p, width).step_count
        mean_ratios.append((total / 200) * width * width / (n * n))
    lo, hi = SCALING_BAND
    spread_ok = max(rev_ratios) / min(rev_ratios) <= 2.5
    band_ok = all(lo <= r <= hi for r in rev_ratios + mean_ratios)
    ok = spread_ok and band_ok
    _report(10, "quadratic-in-n/K scaling band", ok)
    assert spread_ok, rev_ratios
    assert band_ok, (rev_ratios, mean_ratios)


def test_criterion_11_reversed_identity_is_worst():
    failures = []
    for width in (2, 4):
        rev_steps = bucket_scenario(reversed_identity(8), width).step_count
        worst = max(bucket_scenario(p, width).step_count for p in all_permutations(8))
        if rev_steps != worst:
            failures.append((width, rev_steps, worst))
    ok = not failures
    _report(11, "reversed identity maximizes bucket steps", ok)
    assert not failures, failures


def test_criterion_12_bench_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "duploss.cli", "bench", "--policy", "constant:6",
        "--sizes", "16,32", "--samples", "5", "--seed", "314",
    ]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        proc = subprocess.run(argv + ["--csv", str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    # the library-level writer is deterministic too
    rows = run_benchmark(WidthPolicy("constant", 6), [16, 32], samples=5, seed=314)
    ok = ok and rows_to_csv(rows) == paths[0].read_text()
    _report(12, "benchmark determinism", ok)
    assert ok
