import math

import pytest

from duploss import (
    InvalidParameterError,
    InvalidWidthError,
    Permutation,
    WidthPolicy,
    all_permutations,
    bfs_min_steps,
    descent_count,
    identity,
    inversions,
    lower_bound_steps,
    parse_width_policy,
    per_permutation_lower_bound,
    random_permutation,
    reversed_identity,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
)
from duploss import bench
from duploss.bench import CSV_SCHEMA, CSV_VERSION_COMMENT, REVERSED_IDENTITY_SEED, _derive_seed
from helpers import swap_loop_permutation

# Seeds a campaign actually draws with, beside the small and extreme ones.
SWAP_LOOP_SEEDS = (0, 1, 7, 2**63 - 1) + tuple(
    _derive_seed(*args) for args in ((9, 256, 0), (9, 2048, 1), (2701, 1024, 0))
)


class TestRandomPermutation:
    def test_empty(self):
        assert random_permutation(0, 123) == Permutation(())

    def test_deterministic(self):
        assert random_permutation(20, 7) == random_permutation(20, 7)
        assert random_permutation(20, 7) != random_permutation(20, 8)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 256, 2048])
    def test_equals_the_swap_loop(self, n):
        for seed in SWAP_LOOP_SEEDS:
            assert random_permutation(n, seed) == swap_loop_permutation(n, seed), seed

    def test_seed_is_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(bench.random, "Random", no_draw)
        for seed in (1.0, None, "7"):
            with pytest.raises(InvalidParameterError, match="^seed must be an integer"):
                random_permutation(8, seed)

    def test_results_are_exact_permutations(self):
        for n in (0, 1, 2, 9, 100):
            for seed in range(20):
                p = random_permutation(n, seed)
                assert type(p) is Permutation
                assert p == Permutation(list(p))

    def test_small_uniformity(self):
        # all 6 permutations of size 3 appear with roughly equal frequency
        counts = {}
        trials = 6000
        for seed in range(trials):
            p = random_permutation(3, seed)
            counts[p.values] = counts.get(p.values, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - trials / 6) < 120  # ~4 sigma

    def test_empirical_descent_mean(self):
        # mean descents over 1e5 samples at n=100 is (n-1)/2 within 3 sigma
        n, samples = 100, 100_000
        total = sum(descent_count(random_permutation(n, seed)) for seed in range(samples))
        mean = total / samples
        sigma = math.sqrt((n + 1) / 12) / math.sqrt(samples)
        assert abs(mean - (n - 1) / 2) < 3 * sigma


class TestLowerBounds:
    def test_trivial(self):
        assert lower_bound_steps(1, 4) == 0
        assert lower_bound_steps(0, 4) == 0

    def test_inversion_term_dominates_at_small_width(self):
        assert lower_bound_steps(6, 2) == 15
        assert bfs_min_steps(Permutation([6, 5, 4, 3, 2, 1]), 2) >= 15

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_log_term_dominates_at_full_width(self, n):
        assert lower_bound_steps(n, n) == math.ceil(math.log2(n))

    def test_per_permutation(self):
        p = Permutation([6, 5, 4, 3, 2, 1])
        assert per_permutation_lower_bound(p, 2) == 15
        assert per_permutation_lower_bound(identity(6), 4) == 0
        # descent term: one descent -> at least one step
        assert per_permutation_lower_bound(Permutation([1, 3, 2]), 3) == 1

    def test_width_below_two_rejected(self):
        for width in (0, 1):
            with pytest.raises(InvalidWidthError):
                per_permutation_lower_bound(Permutation([2, 1]), width)
            with pytest.raises(InvalidWidthError):
                lower_bound_steps(5, width)

    def test_infinite_width_is_full_width(self):
        for n in range(2, 9):
            assert lower_bound_steps(n, math.inf) == lower_bound_steps(n, n)
            assert lower_bound_steps(n, n + 3) == lower_bound_steps(n, n)
        for p in all_permutations(5):
            assert per_permutation_lower_bound(p, math.inf) == per_permutation_lower_bound(p, 5)

    def test_sizes_zero_and_one_need_no_step(self):
        for width in (2, 7, math.inf):
            for n in (0, 1):
                assert lower_bound_steps(n, width) == 0
                assert per_permutation_lower_bound(identity(n), width) == 0


class TestWidthPolicy:
    def test_values(self):
        assert WidthPolicy("constant", 8).width_for(100) == 8
        assert WidthPolicy("full").width_for(100) == 100
        assert WidthPolicy("sqrt").width_for(100) == 10
        assert WidthPolicy("n_over_log").width_for(64) == math.ceil(64 / 6)

    def test_clamped(self):
        assert WidthPolicy("constant", 8).width_for(4) == 4
        assert WidthPolicy("sqrt").width_for(2) == 2
        assert WidthPolicy("full").width_for(1) == 2

    def test_parse(self):
        assert parse_width_policy("constant:8") == WidthPolicy("constant", 8)
        assert parse_width_policy("8") == WidthPolicy("constant", 8)
        assert parse_width_policy("full") == WidthPolicy("full")
        with pytest.raises(ValueError):
            parse_width_policy("cubic")
        with pytest.raises(ValueError):
            WidthPolicy("constant", 1)


class TestRunBenchmark:
    def test_rows_and_reproducibility(self):
        rows = run_benchmark(WidthPolicy("constant", 4), [8, 12], samples=3, seed=42)
        assert len(rows) == 2 * (3 + 1)
        for row in rows:
            assert row.algorithm == "bucket"
            assert row.steps >= 0
            if row.seed == REVERSED_IDENTITY_SEED:
                assert row.inversions == row.n * (row.n - 1) // 2
            else:
                p = random_permutation(row.n, row.seed)
                assert inversions(p) == row.inversions
                assert descent_count(p) == row.descents

    def test_rows_meet_certified_lower_bound(self):
        rows = run_benchmark(WidthPolicy("sqrt"), [9, 16, 25], samples=5, seed=1)
        for row in rows:
            d_term = row.descents.bit_length()
            i_term = math.ceil(row.inversions / (row.width**2 // 4))
            assert row.steps >= max(d_term, i_term)

    def test_full_width_policy_matches_descent_formula(self):
        rows = run_benchmark(WidthPolicy("full"), [6, 7], samples=5, seed=9)
        for row in rows:
            assert row.steps == row.descents.bit_length()

    def test_constant_two_tracks_quarter_n_squared(self):
        rows = run_benchmark(WidthPolicy("constant", 2), [16, 32, 64], samples=20, seed=5)
        by_n: dict[int, list[int]] = {}
        for row in rows:
            if row.seed != REVERSED_IDENTITY_SEED:
                by_n.setdefault(row.n, []).append(row.steps)
        for n, steps in by_n.items():
            mean = sum(steps) / len(steps)
            assert 0.7 <= mean / (n * n / 4) <= 1.3

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            run_benchmark(WidthPolicy("full"), [4], samples=0, seed=0)

    def test_sizes_from_a_generator_give_the_lists_rows(self):
        listed = run_benchmark(WidthPolicy("full"), [4, 5], 1, 0)
        generated = run_benchmark(WidthPolicy("full"), (n for n in [4, 5]), 1, 0)
        assert len(listed) == 4
        assert rows_to_csv(generated) == rows_to_csv(listed)

    @pytest.mark.parametrize("policy", ["constant:8", 8, None])
    def test_rejects_a_policy_that_is_not_a_width_policy(self, policy):
        with pytest.raises(InvalidParameterError, match="must be a WidthPolicy"):
            run_benchmark(policy, [8], 1, 0)


class TestCsv:
    def test_schema_and_determinism(self):
        rows1 = run_benchmark(WidthPolicy("constant", 4), [8], samples=4, seed=7)
        rows2 = run_benchmark(WidthPolicy("constant", 4), [8], samples=4, seed=7)
        csv1, csv2 = rows_to_csv(rows1), rows_to_csv(rows2)
        assert csv1 == csv2
        lines = csv1.splitlines()
        assert lines[0] == CSV_VERSION_COMMENT
        assert lines[1] == CSV_SCHEMA
        assert len(lines) == 2 + len(rows1)
        # wall times blank by default, present with timings enabled
        assert all(line.endswith(",") for line in lines[2:])
        timed = rows_to_csv(rows1, include_timings=True)
        assert not any(line.endswith(",") for line in timed.splitlines()[2:])

    def test_json_mirror(self):
        import json

        rows = run_benchmark(WidthPolicy("constant", 4), [8], samples=2, seed=7)
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == len(rows)
        assert payload[0]["algorithm"] == "bucket"
        assert set(payload[0]) == {
            "n", "K", "algorithm", "seed", "steps", "inversions", "descents", "wall_time_ms",
        }
        assert payload[0]["wall_time_ms"] is None
        timed = json.loads(rows_to_json(rows, include_timings=True))
        assert timed[0]["wall_time_ms"] is not None


class TestWorstCaseRow:
    def test_reversed_identity_row_emitted_first_per_size(self):
        rows = run_benchmark(WidthPolicy("constant", 2), [5, 6], samples=2, seed=3)
        assert rows[0].n == 5 and rows[0].seed == REVERSED_IDENTITY_SEED
        assert rows[3].n == 6 and rows[3].seed == REVERSED_IDENTITY_SEED
        assert rows[0].descents == 4  # reversed identity has n-1 descents
