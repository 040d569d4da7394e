import itertools
import random

import pytest
from hypothesis import given, settings

from duploss import (
    DuplicateValueError,
    OutOfRangeError,
    Permutation,
    PositionOutOfRangeError,
    ascending_run_partition,
    contains_pattern,
    delete,
    descent_count,
    descents,
    identity,
    inversions,
    one_step_basis,
    parse_one_line,
    random_permutation,
    reversed_identity,
)
from duploss.permutation import _pattern_plan
from helpers import (
    backtrack_contains,
    brute_occurrence_indices,
    descent_count_by_scan,
    inversion_count,
    permutations_st,
    rank_pattern,
    run_partition_by_scan,
)


class TestConstruction:
    def test_identity(self):
        assert Permutation([1, 2, 3]) == identity(3)
        assert Permutation([1, 2, 3]).is_identity()

    def test_valid_size_six(self):
        p = Permutation([5, 2, 4, 3, 1, 6])
        assert len(p) == 6
        assert p.values == (5, 2, 4, 3, 1, 6)

    def test_is_its_one_line_tuple(self):
        p = Permutation((2, 1))
        assert p == (2, 1) and hash(p) == hash((2, 1))
        assert p.values is p

    @pytest.mark.parametrize("name", ["values", "extra"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(Permutation((2, 1)), name, (1, 2))

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateValueError):
            Permutation([1, 1, 2])

    @pytest.mark.parametrize(
        "vals", [[0, 1, 2], [1, 2, 4], [2], [-1], [True], [2, True], [1.5], [2.0, 1]]
    )
    def test_out_of_range_rejected(self, vals):
        with pytest.raises(OutOfRangeError):
            Permutation(vals)

    def test_empty_is_valid(self):
        assert len(Permutation([])) == 0

    def test_text_round_trip(self):
        p = Permutation([5, 2, 4, 3, 1, 6])
        assert parse_one_line(str(p)) == p
        assert str(p) == "5,2,4,3,1,6"
        assert parse_one_line("") == Permutation(())

    def test_parse_rejects_junk(self):
        with pytest.raises(OutOfRangeError):
            parse_one_line("1,two,3")
        with pytest.raises(DuplicateValueError):
            parse_one_line("1,1,2")

    def test_positions_and_values(self):
        p = Permutation([5, 2, 4, 3, 1, 6])
        assert p.value_at(1) == 5
        assert p.position_of(5) == 1
        with pytest.raises(PositionOutOfRangeError):
            p.value_at(7)


class TestStatistics:
    def test_descents_golden(self):
        assert descents(Permutation([5, 2, 4, 3, 1, 6])) == {1, 3, 4}

    @pytest.mark.parametrize("n", range(7))
    def test_identity_has_no_descents(self, n):
        assert descents(identity(n)) == set()

    def test_reversed_identity_descents(self):
        assert descents(Permutation([4, 3, 2, 1])) == {1, 2, 3}

    def test_inversions_goldens(self):
        assert inversions(identity(5)) == 0
        assert inversions(Permutation([2, 1])) == 1
        assert inversions(Permutation([4, 3, 2, 1])) == 6

    @given(permutations_st(max_n=8))
    @settings(deadline=None)
    def test_inversion_bounds(self, p):
        n = len(p)
        assert 0 <= inversions(p) <= n * (n - 1) // 2

    def test_inversion_extremes(self):
        for n in range(7):
            assert inversions(identity(n)) == 0
            assert inversions(reversed_identity(n)) == n * (n - 1) // 2


class TestInversionsAgainstAllPairs:
    """The Fenwick-tree count against the all-pairs count it replaced."""

    def test_every_permutation_through_s8(self):
        for n in range(9):
            for vals in itertools.permutations(range(1, n + 1)):
                assert inversions(Permutation(vals)) == inversion_count(vals)

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_seeded_uniform(self, n):
        for seed in range(3):
            p = random_permutation(n, seed)
            assert inversions(p) == inversion_count(p.values)

    def test_reversed_identity_2048(self):
        p = reversed_identity(2048)
        assert inversions(p) == inversion_count(p.values) == 2048 * 2047 // 2


class TestRunScannersAgainstLoops:
    """``descent_count`` and ``ascending_run_partition``, both read off
    ``descents``, against one-pass loops over adjacent entries."""

    def test_every_permutation_through_s8(self):
        for n in range(9):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                assert descent_count(p) == descent_count_by_scan(vals)
                assert ascending_run_partition(p) == run_partition_by_scan(vals)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_uniform_1024(self, seed):
        p = random_permutation(1024, seed)
        assert descent_count(p) == descent_count_by_scan(p.values)
        assert ascending_run_partition(p) == run_partition_by_scan(p.values)

    def test_every_pair_of_descents_at_n24(self):
        # A set yields small ints in increasing order only while they are below
        # its table size, so two descents far apart come out of order.
        n = 24
        for cuts in itertools.combinations(range(1, n), 2):
            vals, top = [], n
            for a, b in zip([0, *cuts], [*cuts, n]):
                vals += range(top - (b - a) + 1, top + 1)
                top -= b - a
            p = Permutation(vals)
            assert descents(p) == set(cuts)
            assert ascending_run_partition(p) == run_partition_by_scan(vals)


class TestRuns:
    def test_identity_single_run(self):
        assert ascending_run_partition(identity(5)) == [(1, 5)]

    def test_3142(self):
        assert ascending_run_partition(Permutation([3, 1, 4, 2])) == [(1, 1), (2, 3), (4, 4)]

    def test_524316(self):
        runs = ascending_run_partition(Permutation([5, 2, 4, 3, 1, 6]))
        assert runs == [(1, 1), (2, 3), (4, 4), (5, 6)]
        values = [tuple(range(a, b + 1)) for a, b in runs]
        assert values  # ranges are positional; check the contents directly
        p = Permutation([5, 2, 4, 3, 1, 6])
        assert [tuple(p.values[a - 1 : b]) for a, b in runs] == [(5,), (2, 4), (3,), (1, 6)]

    def test_run_count_equals_descents_plus_one_exhaustive(self):
        # exhaustive through size 8
        for n in range(1, 9):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                assert len(ascending_run_partition(p)) == descent_count(p) + 1

    def test_runs_cover_and_increase(self):
        for n in range(7):
            for vals in itertools.permutations(range(1, n + 1)):
                runs = ascending_run_partition(Permutation(vals))
                flat = [i for a, b in runs for i in range(a, b + 1)]
                assert flat == list(range(1, n + 1))
                for a, b in runs:
                    assert all(vals[i] < vals[i + 1] for i in range(a - 1, b - 1))


class TestPatterns:
    def test_golden_containment(self):
        sigma = Permutation([1, 4, 2, 5, 6, 3])
        assert contains_pattern(sigma, Permutation([1, 3, 4, 2]))
        assert not contains_pattern(sigma, Permutation([3, 2, 1]))

    def test_empty_pattern_always_contained(self):
        for p in (identity(0), identity(4), Permutation([3, 1, 2])):
            assert contains_pattern(p, Permutation(()))

    def test_against_brute_force_exhaustive(self):
        for n in range(6):
            for host in itertools.permutations(range(1, n + 1)):
                for k in range(4):
                    for patt in itertools.permutations(range(1, k + 1)):
                        got = contains_pattern(Permutation(host), Permutation(patt))
                        assert got == bool(brute_occurrence_indices(host, patt))

    @given(permutations_st(min_n=4, max_n=8), permutations_st(min_n=1, max_n=4))
    @settings(deadline=None, max_examples=80)
    def test_against_brute_force_random(self, host, patt):
        got = contains_pattern(host, patt)
        assert got == bool(brute_occurrence_indices(host.values, patt.values))

    def test_matches_backtracking_oracle_exhaustive(self):
        """Every host of S_0..S_6 against every pattern of size 0..5."""
        patterns = [
            Permutation(p) for k in range(6) for p in itertools.permutations(range(1, k + 1))
        ]
        pairs = 0
        for n in range(7):
            for vals in itertools.permutations(range(1, n + 1)):
                host = Permutation(vals)
                for patt in patterns:
                    got = contains_pattern(host, patt)
                    assert got == backtrack_contains(host, patt), (host, patt)
                    pairs += 1
        assert pairs == 134_596

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_matches_backtracking_oracle_on_one_step_bases(self, width):
        """Every host of S_7 against each pattern of the one-step basis."""
        patterns = one_step_basis(width).sorted_patterns()
        for vals in itertools.permutations(range(1, 8)):
            host = Permutation(vals)
            for patt in patterns:
                assert contains_pattern(host, patt) == backtrack_contains(host, patt), (host, patt)

    def test_list_pattern_answers_as_its_tuple(self):
        for vals in itertools.permutations(range(1, 6)):
            host = Permutation(vals)
            for k in range(4):
                for patt in itertools.permutations(range(1, k + 1)):
                    assert contains_pattern(host, list(patt)) == contains_pattern(host, patt)

    def test_longer_pattern_is_never_contained(self):
        assert not contains_pattern(identity(2), identity(3))
        assert not contains_pattern(Permutation(()), Permutation([1]))

    def test_plan_cache_is_bounded(self):
        assert _pattern_plan.cache_info().maxsize is not None

    def test_transitivity_spot_check(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(4, 9)
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            # a random deletion chain gives nested patterns by construction
            tau = delete(sigma, rng.randrange(1, n + 1))
            pi = delete(tau, rng.randrange(1, n))
            assert contains_pattern(sigma, tau)
            assert contains_pattern(tau, pi)
            assert contains_pattern(sigma, pi)


class TestDelete:
    def test_golden(self):
        p = Permutation([4, 1, 2, 3, 5, 7, 6])
        assert delete(p, p.position_of(5)) == Permutation([4, 1, 2, 3, 6, 5])

    def test_small(self):
        assert delete(Permutation([2, 1]), 1) == Permutation([1])
        for n in range(1, 6):
            for pos in range(1, n + 1):
                assert delete(identity(n), pos) == identity(n - 1)

    def test_out_of_range(self):
        with pytest.raises(PositionOutOfRangeError):
            delete(identity(3), 4)
        with pytest.raises(PositionOutOfRangeError):
            delete(identity(3), 0)

    def test_matches_the_checked_constructor_through_s7(self):
        for n in range(1, 8):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                for pos in range(1, n + 1):
                    d = delete(p, pos)
                    assert type(d) is Permutation
                    assert d == Permutation(rank_pattern(vals[: pos - 1] + vals[pos:]))

    @given(permutations_st(min_n=1, max_n=8))
    @settings(deadline=None)
    def test_deletion_is_a_pattern(self, p):
        for pos in range(1, len(p) + 1):
            assert contains_pattern(p, delete(p, pos))
