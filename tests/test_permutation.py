import itertools
import random

import pytest
from hypothesis import given, settings

from duploss import (
    DupLossError,
    DupLossStep,
    DuplicateValueError,
    InvalidParameterError,
    OutOfRangeError,
    Permutation,
    PositionOutOfRangeError,
    all_permutations,
    apply_step,
    ascending_run_partition,
    contains_pattern,
    delete,
    descent_count,
    descents,
    identity,
    inversions,
    one_step_basis,
    one_step_blockers,
    parse_one_line,
    random_permutation,
    reversed_identity,
)
from duploss import permutation
from duploss.classes import _extensions
from duploss.permutation import _matcher, _pattern_plan
from helpers import (
    backtrack_contains,
    brute_occurrence_indices,
    descent_count_by_scan,
    fenwick_inversions,
    inversion_count,
    longest_decreasing_length,
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

    @pytest.mark.parametrize("vals", [5, None, 1.5])
    def test_non_iterable_rejected(self, vals):
        with pytest.raises(InvalidParameterError):
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

    @pytest.mark.parametrize("n", range(8))
    def test_all_permutations_are_checked_permutations(self, n):
        perms = list(all_permutations(n))
        assert perms == [Permutation(v) for v in itertools.permutations(range(1, n + 1))]
        assert all(type(p) is Permutation for p in perms)

    @pytest.mark.parametrize("n", [-1, 2.0, True])
    def test_all_permutations_rejects_a_bad_size(self, n):
        with pytest.raises(InvalidParameterError):
            all_permutations(n)

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

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 4097])
    def test_reversed_identity_is_an_exact_permutation(self, n):
        p = reversed_identity(n)
        assert type(p) is Permutation and p == Permutation(list(p))
        assert p == tuple(range(n, 0, -1))

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

    def test_inversions_of_a_plain_sequence(self):
        assert inversions([3, 1, 2]) == inversions((3, 1, 2)) == 2
        with pytest.raises(DuplicateValueError):
            inversions((1, 1))
        with pytest.raises(OutOfRangeError):
            inversions([2, 3])
        with pytest.raises(InvalidParameterError):
            inversions(None)

    @pytest.mark.parametrize("statistic", [descents, descent_count, ascending_run_partition])
    @pytest.mark.parametrize("perm, error", [
        ((5, 5, 1), OutOfRangeError),
        ([2, 2, 9], DuplicateValueError),
        ((7, 7), OutOfRangeError),
        ((1, 1), DuplicateValueError),
        (5, InvalidParameterError),
    ])
    def test_descent_statistics_refuse_non_permutations(self, statistic, perm, error):
        with pytest.raises(error):
            statistic(perm)

    def test_descent_statistics_of_a_plain_sequence(self):
        for vals in itertools.permutations(range(1, 5)):
            p = Permutation(vals)
            for seq in (vals, list(vals)):
                assert descents(seq) == descents(p)
                assert descent_count(seq) == descent_count(p)
                assert ascending_run_partition(seq) == ascending_run_partition(p)
        assert ascending_run_partition([]) == []


class TestInversionsAgainstAllPairs:
    """The bitset count against the all-pairs count."""

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


class TestInversionsAtBlockEdges:
    """The bitset count, in blocks of 2^12 values, against the Fenwick-tree
    oracle at sizes on either side of one and two block boundaries."""

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8191, 8192, 8193, 20000])
    def test_identity_reversed_and_seeded(self, n):
        assert inversions(identity(n)) == fenwick_inversions(identity(n)) == 0
        assert inversions(reversed_identity(n)) == n * (n - 1) // 2
        assert fenwick_inversions(reversed_identity(n)) == n * (n - 1) // 2
        for seed in range(3):
            p = random_permutation(n, seed)
            assert inversions(p) == fenwick_inversions(p)

    def test_one_block_pair_in_each_order(self):
        # The only inversions are across blocks, or only inside one.
        for n in (4096, 8193):
            cross = Permutation([*range(4096, n + 1), *range(1, 4096)])
            assert inversions(cross) == fenwick_inversions(cross) == (n - 4095) * 4095
            inner = Permutation([*range(4095, 0, -1), *range(4096, n + 1)])
            assert inversions(inner) == fenwick_inversions(inner) == 4095 * 4094 // 2


class TestRunScannersAgainstLoops:
    """``descent_count``, a sum over adjacent pairs, and
    ``ascending_run_partition``, cut at ``descents``, against one-pass loops
    over adjacent entries."""

    def test_every_permutation_through_s8(self):
        for n in range(9):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                assert descent_count(p) == len(descents(p)) == descent_count_by_scan(vals)
                assert ascending_run_partition(p) == run_partition_by_scan(vals)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_uniform_1024(self, seed):
        p = random_permutation(1024, seed)
        assert descent_count(p) == descent_count_by_scan(p.values)
        assert ascending_run_partition(p) == run_partition_by_scan(p.values)

    @pytest.mark.parametrize("n", [2, 9, 100, 2048])
    def test_descent_count_is_the_size_of_descents_seeded(self, n):
        for seed in range(3):
            p = random_permutation(n, seed)
            assert descent_count(p) == len(descents(p)) == descent_count_by_scan(p.values)

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

    @given(permutations_st(min_n=4, max_n=10), permutations_st(min_n=1, max_n=6))
    @settings(deadline=None, max_examples=80)
    def test_against_brute_force_random(self, host, patt):
        got = contains_pattern(host, patt)
        assert got == bool(brute_occurrence_indices(host.values, patt.values))

    def test_every_occurrence_meets_the_gap_bounds(self):
        """Each occurrence in S_1..S_6 of each pattern of size <= 4 has
        v_floor + below <= v_d <= v_ceiling - above at every depth d, with a
        missing floor matched to 0 and a missing ceiling to n + 1."""
        occurrences = 0
        for n in range(1, 7):
            for host in itertools.permutations(range(1, n + 1)):
                for k in range(1, 5):
                    for patt in itertools.permutations(range(1, k + 1)):
                        plan = _pattern_plan(Permutation(patt))
                        for occ in brute_occurrence_indices(host, patt):
                            vals = [host[i - 1] for i in occ]
                            for d, (floor, ceiling, below, above) in enumerate(plan):
                                lo = vals[floor] if floor >= 0 else 0
                                hi = vals[ceiling] if ceiling >= 0 else n + 1
                                assert lo + below <= vals[d] <= hi - above, (host, patt, occ, d)
                            occurrences += 1
        assert occurrences > 0

    def test_gap_bounds_are_tight_on_the_pattern_itself(self):
        """With the pattern as its own host, each depth's bounds both equal
        its own value, so no bound can be raised without losing it."""
        for k in range(1, 7):
            for patt in itertools.permutations(range(1, k + 1)):
                for d, (floor, ceiling, below, above) in enumerate(_pattern_plan(Permutation(patt))):
                    lo = patt[floor] if floor >= 0 else 0
                    hi = patt[ceiling] if ceiling >= 0 else k + 1
                    assert lo + below == patt[d] == hi - above, (patt, d)

    def test_non_permutation_input_is_refused(self):
        with pytest.raises(DuplicateValueError):
            contains_pattern(Permutation([1, 2]), (2, 2))
        with pytest.raises(OutOfRangeError):
            contains_pattern((0, 2, 1), Permutation([2, 1]))
        with pytest.raises(OutOfRangeError):
            contains_pattern(identity(3), [1, 3])
        with pytest.raises(OutOfRangeError):
            contains_pattern([2, 3, 4], identity(2))
        for bad in ((1, 3), [2, 2], (0,), (1, 2, 4)):
            with pytest.raises(DupLossError):
                contains_pattern(identity(3), bad)
        with pytest.raises(InvalidParameterError):
            contains_pattern(None, (1,))
        with pytest.raises(InvalidParameterError):
            contains_pattern(identity(3), 5)

    def test_pattern_is_checked_on_every_call(self):
        """A pattern equal to a cached one, but not a permutation, is still
        refused: ``(1.0, 2.0)`` hashes and compares as ``(1, 2)``."""
        assert contains_pattern(identity(3), (1, 2))
        with pytest.raises(OutOfRangeError):
            contains_pattern(identity(3), (1.0, 2.0))
        assert contains_pattern(identity(3), [1, 2])

    def test_plain_sequence_host_answers_as_its_permutation(self):
        for vals in itertools.permutations(range(1, 6)):
            for patt in ((3, 2, 1), (2, 3, 1), (1, 3, 4, 2)):
                expected = contains_pattern(Permutation(vals), patt)
                assert contains_pattern(vals, patt) == contains_pattern(list(vals), patt) == expected

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

    @pytest.mark.parametrize("k", [15, 16, 17, 20, 25, 33, 40])
    def test_long_patterns_match_backtracking_oracle(self, k):
        """Patterns of one, two and three chained matcher functions, in hosts
        of sizes k - 1 to k + 3 and 30: one a pattern of the host by
        construction, one drawn at random, the host's own pattern with two
        adjacent values swapped, and the one-pass k...1 and 1...k."""
        rng = random.Random(k)
        answers = []
        for n in (k - 1, k, k + 1, k + 3, 30):
            for seed in range(4):
                host = random_permutation(n, 100 * k + seed)
                patterns = [Permutation(rng.sample(range(1, k + 1), k))]
                patterns += [reversed_identity(k), identity(k)]
                if k <= n:
                    own = rank_pattern([host[i] for i in sorted(rng.sample(range(n), k))])
                    patterns.append(Permutation(own))
                    patterns.append(Permutation([{1: 2, 2: 1}.get(v, v) for v in own]))
                for patt in patterns:
                    got = contains_pattern(host, patt)
                    assert got == backtrack_contains(host, patt), (host, patt)
                    answers.append(got)
        assert True in answers and False in answers
        # every size is searched by generated code
        assert all(_matcher(p).__code__.co_filename == f"<matcher of {p}>" for p in patterns)

    def test_monotone_patterns_match_backtracking_oracle_exhaustive(self):
        """k...1 and 1...k for k = 1..8 against every host of S_0..S_7."""
        patterns = [p for k in range(1, 9) for p in (reversed_identity(k), identity(k))]
        for n in range(8):
            for vals in itertools.permutations(range(1, n + 1)):
                host = Permutation(vals)
                for patt in patterns:
                    assert contains_pattern(host, patt) == backtrack_contains(host, patt), (host, patt)

    @pytest.mark.parametrize("k", [3, 6, 40])
    def test_monotone_patterns_match_longest_subsequence_at_n_200(self, k):
        """Hosts of size 200 that avoid k...1, as a merge of k - 1 increasing
        runs, and hosts that contain it, with k...1 planted at random
        positions; each also reversed, which turns 1...k into k...1."""
        rng = random.Random(k)
        n = 200
        hosts = []
        for _ in range(6):
            # value v joins run label[v - 1]; the runs are interleaved at random
            label = rng.sample(range(k - 1), k - 1) + rng.choices(range(k - 1), k=n - k + 1)
            runs = [iter([v for v in range(1, n + 1) if label[v - 1] == r]) for r in range(k - 1)]
            order = label[:]
            rng.shuffle(order)
            hosts.append((Permutation([next(runs[r]) for r in order]), False))
            planted = sorted(rng.sample(range(1, n + 1), k), reverse=True)
            rest = [v for v in range(1, n + 1) if v not in planted]
            rng.shuffle(rest)
            at = set(rng.sample(range(n), k))
            hosts.append(
                (Permutation([planted.pop(0) if i in at else rest.pop() for i in range(n)]), True)
            )
        for host, built_to_contain in hosts:
            assert (longest_decreasing_length(host) >= k) is built_to_contain
            for h in (host, Permutation(host[::-1])):
                longest = longest_decreasing_length(h)
                assert contains_pattern(h, reversed_identity(k)) == (longest >= k), (h, k)
                assert contains_pattern(h[::-1], identity(k)) == (longest >= k), (h, k)

    def test_monotone_patterns_skip_the_general_emitter(self, monkeypatch):
        """Monotone patterns of sizes 1..9 are compiled without
        ``_matcher_source``; 231 still goes through it."""

        def refuse(plan):
            raise LookupError("general emitter called")

        monkeypatch.setattr(permutation, "_matcher_source", refuse)
        monkeypatch.setattr(permutation, "_matchers", {})
        host = random_permutation(12, 5)
        for k in range(1, 10):
            for patt in (reversed_identity(k), identity(k)):
                assert contains_pattern(host, patt) == backtrack_contains(host, patt), patt
        with pytest.raises(LookupError, match="general emitter called"):
            contains_pattern(host, (2, 3, 1))

    def test_list_pattern_answers_as_its_tuple(self):
        for vals in itertools.permutations(range(1, 6)):
            host = Permutation(vals)
            for k in range(4):
                for patt in itertools.permutations(range(1, k + 1)):
                    assert contains_pattern(host, list(patt)) == contains_pattern(host, patt)
        # longer than one matcher function holds
        host = random_permutation(24, 17)
        for patt in (rank_pattern(host[3:20]), tuple(range(17, 0, -1))):
            assert contains_pattern(host, list(patt)) == contains_pattern(host, patt)

    def test_longer_pattern_is_never_contained(self):
        assert not contains_pattern(identity(2), identity(3))
        assert not contains_pattern(Permutation(()), Permutation([1]))

    def test_matcher_cache_is_bounded(self, monkeypatch):
        # With room for 8 matchers, ask 24 patterns three times over, each
        # round on a new host and in a new order, then 4 held ones and 10
        # evicted ones again: the dict holds the last 8 patterns first asked,
        # in the order of asking, a hit keeps its matcher and its place, and
        # every answer equals the backtracking oracle.
        monkeypatch.setattr(permutation, "_MAX_MATCHERS", 8)
        monkeypatch.setattr(permutation, "_matchers", {})
        rng = random.Random(33)
        patterns = [Permutation(v) for v in itertools.permutations(range(1, 5))]
        model: list = []
        for _ in range(3):
            host = random_permutation(9, rng.randrange(1000))
            rng.shuffle(patterns)
            for patt in patterns + patterns[-4:] + patterns[:10]:
                held = permutation._matchers.get(patt)
                assert contains_pattern(host, patt) == backtrack_contains(host, patt)
                if held is None:
                    model.append(patt)
                    del model[:-8]
                else:
                    assert permutation._matchers[patt] is held
                assert list(permutation._matchers) == model

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

    def test_plain_sequence_answers_as_its_permutation(self):
        for vals in itertools.permutations(range(1, 5)):
            for pos in range(1, 5):
                want = delete(Permutation(vals), pos)
                for seq in (vals, list(vals)):
                    got = delete(seq, pos)
                    assert type(got) is Permutation and got == want
        assert delete((3, 1, 2), 1) == Permutation([1, 2])
        assert delete([3, 1, 2], 2) == Permutation([2, 1])

    @pytest.mark.parametrize(
        "perm, error",
        [
            ((1, 1), DuplicateValueError),
            ([0, 1], OutOfRangeError),
            ((1, 2.0), OutOfRangeError),
            (5, InvalidParameterError),
            (None, InvalidParameterError),
        ],
    )
    def test_non_permutation_raises_the_constructor_error(self, perm, error):
        with pytest.raises(error):
            delete(perm, 1)

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


def is_exact(perm) -> bool:
    """``perm`` is an exact ``Permutation``, one the checking constructor
    accepts and builds equal."""
    return type(perm) is Permutation and perm == Permutation(tuple(perm))


class TestTrustedPaths:
    """The library wraps what it computes itself without the constructor's
    check (``permutation._trusted``); each such site must still give an
    exact ``Permutation`` that the checking constructor accepts.  The
    sampled and replayed ones are pinned in ``test_bench`` and
    ``test_scenarios``."""

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 4097])
    def test_identity(self, n):
        assert is_exact(identity(n)) and identity(n) == tuple(range(1, n + 1))

    def test_apply_step(self):
        for n in range(6):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                for width in range(1, n + 1):
                    for start in range(1, n - width + 2):
                        for mask in range(1 << width):
                            assert is_exact(apply_step(p, DupLossStep(start, width, mask)))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_step_blockers(self, k):
        blockers = one_step_blockers(k)
        assert len(blockers) == 1 << (k - 1)
        assert all(map(is_exact, blockers))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_extensions(self, n):
        smaller = set(all_permutations(n - 1))
        every = _extensions(smaller, n)
        assert every == set(all_permutations(n)) and all(map(is_exact, every))
        skip = frozenset(itertools.islice(all_permutations(n), 0, None, 2))
        kept = _extensions(smaller, n, skip=skip)
        assert kept == every - skip and all(map(is_exact, kept))
