import itertools
import math

import pytest

from duploss import (
    BudgetExceededError,
    ClassSpec,
    InfiniteWidthError,
    InvalidWidthError,
    Permutation,
    basis_to_json,
    bfs_min_steps,
    contains_pattern,
    delete,
    enumerate_class,
    identity,
    inversions,
    is_antichain,
    is_member,
    minimal_forbidden_basis,
    one_step_basis,
    one_step_blockers,
)
from duploss import classes
from duploss.classes import clear_search_cache
from helpers import brute_distances, brute_one_descent

P = lambda *vals: Permutation(vals)


class TestBlockers:
    def test_golden_k4(self):
        got = {str(p) for p in one_step_blockers(4)}
        assert got == {
            "2,3,4,5,1", "2,3,5,1,4", "2,4,5,1,3", "3,4,5,1,2",
            "2,5,1,3,4", "3,5,1,2,4", "4,5,1,2,3", "5,1,2,3,4",
        }

    def test_k2_and_k3(self):
        assert one_step_blockers(2) == {P(2, 3, 1), P(3, 1, 2)}
        assert one_step_blockers(3) == {P(2, 3, 4, 1), P(2, 4, 1, 3), P(3, 4, 1, 2), P(4, 1, 2, 3)}

    @pytest.mark.parametrize("k", range(2, 8))
    def test_cardinality(self, k):
        assert len(one_step_blockers(k)) == 2 ** (k - 1)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_matches_brute_filter(self, k):
        brute = {
            p
            for p in brute_one_descent(k + 1)
            if p.values[0] != 1 and p.values[-1] != k + 1
        }
        assert one_step_blockers(k) == brute

    def test_rejects_infinity_and_small(self):
        with pytest.raises(InfiniteWidthError):
            one_step_blockers(math.inf)
        with pytest.raises(InvalidWidthError):
            one_step_blockers(1)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_blockers_are_the_unreachable_one_descent_patterns(self, k):
        # among one-descent permutations of size K+1, the non-members of the
        # one-step class are exactly the blockers
        spec = ClassSpec(k, 1)
        unreachable = {p for p in brute_one_descent(k + 1) if not is_member(p, spec)}
        assert unreachable == one_step_blockers(k)


class TestOneStepBasis:
    def test_golden_k4(self):
        basis = one_step_basis(4)
        assert len(basis.patterns) == 11
        assert basis.patterns == frozenset({P(3, 2, 1), P(3, 1, 4, 2), P(2, 1, 4, 3)}) | one_step_blockers(4)
        assert basis.antichain
        assert basis.provenance == "theorem-constructed"

    @pytest.mark.parametrize("k", range(2, 8))
    def test_cardinality_formula(self, k):
        assert len(one_step_basis(k).patterns) == 3 + 2 ** (k - 1)

    def test_k2_is_generating_set_not_antichain(self):
        basis = one_step_basis(2)
        assert basis.patterns == frozenset(
            {P(3, 2, 1), P(3, 1, 4, 2), P(2, 1, 4, 3), P(2, 3, 1), P(3, 1, 2)}
        )
        assert not basis.antichain  # 3142 contains 231

    def test_k3_is_antichain(self):
        assert one_step_basis(3).antichain

    def test_is_antichain_helper(self):
        assert is_antichain(frozenset({P(3, 2, 1), P(2, 1, 4, 3)}))
        assert not is_antichain(frozenset({P(2, 3, 1), P(3, 1, 4, 2)}))


class TestEnumerate:
    def test_width_two_one_step_size_three(self):
        got = enumerate_class(ClassSpec(2, 1), 3)
        assert got == {P(1, 2, 3), P(2, 1, 3), P(1, 3, 2)}

    def test_identity_always_member(self):
        for n in range(1, 6):
            for budget in range(3):
                assert identity(n) in enumerate_class(ClassSpec(2, budget), n)

    def test_budget_zero(self):
        assert enumerate_class(ClassSpec(5, 0), 4) == {identity(4)}

    def test_infinite_width_equals_full(self):
        for n in range(1, 6):
            assert enumerate_class(ClassSpec(math.inf, 1), n) == enumerate_class(
                ClassSpec(max(n, 2), 1), n
            )

    def test_monotone_in_budget_and_width(self):
        for n in range(1, 8):
            for width in range(2, n + 1):
                for budget in range(3):
                    small = enumerate_class(ClassSpec(width, budget), n)
                    assert small <= enumerate_class(ClassSpec(width, budget + 1), n)
                    assert small <= enumerate_class(ClassSpec(width + 1, budget), n)

    def test_cap_enforced(self):
        with pytest.raises(BudgetExceededError):
            enumerate_class(ClassSpec(2, 1), 11)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DUPLOSS_ENUM_CAP", "3")
        with pytest.raises(BudgetExceededError):
            enumerate_class(ClassSpec(2, 1), 4)
        assert enumerate_class(ClassSpec(2, 1), 3)

    def test_spec_validation(self):
        with pytest.raises(InvalidWidthError):
            ClassSpec(1, 1)
        with pytest.raises(ValueError):
            ClassSpec(2, -1)


class TestMembership:
    def test_two_disjoint_swaps_need_two_steps(self):
        p = P(2, 1, 4, 3)
        assert not is_member(p, ClassSpec(2, 1))
        assert is_member(p, ClassSpec(2, 2))

    def test_identity_member_of_everything(self):
        assert is_member(identity(5), ClassSpec(2, 0))

    def test_downward_closure(self):
        for width, budget in ((2, 1), (3, 1), (2, 2)):
            spec = ClassSpec(width, budget)
            for n in range(2, 6):
                for p in enumerate_class(spec, n):
                    for pos in range(1, n + 1):
                        assert is_member(delete(p, pos), spec)


class TestMinimalBasis:
    def test_width_two_golden(self):
        basis = minimal_forbidden_basis(ClassSpec(2, 1), 5)
        assert basis.patterns == frozenset({P(3, 2, 1), P(2, 3, 1), P(3, 1, 2), P(2, 1, 4, 3)})
        assert basis.antichain
        assert basis.provenance == "brute-force"

    def test_width_three_equals_closed_form(self):
        basis = minimal_forbidden_basis(ClassSpec(3, 1), 5)
        assert basis.patterns == one_step_basis(3).patterns

    def test_avoiders_match_class(self):
        # even at K=2 where the closed form is only a generating set,
        # the brute-force basis defines the same avoider sets
        basis = minimal_forbidden_basis(ClassSpec(2, 1), 5)
        for n in range(1, 7):
            members = enumerate_class(ClassSpec(2, 1), n)
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                avoids = not any(contains_pattern(p, b) for b in basis.patterns)
                assert avoids == (p in members)

    def test_json_output(self):
        basis = minimal_forbidden_basis(ClassSpec(2, 1), 5)
        obj = basis_to_json(basis, 2, 1, 5)
        assert obj["K"] == 2 and obj["p"] == 1 and obj["max_size"] == 5
        assert obj["antichain"] is True and obj["provenance"] == "brute-force"
        assert obj["patterns"] == ["2,3,1", "3,1,2", "3,2,1", "2,1,4,3"]


class TestMinSteps:
    def test_trivial(self):
        assert bfs_min_steps(identity(6), 3) == 0
        assert bfs_min_steps(P(2, 1), 2) == 1

    def test_adjacent_swap_chain(self):
        assert bfs_min_steps(P(6, 5, 4, 3, 2, 1), 2) == 15

    def test_inversion_lower_bound(self):
        for n in range(1, 7):
            for width in (2, 3, 4):
                cap = width * width // 4
                for vals in itertools.permutations(range(1, n + 1)):
                    p = Permutation(vals)
                    assert bfs_min_steps(p, width) >= math.ceil(inversions(p) / cap)

    def test_localized_prefix_suffix_split(self):
        # appending a sorted tail never changes the optimal step count:
        # steps restricted to the prefix suffice
        for width in (2, 3):
            for j in range(1, 6):
                for tail in range(1, 3):
                    n = j + tail
                    if n > 6:
                        continue
                    for vals in itertools.permutations(range(1, j + 1)):
                        prefix = Permutation(vals)
                        padded = Permutation(vals + tuple(range(j + 1, n + 1)))
                        assert bfs_min_steps(padded, width) == bfs_min_steps(prefix, width)

    def test_infinite_width(self):
        assert bfs_min_steps(P(3, 1, 4, 2), math.inf) == 2

    def test_width_one_reaches_only_identity(self):
        assert bfs_min_steps(identity(4), 1) == 0
        with pytest.raises(InvalidWidthError):
            bfs_min_steps(P(3, 1, 4, 2), 1)


class TestAgainstBruteSearch:
    """The layered search and its per-layer memo against a plain BFS over
    brute-force successors, on all of S_6."""

    N = 6

    def _check_classes(self, width, dist):
        for budget in range(max(dist.values()) + 2):
            members = enumerate_class(ClassSpec(width, budget), self.N)
            assert {p.values for p in members} == {s for s, d in dist.items() if d <= budget}
            assert all(Permutation(p.values) == p for p in members)

    def _check_queries(self, width, dist):
        for state, d in dist.items():
            p = Permutation(state)
            assert bfs_min_steps(p, width) == d
            assert is_member(p, ClassSpec(width, d))
            assert d == 0 or not is_member(p, ClassSpec(width, d - 1))

    @pytest.mark.parametrize("width", (2, 3, 4, math.inf))
    def test_all_of_s6(self, width):
        dist = brute_distances(self.N, width)
        assert len(dist) == math.factorial(self.N)
        self._check_classes(width, dist)
        self._check_queries(width, dist)
        # from a cleared memo, queries first, so they expand the layers
        clear_search_cache()
        self._check_queries(width, dist)
        self._check_classes(width, dist)


def test_widths_at_or_above_size_share_one_search():
    p = P(2, 5, 1, 4, 3)
    clear_search_cache()
    enumerate_class(ClassSpec(math.inf, 1), 5)
    is_member(p, ClassSpec(9, 2))
    bfs_min_steps(p, 5)
    bfs_min_steps(p, math.inf)
    assert list(classes._searches) == [(5, 5)]
