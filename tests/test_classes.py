import ast
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from duploss import (
    BudgetExceededError,
    ClassSpec,
    DuplicateValueError,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
    OutOfRangeError,
    Permutation,
    all_permutations,
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
    successors,
)
from duploss import classes, steps, verify
from duploss.classes import _extensions, clear_search_cache
from duploss.steps import _effect_count, key_states, reverse_complements, state_key
from helpers import (
    backtrack_contains,
    brute_distances,
    brute_one_descent,
    per_key_layers,
    scan_minimal_forbidden_basis,
)

SRC = Path(__file__).resolve().parent.parent / "src"

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

    def test_refuses_blocker_sets_above_the_effect_budget(self, monkeypatch):
        assert len(one_step_blockers(15)) == 1 << 14
        monkeypatch.setattr(classes, "_moving_both_ends", None)  # nothing is built
        for k, count in ((16, 32768), (30, 1 << 29)):
            with pytest.raises(BudgetExceededError, match=f"{count} blockers of width {k} exceed 16384"):
                one_step_blockers(k)

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

    def test_is_antichain_matches_every_pair_tested(self):
        # random sets from S_1..S_6, each entry of a size drawn uniformly,
        # against the definition with every ordered pair tested
        rng = random.Random(2010)
        answers = []
        for _ in range(400):
            sizes = [rng.randint(1, 6) for _ in range(rng.randrange(2, 7))]
            patterns = frozenset(P(*rng.sample(range(1, n + 1), n)) for n in sizes)
            want = not any(a != b and backtrack_contains(b, a) for a in patterns for b in patterns)
            assert is_antichain(patterns) == want, patterns
            answers.append(want)
        assert 20 < sum(answers) < 380

    def test_widest_theorem_basis_is_antichain(self):
        assert one_step_basis(15).antichain


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

    @pytest.mark.parametrize("k", range(2, 6))
    def test_one_step_class_is_the_identity_and_each_effect(self, k):
        # one class member per step effect: 1 + E(n, K)
        for n in range(0, 9):
            assert len(enumerate_class(ClassSpec(k, 1), n)) == 1 + _effect_count(n, k), n

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


def check_avoider_layers(width, max_n):
    """The avoider layers ``_extensions`` builds from the one-step basis of
    width ``width`` equal a ``backtrack_contains`` scan of S_1..S_max_n.
    The suite checks through S_7; the S_8 check is run by hand:
    ``PYTHONPATH=src:tests python -c "from test_classes import *;
    [check_avoider_layers(k, 8) for k in (2, 3, 4)]"``."""
    patterns = one_step_basis(width).sorted_patterns()  # short ones first: cheapest tests
    avoiders = {Permutation(())}
    for n in range(1, max_n + 1):
        avoiders = _extensions(avoiders, n, skip=frozenset(patterns))
        scan = {p for p in itertools.permutations(range(1, n + 1))
                if not any(backtrack_contains(p, b) for b in patterns)}
        assert avoiders == scan, (width, n)


class TestDeletionLayers:
    """``_extensions`` against the S_n scans it replaces."""

    @pytest.mark.parametrize("width, budget", [
        (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (3, 3), (math.inf, 1),
    ])
    def test_basis_matches_the_scan(self, width, budget):
        spec = ClassSpec(width, budget)
        assert minimal_forbidden_basis(spec, 7).patterns == scan_minimal_forbidden_basis(spec, 7)

    @pytest.mark.parametrize("below", [0, 1])
    def test_dense_class_matches_the_scan(self, below):
        # at the diameter of S_7 under K = 3 every S_n up to 7 lies in the
        # class, so every candidate is skipped and the basis is empty; one
        # step below it, the minimal patterns are states of the last layer
        search = classes._search(7, 3)
        search.grow(math.inf)
        spec = ClassSpec(3, search.depth - 1 - below)  # the last layer is the empty one
        basis = minimal_forbidden_basis(spec, 7).patterns
        assert basis == scan_minimal_forbidden_basis(spec, 7)
        assert basis == set(key_states(search.layers[-2], 7) if below else ())

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_avoider_layers_match_a_backtracking_scan(self, width):
        check_avoider_layers(width, 7)

    @pytest.mark.parametrize("dropped, added", [({P(3, 2, 1)}, set()), (set(), {P(1, 3, 2)})])
    def test_basis_suite_reports_a_wrong_basis(self, monkeypatch, dropped, added):
        # too few patterns leave extra avoiders, too many (132 is a member) too few
        def wrong_basis(width):
            basis = one_step_basis(width)
            patterns = basis.patterns - dropped | added
            return classes.PatternBasis(patterns, False, basis.provenance)

        monkeypatch.setattr(verify, "one_step_basis", wrong_basis)
        failed = [(name, detail) for name, ok, detail in verify.run_suite("basis", 5) if not ok]
        assert [name for name, _ in failed] == [
            f"avoiders of the one-step basis (K={k}) equal the class" for k in (2, 3, 4)
        ] + [f"brute-force basis (K={k}) matches the closed form" for k in (2, 3, 4)]
        first = str(next(iter(dropped | added)))
        assert all(detail.endswith(f"first: {first}") for _, detail in failed[:3])

    def test_closure_suite_reports_a_class_not_closed(self, monkeypatch):
        # with 132 gone from size 3, the size-4 members containing it fail
        def without_132(spec, n):
            return enumerate_class(spec, n) - {P(1, 3, 2)}

        monkeypatch.setattr(verify, "enumerate_class", without_132)
        details = [detail for _, ok, detail in verify.run_suite("closure", 4) if not ok]
        assert len(details) == 3 and all(d.endswith("first: 1,2,4,3") for d in details), details

    def test_basis_suite_passes_at_size_ten(self):
        assert all(ok for _, ok, _ in verify.run_suite("basis", 10))


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
        with pytest.raises(InvalidWidthError, match=r"^state \(3, 1, 4, 2\) unreachable at width 1;"):
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


class TestReverseComplementHalving:
    """The search expands only the states x <= rc(x) of each layer; its
    distances and layers against the search over the per-key oracle, which
    expands every state, and against a plain brute-force BFS."""

    @staticmethod
    def _full_search(n, width):
        clear_search_cache()
        search = classes._search(n, width)
        search.grow(math.inf)
        return search

    @staticmethod
    def _check(search, oracle):
        assert search.dist == {key: d for d, layer in enumerate(oracle) for key in layer}
        assert len(search.layers) == len(oracle)
        for keys, want in zip(search.layers, oracle):
            assert keys == sorted(keys) and set(keys) == set(want)
            assert not keys or set(reverse_complements(keys)) == set(keys)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_layers_and_distances(self, n):
        oracles, brute = {}, {}  # by min(K, n), as the search is keyed
        for width in sorted({1, 2, 3, 4, n, math.inf} - {0}):
            search = self._full_search(n, width)
            if search.width not in oracles:
                oracles[search.width] = per_key_layers(state_key(range(1, n + 1)), width)
            self._check(search, oracles[search.width])
            if n < 7 or width == 2:  # brute force on S_7 takes seconds per width
                if search.width not in brute:
                    brute[search.width] = brute_distances(n, width)
                states = {
                    tuple(p): d
                    for d, keys in enumerate(search.layers) for p in key_states(keys, n)
                }
                assert states == brute[search.width], width

    def test_s8_at_width_three(self):
        self._check(self._full_search(8, 3), per_key_layers(state_key(range(1, 9)), 3))


def _check_class_view(members, lists):
    """``members`` is a read-only set over the member ``lists``: equal and
    hash-equal to the frozenset of their objects, iterating those very
    objects, with frozenset membership and frozenset results from the set
    operators."""
    frozen = frozenset(itertools.chain.from_iterable(lists))
    assert members == frozen and frozen == members and hash(members) == hash(frozen)
    assert sorted(map(id, members)) == sorted(id(p) for layer in lists for p in layer)
    some = next(iter(members))
    assert some in members and tuple(some) in members
    assert (*some, len(some) + 1) not in members
    with pytest.raises(TypeError):
        list(some) in members
    other = frozenset([some, identity(len(some) + 1)])
    for result in (members | other, members & other, members - other, members ^ other,
                   other | members, other & members, other - members, other ^ members):
        assert type(result) is frozenset
    assert members | other == frozen | other and members & other == frozen & other
    assert members - other == frozen - other and other - members == other - frozen
    assert members ^ other == frozen ^ other == other ^ members


def test_classes_grow_from_the_last_class_returned():
    # budgets 0..diameter+1 rising, then falling, then rising after a clear;
    # each answer is the from-scratch union, a view of the member lists'
    # objects that later growth and clears leave unchanged, and each list
    # is built once, from its key layer, when a class first reaches it
    clear_search_cache()
    search = classes._search(6, 3)
    search.grow(math.inf)
    budgets = list(range(search.depth + 1))  # the last layer is the empty one
    views = []
    for order in (budgets, budgets[::-1], None, budgets):
        if order is None:
            clear_search_cache()
            continue
        built = list(classes._search(6, 3).members)
        for budget in order:
            members = enumerate_class(ClassSpec(3, budget), 6)
            search = classes._search(6, 3)
            lists = search.members[: budget + 1]
            assert len(search.members) == max(len(built), budget + 1)
            assert all(old is new for old, new in zip(built, search.members))
            built = list(search.members)
            assert [list(map(state_key, m)) for m in lists] == search.layers[: budget + 1]
            assert members == frozenset(itertools.chain.from_iterable(lists)), budget
            _check_class_view(members, lists)
            views.append((members, lists))
    # a view asked before its search has grown further is unchanged by it
    clear_search_cache()
    early = enumerate_class(ClassSpec(3, 1), 6)
    classes._search(6, 3).grow(math.inf)
    assert len(classes._search(6, 3).members) == 2
    views.append((early, classes._search(6, 3).members[:2]))
    for members, lists in views:
        _check_class_view(members, lists)


def test_widths_at_or_above_size_share_one_search():
    p = P(2, 5, 1, 4, 3)
    clear_search_cache()
    enumerate_class(ClassSpec(math.inf, 1), 5)
    is_member(p, ClassSpec(9, 2))
    bfs_min_steps(p, 5)
    bfs_min_steps(p, math.inf)
    assert list(classes._searches) == [(5, 5)]


def test_each_state_is_one_permutation_object():
    clear_search_cache()
    search = classes._search(5, 3)
    search.grow(math.inf)
    members = enumerate_class(ClassSpec(3, search.depth), 5)
    entries = {id(p): p for layer in search.members for p in layer}
    assert len(search.dist) == len(entries) == len(set(entries.values())) == math.factorial(5)
    for depth, (layer, keys) in enumerate(zip(search.members, search.layers, strict=True)):
        assert [state_key(state) for state in layer] == keys
        for state in layer:
            assert type(state) is Permutation
            assert search.dist[state_key(state)] == depth
    # every class shares the member lists' objects
    smaller = enumerate_class(ClassSpec(3, 2), 5)
    assert all(entries.get(id(state)) is state for state in itertools.chain(members, smaller))


def test_distance_and_membership_queries_build_no_member_list(monkeypatch):
    def refuse(keys, n):
        raise AssertionError("a query built a member list")

    clear_search_cache()
    monkeypatch.setattr(classes, "key_states", refuse)
    assert bfs_min_steps(P(8, 7, 6, 5, 4, 3, 2, 1), 3) > 0
    assert not is_member(P(2, 1, 4, 3, 6, 5, 8, 7, 10, 9, *range(11, 65)), ClassSpec(3, 2))
    assert [search.members for search in classes._searches.values()] == [[], []]


LAYERS_SCRIPT = """
import math
from duploss import ClassSpec, classes, enumerate_class
search = classes._search(6, 3)
search.grow(math.inf)
print(search.layers)
print(list(search.dist))
print([[tuple(p) for p in enumerate_class(ClassSpec(3, d), 6)] for d in range(search.depth + 1)])
"""


def test_layer_order_does_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", LAYERS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    layers, dist, members = map(ast.literal_eval, outputs[0].splitlines())
    # an order to get wrong, and members that follow their keys
    assert len(layers[1]) > 1 and dist == [key for layer in layers for key in layer]
    assert [list(map(state_key, m)) for m in members] == [
        [key for layer in layers[: d + 1] for key in layer] for d in range(len(layers))
    ]


class TestByteBound:
    """One-line keys hold a value per byte, so sizes above 256 are refused
    with a typed error."""

    def test_search_refuses_above_the_byte_bound(self):
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            classes._search(257, 3)
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            enumerate_class(ClassSpec(3, 0), 257)
        assert classes._search(256, 3).layers == [[state_key(identity(256))]]
        assert is_member(identity(256), ClassSpec(3, 0))
        assert classes._search(256, 3).members == []
        assert list(enumerate_class(ClassSpec(3, 0), 256)) == [identity(256)]

    def test_search_refusal_names_the_byte_bound_before_the_state_budget(self):
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            enumerate_class(ClassSpec(3, 10**9), 300)


class TestStateBudget:
    """A search is refused, before it expands a layer, when it may reach more
    than ``classes._MAX_STATES`` states: min(n!, E^0 + ... + E^p) for a
    budget p and E(n, K) step effects, n! for a distance query."""

    def test_prediction_bounds_every_class(self):
        for n in range(8):
            for width in range(2, max(n, 2) + 1):
                search = classes._search(n, width)
                search.grow(math.inf)
                for budget in range(search.depth + 1):
                    members = enumerate_class(ClassSpec(width, budget), n)
                    assert classes._check_states(n, width, budget) >= len(members)
                assert classes._check_states(n, width, 1) == 1 + _effect_count(n, width)
                assert classes._check_states(n, width, math.inf) == math.factorial(n)

    def test_width_one_predicts_the_identity_alone(self):
        assert classes._check_states(10, 1, math.inf) == 1
        with pytest.raises(InvalidWidthError, match="unreachable at width 1"):
            bfs_min_steps(P(2, 1, 3, 4, 5, 6, 7, 8, 9, 10), 1)

    def test_size_ten_searches_are_refused_before_any_layer(self):
        clear_search_cache()
        held = set(steps._held_effects)
        with pytest.raises(BudgetExceededError, match="over 1048576 states"):
            enumerate_class(ClassSpec(10, 10), 10)
        with pytest.raises(BudgetExceededError, match="within any number of steps"):
            bfs_min_steps(P(2, 1, 3, 4, 5, 6, 7, 8, 9, 10), 3)
        assert classes._search(10, 10).depth == 0
        assert classes._search(10, 3).depth == 0
        assert set(steps._held_effects) == held

    def test_small_budgets_are_searched_past_size_ten(self):
        # (K, p) = (3, 2): (9n^2 - 27n + 4) / 2 members; (2, 2): (n^2 + n - 2) / 2
        assert len(enumerate_class(ClassSpec(3, 2), 30)) == 3647
        assert len(enumerate_class(ClassSpec(2, 2), 34)) == 594
        assert is_member(P(2, 1, 4, 3, *range(5, 31)), ClassSpec(2, 2))

    def test_a_huge_budget_stops_at_the_diameter(self):
        members = enumerate_class(ClassSpec(3, 10**9), 5)
        assert members == frozenset(all_permutations(5))
        assert is_member(P(5, 4, 3, 2, 1), ClassSpec(3, 10**9))

    def test_held_searches_are_evicted_least_recently_used_first(self, monkeypatch):
        monkeypatch.setattr(classes, "_MAX_STATES", 200)
        clear_search_cache()
        held = []
        for width in (2, 3, 4, 5):
            enumerate_class(ClassSpec(width, 10), 5)  # all 120 states of S_5
            held.append((5, width))
            assert list(classes._searches) == held[-2:]
        # the search asked is kept, and the other one dropped
        search = classes._search(5, 4)
        assert list(classes._searches) == [(5, 4)] and len(search.dist) == 120
        with pytest.raises(BudgetExceededError, match="over 200 states"):
            enumerate_class(ClassSpec(3, 10), 6)


@pytest.mark.parametrize("call", [
    lambda spec: enumerate_class(spec, 3),
    lambda spec: is_member(Permutation([2, 1]), spec),
    lambda spec: minimal_forbidden_basis(spec, 4),
], ids=["enumerate_class", "is_member", "minimal_forbidden_basis"])
@pytest.mark.parametrize("spec", [(2, 1), None, {"width_limit": 2, "budget": 1}])
def test_class_queries_refuse_non_specs(call, spec):
    with pytest.raises(InvalidParameterError, match="must be a ClassSpec"):
        call(spec)


@pytest.mark.parametrize("query", [
    lambda perm: bfs_min_steps(perm, 3),
    lambda perm: is_member(perm, ClassSpec(3, 2)),
    lambda perm: successors(perm, 2),
], ids=["bfs_min_steps", "is_member", "successors"])
@pytest.mark.parametrize("perm, error", [
    ((3, 1, 2, 9), OutOfRangeError),
    ((0, 1, 2), OutOfRangeError),
    ([1, 1, 2], DuplicateValueError),
    ([1, 1], DuplicateValueError),
    (5, InvalidParameterError),
], ids=["value-past-n", "value-zero", "repeat", "short-repeat", "not-iterable"])
def test_search_queries_refuse_non_permutations(query, perm, error):
    with pytest.raises(error):
        query(perm)
