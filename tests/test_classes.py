import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
from duploss import classes, verify
from duploss.classes import _extensions, clear_search_cache
from duploss.steps import _effect_count, reverse_complements, state_key
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
        assert basis == set(search.layers[-2] if below else ())

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
        for layer, want in zip(search.layers, oracle):
            keys = [state_key(state) for state in layer]
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
                states = {tuple(p): d for d, layer in enumerate(search.layers) for p in layer}
                assert states == brute[search.width], width

    def test_s8_at_width_three(self):
        self._check(self._full_search(8, 3), per_key_layers(state_key(range(1, 9)), 3))


def test_classes_grow_from_the_last_class_returned():
    # budgets 0..diameter+1 rising, then falling, then rising after a clear;
    # each answer is the from-scratch union and holds the layers' objects
    clear_search_cache()
    search = classes._search(6, 3)
    search.grow(math.inf)
    budgets = list(range(search.depth + 1))  # the last layer is the empty one
    for order in (budgets, budgets[::-1], None, budgets):
        if order is None:
            clear_search_cache()
            continue
        for budget in order:
            members = enumerate_class(ClassSpec(3, budget), 6)
            search = classes._search(6, 3)
            layers = search.layers[: budget + 1]
            assert members == frozenset(itertools.chain.from_iterable(layers)), budget
            assert {id(p) for p in members} == {id(p) for layer in layers for p in layer}
            assert search.last_class[1] is members


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
    entries = {id(p): p for layer in search.layers for p in layer}
    assert len(search.dist) == len(entries) == len(set(entries.values())) == math.factorial(5)
    for depth, layer in enumerate(search.layers):
        for state in layer:
            assert type(state) is Permutation
            assert search.dist[state_key(state)] == depth
    # the classes share the layers' objects
    members = enumerate_class(ClassSpec(3, search.depth), 5)
    assert all(entries.get(id(state)) is state for state in members)


LAYERS_SCRIPT = """
import math
from duploss import classes
search = classes._search(6, 3)
search.grow(math.inf)
print([[tuple(state) for state in layer] for layer in search.layers])
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
    assert len(ast.literal_eval(outputs[0])[1]) > 1  # an order to get wrong


class TestByteBound:
    """Inverse keys hold a position per byte, so sizes above 256 are refused
    with a typed error, whatever the enumeration cap says."""

    def test_search_refuses_above_the_byte_bound(self, monkeypatch):
        monkeypatch.setenv("DUPLOSS_ENUM_CAP", "1000")
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            classes._search(257, 3)
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            enumerate_class(ClassSpec(3, 0), 257)
        assert classes._search(256, 3).layers == [[identity(256)]]
        assert is_member(identity(256), ClassSpec(3, 0))

    def test_search_refusal_names_the_byte_bound_under_the_default_cap(self):
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            enumerate_class(ClassSpec(3, 0), 300)
