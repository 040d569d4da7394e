import itertools
import random
import re

import pytest
from hypothesis import given, settings

from duploss import (
    BudgetExceededError,
    DupLossStep,
    InvalidParameterError,
    Permutation,
    WindowOutOfRangeError,
    apply_step,
    bucket_phases,
    descent_count,
    identity,
    inversions,
    inversions_created,
    random_permutation,
    successors,
)
from duploss.steps import (
    _CHUNK,
    _MAX_HELD_EFFECTS,
    _chunk_struct,
    _effect_count,
    _effects,
    _held_effects,
    _kept_offsets,
    _step,
    _window_order,
    apply_step_to_list,
    apply_steps_to_list,
    key_states,
    reverse_complements,
    state_key,
    step_to_json,
    successor_values,
)
from helpers import (
    apply_keep_set,
    brute_successors,
    inversion_count,
    keep_set_effect_maps,
    mask_offsets,
    per_key_successor_values,
    permutations_st,
)


def all_steps(n, max_width):
    """Every step of width 1..max_width that fits size n, with every mask."""
    for width in range(1, min(max_width, n) + 1):
        for start in range(1, n - width + 2):
            for mask in range(1 << width):
                yield DupLossStep(start, width, mask)


class TestStepConstruction:
    def test_offsets_and_mask_build_equal_steps(self):
        for width in range(1, 7):
            for mask in range(1 << width):
                keep = mask_offsets(width, mask)
                by_offsets, by_mask = DupLossStep(2, width, keep), DupLossStep(2, width, mask)
                assert by_offsets == by_mask
                assert hash(by_offsets) == hash(by_mask)
                assert by_offsets.mask == mask
                assert by_mask.keep == keep
                assert DupLossStep(2, width, by_mask.keep) == by_mask
                assert step_to_json(by_mask)["keep"] == sorted(keep)

    def test_offsets_may_be_any_iterable(self):
        assert DupLossStep(3, 4, [3, 2]) == DupLossStep(3, 4, {2, 3}) == DupLossStep(3, 4, 0b0110)
        assert DupLossStep(3, 4).keep == frozenset()

    def test_is_immutable(self):
        step = DupLossStep(3, 4, 0b0110)
        with pytest.raises(AttributeError):
            step.mask = 1

    def test_trusted_constructor_builds_the_checked_step(self):
        for width in range(1, 7):
            for mask in range(1 << width):
                trusted, checked = _step(2, width, mask), DupLossStep(2, width, mask)
                assert type(trusted) is DupLossStep
                assert trusted == checked
                assert hash(trusted) == hash(checked)
                assert repr(trusted) == repr(checked)
                assert trusted.keep == checked.keep
        with pytest.raises(AttributeError):
            _step(3, 4, 0b0110).mask = 1

    def test_repr_shows_offsets(self):
        assert repr(DupLossStep(3, 4, 0b0110)) == (
            "DupLossStep(start=3, width=4, keep=frozenset({2, 3}))"
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2, frozenset()), "start must be an integer >= 1, got 0"),
            ((0, 2, 0), "start must be an integer >= 1, got 0"),
            ((1, 0, frozenset()), "width must be an integer >= 1, got 0"),
            ((1, 0, 0), "width must be an integer >= 1, got 0"),
            ((1, 2, frozenset({3})), "keep offsets [3] outside 1..2"),
            ((1, 2, frozenset({0, 1})), "keep offsets [0, 1] outside 1..2"),
            ((1, 2, -1), "keep mask -1 outside 0..3"),
            ((1, 2, 0b100), "keep mask 4 outside 0..3"),
            ((2, 3, 1 << 3), "keep mask 8 outside 0..7"),
        ],
    )
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            DupLossStep(*args)


class TestMaskKernel:
    """``apply_step_to_list`` and the mask decoder behind it against the
    keep-set oracle ``apply_keep_set``, which reads the mask bit by bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_step_on_seeded_size_ten_hosts(self, seed):
        host = random_permutation(10, seed)
        before = inversion_count(host.values)
        for step in all_steps(10, 8):
            got, want = list(host.values), list(host.values)
            apply_step_to_list(got, step)
            apply_keep_set(want, step)
            assert got == want, step
            assert apply_step(host, step).values == tuple(want)
            assert inversions_created(host, step) == inversion_count(want) - before, step

    @staticmethod
    def check_decoded(width, mask):
        kept = sorted(mask_offsets(width, mask))
        assert _kept_offsets(width, mask) == tuple(kept), (width, mask)
        if width > 1:
            moved = [o for o in range(1, width + 1) if o not in kept]
            want = tuple(o - 1 for o in kept + moved)
            assert _window_order(width, mask)(list(range(width))) == want, (width, mask)

    def test_decoder_on_every_mask_of_widths_to_twelve(self):
        for width in range(1, 13):
            for mask in range(1 << width):
                self.check_decoded(width, mask)

    def test_decoder_on_seeded_wide_masks(self):
        rng = random.Random(2048)
        for width in range(13, 301):
            top = 1 << (width - 1)
            for mask in (0, (top << 1) - 1, 1, top, rng.getrandbits(width), rng.getrandbits(width)):
                self.check_decoded(width, mask)

    def test_every_pair_of_steps_applied_as_a_sequence(self):
        # Every two-step sequence on a size-6 host: each run of rotation
        # steps it holds, and each way such a run can break.
        host = list(random_permutation(6, 5).values)
        steps = list(all_steps(6, 4))
        for first, second in itertools.product(steps, repeat=2):
            got, want = list(host), list(host)
            apply_steps_to_list(got, (first, second))
            apply_keep_set(want, first)
            apply_keep_set(want, second)
            assert got == want, (first, second)

    def test_kernel_on_a_wide_bucket_row(self):
        # One n_over_log bench row: n = 2048, K = ceil(2048 / log2 2048) = 187.
        target = random_permutation(2048, 7)
        phase1, phase2 = bucket_phases(target, 187)
        row = phase1 + phase2
        got, want = list(range(1, 2049)), list(range(1, 2049))
        for step in row:
            apply_step_to_list(got, step)
            apply_keep_set(want, step)
            assert got == want, step
        assert tuple(got) == target.values
        wide = max(row, key=lambda step: step.width)
        kept = mask_offsets(wide.width, wide.mask)
        assert wide.width == 187 and 0 < len(kept) < 187
        assert wide.keep == kept
        assert step_to_json(wide) == {"start": wide.start, "width": 187, "keep": sorted(kept)}

    def test_effects_are_the_keep_set_maps_once_each(self):
        # table[m[i]] = i, identity elsewhere: read each table back to its map m
        positions = bytes(range(256))
        for n in range(0, 9):
            for width in range(1, n + 2):
                tables = _effects(n, width)
                got = set()
                for table in tables:
                    assert len(table) == 256 and table[n:] == positions[n:], (n, width)
                    got.add(tuple(bytes.maketrans(table[:n], positions[:n])[:n]))
                assert len(set(tables)) == len(tables) == _effect_count(n, width), (n, width)
                assert got == keep_set_effect_maps(n, width), (n, width)


class TestApplyStep:
    def test_golden_width_four(self):
        step = DupLossStep(3, 4, frozenset({2, 3}))
        assert apply_step(identity(7), step) == Permutation([1, 2, 4, 5, 3, 6, 7])

    def test_keep_all_is_noop(self):
        p = Permutation([3, 1, 4, 2, 5])
        step = DupLossStep(2, 3, frozenset({1, 2, 3}))
        assert apply_step(p, step) == p

    def test_keep_none_is_noop(self):
        p = Permutation([3, 1, 4, 2, 5])
        assert apply_step(p, DupLossStep(2, 3, frozenset())) == p

    def test_window_must_fit(self):
        with pytest.raises(WindowOutOfRangeError):
            apply_step(identity(5), DupLossStep(4, 3, frozenset()))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            DupLossStep(0, 2, frozenset())
        with pytest.raises(ValueError):
            DupLossStep(1, 0, frozenset())
        with pytest.raises(ValueError):
            DupLossStep(1, 2, frozenset({3}))

    @given(permutations_st(min_n=2, max_n=7))
    @settings(deadline=None, max_examples=60)
    def test_preserves_value_multiset(self, p):
        n = len(p)
        for start in range(1, n):
            width = min(3, n - start + 1)
            for keep in ({1}, {2}, set(range(1, width + 1))):
                q = apply_step(p, DupLossStep(start, width, frozenset(keep)))
                assert sorted(q.values) == list(range(1, n + 1))

    def test_kept_groups_preserve_relative_order(self):
        p = Permutation([4, 2, 5, 1, 3, 6])
        for start in range(1, 4):
            for width in range(2, 4):
                for mask in range(1 << width):
                    keep = frozenset(o + 1 for o in range(width) if (mask >> o) & 1)
                    q = apply_step(p, DupLossStep(start, width, keep))
                    window = p.values[start - 1 : start - 1 + width]
                    kept = [window[o - 1] for o in sorted(keep)]
                    lost = [window[o - 1] for o in range(1, width + 1) if o not in keep]
                    got = q.values[start - 1 : start - 1 + width]
                    assert list(got) == kept + lost

    def test_one_step_from_identity_has_at_most_one_descent(self):
        for n in range(1, 6):
            for start in range(1, n + 1):
                for width in range(1, n - start + 2):
                    for mask in range(1 << width):
                        keep = frozenset(o + 1 for o in range(width) if (mask >> o) & 1)
                        q = apply_step(identity(n), DupLossStep(start, width, keep))
                        assert descent_count(q) <= 1


class TestSuccessors:
    def test_size_two(self):
        assert successors(identity(2), 2) == {identity(2), Permutation([2, 1])}

    def test_size_three_full_width(self):
        got = {str(p) for p in successors(identity(3), 3)}
        assert got == {"1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2"}

    def test_size_three_width_two(self):
        got = {str(p) for p in successors(identity(3), 2)}
        assert got == {"1,2,3", "2,1,3", "1,3,2"}

    def test_contains_self(self):
        for n in range(0, 5):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                assert p in successors(p, 2)

    def test_matches_brute_force(self):
        # the compiled effect tables against direct window/subset enumeration,
        # and the joined-layer kernel against the per-key oracle
        for n in range(0, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                key = state_key(vals)
                for limit in range(1, n + 2):
                    got = successor_values([key], limit)
                    assert type(got) is set and key in got
                    assert got == set(per_key_successor_values([key], limit))
                    states = {tuple(p) for p in key_states(got, n)}
                    assert len(states) == len(got)
                    assert states == brute_successors(vals, limit)

    def test_layer_kernel_is_the_union_in_first_appearance_order(self):
        # a set now: the union of every key's neighbourhood, the keys included
        keys = [state_key(random_permutation(7, seed)) for seed in range(5)]
        keys.append(keys[0])
        got = successor_values(keys, 4)
        want = set()
        for key in keys:
            want |= {state_key(vals) for vals in brute_successors(key_states([key], 7)[0], 4)}
        assert type(got) is set and got == want
        assert set(keys) <= got
        assert got == set(per_key_successor_values(keys, 4))

    @pytest.mark.parametrize("count", (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1))
    def test_layer_kernel_across_split_chunks(self, count):
        keys = [state_key(p) for p in itertools.islice(itertools.permutations(range(8, 0, -1)), count)]
        assert successor_values(keys, 3) == set(per_key_successor_values(keys, 3))

    def test_caches_are_bounded(self):
        assert _chunk_struct.cache_info().maxsize is not None
        assert _MAX_HELD_EFFECTS == 1 << 16

    def test_held_effects_stay_within_the_table_bound(self):
        # 75,342 tables in five near-budget sets: the last four fit, and the
        # first set goes once the fifth is built, with everything held before it
        sizes = [(15, 13), (16, 12), (64, 9), (256, 7), (14, 14)]
        for n, width in sizes:
            tables = _effects(n, width)
            assert sum(len(t) for t in _held_effects.values()) <= _MAX_HELD_EFFECTS
            assert _effects(n, width) is tables
        assert list(_held_effects) == sizes[1:]
        _effects(16, 12)  # a hit makes it the most recently used
        assert list(_held_effects) == [*sizes[2:], (16, 12)]

    def test_inverse_keys_round_trip(self):
        for n in (0, 1, 5, 255, 256):
            for seed in range(3):
                p = random_permutation(n, seed)
                key = state_key(p)
                assert sorted(key) == list(range(n))
                assert all(p[key[v - 1]] == v for v in range(1, n + 1))
                assert key_states([key], n) == [p]

    def test_size_256_matches_single_steps(self):
        p = random_permutation(256, 1)
        want = {apply_step(p, step) for step in all_steps(256, 2)}
        assert successors(p, 2) == want

    def test_refuses_sizes_above_the_byte_bound(self):
        with pytest.raises(BudgetExceededError, match="exceeds 256"):
            successors(identity(257), 2)

    @pytest.mark.parametrize("call", [
        lambda: successors(identity(256), 32),
        lambda: successor_values([state_key(identity(64))], 30),
    ], ids=["successors-256-32", "successor_values-64-30"])
    def test_refuses_effect_sets_above_the_step_budget(self, call):
        # the effect count is checked before any effect is built
        before = list(_held_effects)
        with pytest.raises(BudgetExceededError, match="step effects on size .* exceed 16384"):
            call()
        assert list(_held_effects) == before

    @pytest.mark.parametrize("n, built, refused", [
        (15, 13, 14), (16, 12, 13), (64, 9, 10), (256, 7, 8),
    ])
    def test_step_budget_boundary(self, n, built, refused):
        # for each size, the widest width within 2^14 effects and the next one
        assert len(_effects(n, built)) == _effect_count(n, built) <= 1 << 14
        with pytest.raises(BudgetExceededError, match=f"{_effect_count(n, refused)} step effects"):
            _effects(n, refused)

    def test_widest_effect_set_within_the_budget(self):
        assert len(_effects(14, 14)) == _effect_count(14, 14) == 16_369

    @given(permutations_st(min_n=1, max_n=6))
    @settings(deadline=None, max_examples=40)
    def test_monotone_in_width(self, p):
        prev = set()
        for limit in range(1, len(p) + 2):
            cur = successors(p, limit)
            assert prev <= cur
            prev = cur


def conjugate_by_reversal(table, n):
    """The table of R m R for the table of the position map m, where R
    reverses the n positions: t'[b] = n-1-t[n-1-b] below n."""
    return bytes(n - 1 - table[n - 1 - b] for b in range(n)) + table[n:]


class TestReverseComplement:
    """rc(pi) = C o pi o R on inverse keys, and the closure of the step
    effects under reversal that makes rc preserve distance."""

    def test_effects_are_closed_under_reversal(self):
        for n in range(0, 9):
            for width in range(1, n + 1):
                tables = set(_effects(n, width))
                assert {conjugate_by_reversal(t, n) for t in tables} == tables, (n, width)

    @pytest.mark.parametrize("n", (0, 1, 2, 7, 255, 256))
    def test_rc_is_an_involution_equal_to_c_pi_r(self, n):
        for width in (1, 2, 3):
            tables = set(_effects(n, width))
            assert {conjugate_by_reversal(t, n) for t in tables} == tables, width
        perms = [random_permutation(n, seed) for seed in range(4)]
        keys = [state_key(p) for p in perms]
        rcs = reverse_complements(keys)
        assert rcs == [state_key([n + 1 - v for v in reversed(p)]) for p in perms]
        assert reverse_complements(rcs) == keys

    def test_whole_layer_across_split_chunks(self):
        perms = list(itertools.permutations(range(1, 8)))  # 5040 keys: whole chunks and a rest
        rcs = reverse_complements([state_key(p) for p in perms])
        assert rcs == [state_key([8 - v for v in reversed(p)]) for p in perms]


class TestInversionsCreated:
    def test_noop_creates_none(self):
        p = Permutation([2, 4, 1, 3])
        assert inversions_created(p, DupLossStep(1, 4, frozenset({1, 2, 3, 4}))) == 0

    def test_golden_3412(self):
        step = DupLossStep(1, 4, frozenset({3, 4}))
        assert apply_step(identity(4), step) == Permutation([3, 4, 1, 2])
        assert inversions_created(identity(4), step) == 4

    @pytest.mark.parametrize("k", range(2, 6))
    def test_identity_maximum_is_k_squared_over_four(self, k):
        best = max(
            inversions_created(identity(k), DupLossStep(1, k, frozenset(c)))
            for r in range(k + 1)
            for c in itertools.combinations(range(1, k + 1), r)
        )
        assert best == k * k // 4

    def test_bound_holds_for_all_hosts(self):
        # every width-k step on every host of S_1..S_6 creates at most
        # floor(k^2/4), and the window-only count equals the whole-permutation
        # difference
        for n in range(1, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p, before = Permutation(vals), inversion_count(vals)
                for step in all_steps(n, 6):
                    created = inversions_created(p, step)
                    assert created <= step.width * step.width // 4
                    assert created == inversion_count(apply_step(p, step).values) - before

    def test_matches_whole_permutation_difference_at_n64(self):
        rng = random.Random(64)
        for seed in range(3):
            p = random_permutation(64, seed)
            for width in range(1, 17):
                for _ in range(8):
                    start = rng.randint(1, 65 - width)
                    keep = frozenset(o for o in range(1, width + 1) if rng.random() < 0.5)
                    step = DupLossStep(start, width, keep)
                    created = inversions_created(p, step)
                    after = apply_step(p, step).values
                    assert created == inversion_count(after) - inversion_count(p.values)

    def test_window_must_fit(self):
        with pytest.raises(WindowOutOfRangeError):
            inversions_created(identity(4), DupLossStep(3, 3, frozenset({1})))

    def test_can_be_negative(self):
        p = Permutation([2, 1])
        step = DupLossStep(1, 2, frozenset({2}))
        assert inversions_created(p, step) == -1
        assert inversions(apply_step(p, step)) == 0
