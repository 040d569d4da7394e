import hashlib
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duploss import (
    DuplicateValueError,
    DupLossError,
    DupLossStep,
    InvalidParameterError,
    InvalidWidthError,
    NotSortedWindowError,
    OutOfRangeError,
    Permutation,
    Scenario,
    WidthExceededError,
    WindowOutOfRangeError,
    apply_step,
    bucket_phases,
    bucket_scenario,
    bucket_windows,
    descent_count,
    identity,
    radix_scenario,
    random_permutation,
    replay,
    reversed_identity,
    scenario_to_json,
)
from duploss import scenarios
from duploss.scenarios import _convoy_steps, _radix_steps
from duploss.steps import apply_step_to_list
from helpers import (
    apply_keep_set,
    check_bucket_phases,
    replay_step_by_step,
    scan_bucket_phases,
    scan_convoy,
    scan_radix_steps,
)


def steps_formula(p: Permutation) -> int:
    return descent_count(p).bit_length()  # == ceil(log2(desc + 1))


class TestRadix:
    def test_identity_target_needs_no_steps(self):
        sc = radix_scenario(identity(4))
        assert sc.step_count == 0
        assert replay(sc) == identity(4)
        assert radix_scenario(Permutation(())).width_limit == 1

    def test_one_descent_needs_one_step(self):
        for vals in itertools.permutations(range(1, 5)):
            p = Permutation(vals)
            if descent_count(p) == 1:
                sc = radix_scenario(p)
                assert sc.step_count == 1
                assert replay(sc) == p

    def test_3142_takes_two_steps(self):
        sc = radix_scenario(Permutation([3, 1, 4, 2]))
        assert sc.step_count == 2
        assert replay(sc) == Permutation([3, 1, 4, 2])

    def test_exhaustive_step_count_and_round_trip(self):
        for n in range(0, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                sc = radix_scenario(p)
                assert sc.step_count == steps_formula(p)
                assert replay(sc) == p

    def test_steps_match_the_window_scanning_oracle(self):
        # the steps from run labels equal those of the window-writing radix,
        # and replaying them through the keep-set oracle builds the target
        for n in range(0, 8):
            for vals in itertools.permutations(range(1, n + 1)):
                steps = _radix_steps(2, vals)
                work = [0, *range(1, n + 1), n + 1]
                assert steps == scan_radix_steps(work, 2, vals)
                replayed = [0, *range(1, n + 1), n + 1]
                for step in steps:
                    apply_keep_set(replayed, step)
                assert work == replayed == [0, *vals, n + 1]

    @pytest.mark.parametrize("n", (256, 1024, 2048))
    def test_whole_blocks_match_the_window_scanning_oracle(self, n):
        for seed in range(3):
            vals = random_permutation(n, seed).values
            assert _radix_steps(1, vals) == scan_radix_steps(list(range(1, n + 1)), 1, vals)

    @pytest.mark.parametrize("n", (0, 1, 256, 257, 512, 513))
    def test_digit_group_edges_match_the_window_scanning_oracle(self, n):
        # n - 1 descents: 255 and 256 straddle one byte digit of the run
        # labels, 511 and 512 the ninth and tenth label bits
        vals = reversed_identity(n).values
        assert _radix_steps(3, vals) == scan_radix_steps([0, 0, *range(1, n + 1)], 3, vals)


class TestTargetsAtTheEdge:
    """A target that is not a ``Permutation`` is checked by its constructor,
    so a repeated or missing value, or a target that is not iterable, is a
    typed error, not a wrong scenario."""

    @pytest.mark.parametrize("make", [
        radix_scenario,
        lambda t: bucket_scenario(t, 2),
        lambda t: bucket_phases(t, 2),
    ], ids=["radix", "bucket", "phases"])
    @pytest.mark.parametrize("target, error", [
        ([2, 2], DuplicateValueError), ([1, 3], OutOfRangeError), ((0,), OutOfRangeError),
        (5, InvalidParameterError), (None, InvalidParameterError),
    ])
    def test_invalid_target_is_refused(self, make, target, error):
        with pytest.raises(error) as caught:
            make(target)
        assert isinstance(caught.value, DupLossError)

    def test_valid_sequence_gives_the_permutation_s_scenario(self):
        for vals in ([2, 1], (3, 1, 4, 2), [5, 2, 4, 3, 1, 6]):
            p = Permutation(vals)
            assert radix_scenario(vals) == radix_scenario(p)
            assert bucket_scenario(vals, 3) == bucket_scenario(p, 3)
            assert bucket_phases(list(vals), 2) == bucket_phases(p, 2)


class TestReplay:
    def test_result_is_an_exact_permutation(self):
        for n in (0, 1, 7, 64):
            for seed in range(10):
                p = random_permutation(n, seed)
                for sc in (bucket_scenario(p, 4), radix_scenario(p)):
                    final = replay(sc)
                    assert type(final) is Permutation
                    assert final == Permutation(list(final)) == p

    def test_empty_scenario(self):
        assert replay(Scenario(5, 2, ())) == identity(5)

    def test_figure_single_step(self):
        sc = Scenario(7, 4, (DupLossStep(3, 4, frozenset({2, 3})),))
        assert replay(sc) == Permutation([1, 2, 4, 5, 3, 6, 7])

    def test_width_exceeded(self):
        sc = Scenario(7, 3, (DupLossStep(3, 4, frozenset({2, 3})),))
        with pytest.raises(WidthExceededError):
            replay(sc)

    def test_window_out_of_range(self):
        sc = Scenario(5, 4, (DupLossStep(3, 4, frozenset({2})),))
        with pytest.raises(WindowOutOfRangeError):
            replay(sc)

    def test_infinite_width_limit(self):
        sc = Scenario(4, math.inf, (DupLossStep(1, 4, frozenset({3, 4})),))
        assert replay(sc) == Permutation([3, 4, 1, 2])

    @pytest.mark.parametrize("call", [replay, scenario_to_json], ids=["replay", "to_json"])
    @pytest.mark.parametrize("scenario", [
        [DupLossStep(1, 2, 1)],
        (DupLossStep(1, 2, 1),),
        None,
    ], ids=["step-list", "step-tuple", "none"])
    def test_non_scenarios_are_refused(self, call, scenario):
        with pytest.raises(InvalidParameterError, match="must be a Scenario"):
            call(scenario)


def rotations(width, m, starts):
    """Rotation steps of one width: each keeps the suffix {m+1..width} of
    its window, so it moves the window's first m entries to its end."""
    return [DupLossStep(s, width, (1 << width) - (1 << m)) for s in starts]


def outcome(replayer, scenario):
    """The replayed permutation, or the type and message of the error."""
    try:
        return replayer(scenario)
    except DupLossError as exc:
        return type(exc), str(exc)


# Hand-built step lists on size 20 around runs of rotation steps, by name.
RUN_CASES = {
    "new mask": rotations(5, 2, [1, 4, 7]) + rotations(5, 3, [10, 12]),
    "new width": rotations(5, 2, [1, 4]) + [DupLossStep(7, 6, 0b11100)],
    "new stride": rotations(5, 2, [1, 4]) + rotations(5, 2, [8, 11]),
    "two adjacent runs": rotations(4, 1, [1, 4, 7]) + rotations(4, 2, [10, 12, 14]),
    "run restarting left": rotations(5, 2, [7, 10]) + rotations(5, 2, [1, 4]),
    "last window ends at n": rotations(5, 2, range(1, 17, 3)),
    "stride one": rotations(6, 5, range(1, 16)),
    "width-1 steps": [DupLossStep(2, 1, 0)] + rotations(3, 1, [1, 3])
    + [DupLossStep(6, 1, 1)] + rotations(3, 1, [7, 9]) + [DupLossStep(20, 1, 0)],
    "masks 0 and full": rotations(5, 2, [1, 4]) + [DupLossStep(7, 5, 0)]
    + rotations(5, 2, [7]) + [DupLossStep(10, 5, 31)] + rotations(5, 2, [10, 13]),
    "one-step runs": rotations(5, 2, [3]) + rotations(4, 3, [9]) + rotations(2, 1, [19]),
    "non-rotation between": rotations(4, 1, [1, 4]) + [DupLossStep(7, 4, 0b0110)]
    + rotations(4, 1, [7, 10]),
    "whole size": rotations(20, 7, [1, 1]) + rotations(20, 19, [1]),
    "single step ends at n": rotations(4, 1, [1]) + [DupLossStep(13, 8, 0b10110101)],
}


class TestReplayRuns:
    """``replay`` applies each run of rotation steps as one slice rotation;
    ``replay_step_by_step`` applies and checks one step at a time."""

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 64, 256, 512])
    def test_bucket_scenarios_match_step_by_step(self, n):
        widths = [2, 3, 5, 8, 16] + ([math.ceil(n / math.log2(n))] if n > 1 else [])
        targets = [random_permutation(n, seed) for seed in (3, 11)] + [reversed_identity(n)]
        for limit in dict.fromkeys(widths):
            for target in targets:
                sc = bucket_scenario(target, limit)
                assert replay(sc) == replay_step_by_step(sc) == target, (n, limit)

    def test_radix_scenarios_match_step_by_step(self):
        for n in (0, 1, 2, 17, 64, 300):
            for seed in range(5):
                sc = radix_scenario(random_permutation(n, seed))
                assert replay(sc) == replay_step_by_step(sc), (n, seed)

    @pytest.mark.parametrize("name", RUN_CASES)
    def test_hand_built_runs(self, name):
        sc = Scenario(20, math.inf, RUN_CASES[name])
        assert replay(sc) == replay_step_by_step(sc)

    def test_seeded_mixes_of_runs_and_other_steps(self):
        rng = random.Random(2028)
        for _ in range(300):
            n, steps = rng.randint(2, 30), []
            while len(steps) < 12:
                width = rng.randint(1, n)
                if width > 1 and rng.random() < 0.6:
                    m = rng.randint(1, width - 1)
                    first = rng.randint(1, n - width + 1)
                    steps += rotations(width, m, range(first, n - width + 2, width - m))[
                        : rng.randint(1, 5)
                    ]
                else:
                    mask = rng.getrandbits(width)
                    steps.append(DupLossStep(rng.randint(1, n - width + 1), width, mask))
            sc = Scenario(n, n, steps)
            assert replay(sc) == replay_step_by_step(sc), steps

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_width_error_on_a_run_step(self, where):
        steps = rotations(4, 1, [1, 4, 7, 10])
        i = {"first": 0, "middle": 2, "last": 3}[where]
        steps[i] = rotations(6, 1, [steps[i].start])[0]
        sc = Scenario(16, 4, steps)
        assert outcome(replay, sc) == outcome(replay_step_by_step, sc)
        assert outcome(replay, sc) == (WidthExceededError, "step width 6 exceeds limit 4")

    @pytest.mark.parametrize("n, window", [(3, "[1, 4]"), (8, "[7, 10]"), (12, "[10, 13]")])
    def test_window_error_on_a_run_step(self, n, window):
        sc = Scenario(n, 4, rotations(4, 1, [1, 4, 7, 10]))
        assert outcome(replay, sc) == outcome(replay_step_by_step, sc)
        message = f"window {window} does not fit in size {n}"
        assert outcome(replay, sc) == (WindowOutOfRangeError, message)

    def test_first_offending_step_decides(self):
        late_width = rotations(4, 1, [1, 4]) + rotations(6, 1, [7])
        window_then_width = rotations(4, 1, [1, 4, 7, 10]) + rotations(6, 1, [1])
        both_in_one = rotations(4, 1, [1]) + rotations(6, 1, [9])
        single_past_n = rotations(4, 1, [1]) + [DupLossStep(10, 4, 0b0110)]
        for steps, error in [
            (late_width, WidthExceededError),
            (window_then_width, WindowOutOfRangeError),
            (both_in_one, WidthExceededError),
            (single_past_n, WindowOutOfRangeError),
        ]:
            sc = Scenario(12, 4, steps)
            assert outcome(replay, sc) == outcome(replay_step_by_step, sc)
            assert outcome(replay, sc)[0] is error


class TestScenarioSteps:
    def test_steps_are_stored_as_a_tuple(self):
        step = DupLossStep(1, 2, 0b10)
        sc = Scenario(3, 3, [step])
        assert sc.steps == (step,)
        assert hash(sc) == hash(Scenario(3, 3, (step,)))
        assert Scenario(3, 3, iter([step])) == sc

    @pytest.mark.parametrize("steps, message", [
        (((1, 2, 1),), "step (1, 2, 1) is not a DupLossStep"),
        ([DupLossStep(1, 2, 1), None], "step None is not a DupLossStep"),
        ("ab", "step 'a' is not a DupLossStep"),
        ([DupLossStep(1, 2, 1), "x", None], "step 'x' is not a DupLossStep"),
        (5, "steps 5 are not iterable"),
    ])
    def test_rejects_what_is_not_a_step(self, steps, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            Scenario(3, 3, steps)


class TestBucketWindows:
    def test_golden_chunking(self):
        assert bucket_windows(10, 6) == [(1, 4), (5, 7), (8, 10)]

    def test_small_sizes_single_window(self):
        assert bucket_windows(4, 4) == [(1, 4)]
        assert bucket_windows(3, 7) == [(1, 3)]
        assert bucket_windows(0, 5) == []

    def test_partition_properties(self):
        for n in range(1, 60):
            for limit in range(2, 12):
                windows = bucket_windows(n, limit)
                flat = [i for a, b in windows for i in range(a, b + 1)]
                assert flat == list(range(1, n + 1))
                # all but the leftmost have width floor(K/2); leftmost is <= K
                assert windows[0][1] - windows[0][0] + 1 <= limit
                for a, b in windows[1:]:
                    assert b - a + 1 == limit // 2

    def test_rejects_small_width(self):
        with pytest.raises(InvalidWidthError):
            bucket_windows(5, 1)


class TestBucket:
    def test_identity_needs_no_steps(self):
        for n in (0, 1, 5, 9):
            sc = bucket_scenario(identity(n), 4)
            assert sc.step_count == 0

    def test_worked_example_phase_one(self):
        target = Permutation([2, 10, 1, 7, 6, 5, 8, 9, 3, 4])
        phase1, phase2 = bucket_phases(target, 6)
        work = list(range(1, 11))
        for step in phase1:
            apply_step_to_list(work, step)
        assert work == [1, 2, 7, 10, 5, 6, 8, 3, 4, 9]
        for step in phase2:
            apply_step_to_list(work, step)
        assert tuple(work) == target.values

    def test_small_size_routes_to_single_radix(self):
        sc = bucket_scenario(Permutation([4, 3, 2, 1]), 4)
        assert sc.step_count == 2
        assert replay(sc) == Permutation([4, 3, 2, 1])
        assert all(s.start == 1 and s.width == 4 for s in sc.steps)

    def test_rejects_small_width(self):
        with pytest.raises(InvalidWidthError):
            bucket_scenario(identity(5), 1)

    def test_exhaustive_round_trip(self):
        for n in range(1, 7):
            for limit in range(2, 7):
                for vals in itertools.permutations(range(1, n + 1)):
                    p = Permutation(vals)
                    sc = bucket_scenario(p, limit)
                    assert replay(sc) == p
                    assert all(s.width <= limit for s in sc.steps)

    def test_seeded_round_trip_n50(self):
        for seed in range(100):
            p = random_permutation(50, seed)
            sc = bucket_scenario(p, 7)
            assert replay(sc) == p
            assert all(s.width <= 7 for s in sc.steps)

    def test_thousand_seeded_round_trips_up_to_512(self):
        sizes = (16, 64, 128, 256, 512)
        limits = (2, 3, 5, 8, 16, 32)
        for seed in range(1000):
            n = sizes[seed % len(sizes)]
            limit = limits[seed % len(limits)]
            p = random_permutation(n, seed)
            sc = bucket_scenario(p, limit)
            assert replay(sc) == p
            assert all(s.width <= limit for s in sc.steps)

    @given(st.integers(2, 10), st.data())
    @settings(deadline=None, max_examples=50)
    def test_random_round_trip(self, limit, data):
        n = data.draw(st.integers(0, 40))
        vals = data.draw(st.permutations(tuple(range(1, n + 1))))
        p = Permutation(vals)
        sc = bucket_scenario(p, limit)
        assert replay(sc) == p
        assert all(s.width <= limit for s in sc.steps)

    def test_block_end_state_check(self, monkeypatch):
        # a convoy handed one member fewer leaves its block unfilled; phase 2
        # starts from a derived state, so the convoy's own guard reports it
        convoy = scenarios._convoy_steps
        monkeypatch.setattr(
            scenarios, "_convoy_steps", lambda where, *rest: convoy(where[:-1], *rest)
        )
        with pytest.raises(NotSortedWindowError):
            bucket_phases(reversed_identity(10), 4)

    def test_phases_match_the_window_scanning_oracle_exhaustive(self):
        for n in range(0, 8):
            for limit in range(2, 9):
                for vals in itertools.permutations(range(1, n + 1)):
                    p = Permutation(vals)
                    assert bucket_phases(p, limit) == scan_bucket_phases(p, limit)

    def test_phases_match_the_window_scanning_oracle_seeded(self):
        check_bucket_phases(sizes=(16, 64, 128, 256, 512), seeds=range(4))
        # convoy runs that reach no new member dominate at narrow K and large n
        check_bucket_phases(sizes=(1024, 2048), seeds=(0,), widths=lambda n: (8,))

    def test_every_step_passes_the_public_constructor(self):
        # the convoy builds its steps unchecked; every step of both generators must be valid
        small = (bucket_phases(Permutation(vals), limit)
                 for n in range(0, 8)
                 for vals in itertools.permutations(range(1, n + 1))
                 for limit in range(2, 9))
        targets = [random_permutation(n, seed) for seed, n in enumerate((256, 512, 1024, 2048))]
        assert all(descent_count(p).bit_length() > 8 for p in targets[1:])  # several byte columns
        large = [bucket_phases(random_permutation(1024, 5), 8)]
        for p in targets:
            large.append([radix_scenario(p).steps])
            large.append([bucket_scenario(p, math.ceil(len(p) / math.log2(len(p)))).steps])
        for phases in itertools.chain(small, large):
            for step in itertools.chain(*phases):
                assert type(step) is DupLossStep
                assert DupLossStep(step.start, step.width, step.mask) == step

    def test_phase_one_leaves_every_block_increasing(self):
        # the state phase 2 starts from, replayed through the keep-set oracle
        for seed, n in enumerate((10, 33, 64, 100, 256)):
            p = random_permutation(n, seed)
            for limit in range(2, 13):
                work = list(range(1, n + 1))
                for step in bucket_phases(p, limit)[0]:
                    apply_keep_set(work, step)
                for t1, t2 in bucket_windows(n, limit):
                    assert work[t1 - 1 : t2] == sorted(p[t1 - 1 : t2])

    def test_infinite_width_is_whole_window_radix(self):
        p = Permutation([5, 2, 4, 3, 1, 6])
        sc = bucket_scenario(p, math.inf)
        assert replay(sc) == p
        assert sc.step_count == steps_formula(p)


class TestPhase1MoveBlock:
    @staticmethod
    def convoy(vals, members, target_start, target_end, limit):
        """The convoy steps from the members' positions in ``vals``, and
        ``vals`` after replaying them through the keep-set oracle.  The steps
        must equal those of the window-scanning oracle ``scan_convoy``."""
        where = [i for i, v in enumerate(vals, 1) if v in members]
        steps = _convoy_steps(where, target_start, target_end, limit)
        oracle = scan_convoy(list(vals), frozenset(members), target_start, target_end, limit)
        assert steps == oracle
        work = list(vals)
        for s in steps:
            apply_keep_set(work, s)
        return steps, work

    def test_members_already_in_place(self):
        assert self.convoy([4, 5, 1, 2, 3], {2, 3}, 4, 5, 4) == ([], [4, 5, 1, 2, 3])

    def test_single_member_adjacent(self):
        steps, work = self.convoy(range(1, 7), {5}, 6, 6, 4)
        assert len(steps) == 1
        assert work[5] == 5

    def test_far_left_step_bound(self):
        # members at the far left moving to the rightmost block
        for n, limit in ((12, 5), (20, 6), (17, 4)):
            half = limit // 2
            members = set(range(1, half + 1))
            steps, work = self.convoy(range(1, n + 1), members, n - half + 1, n, limit)
            bound = math.ceil((n - half) / math.ceil(limit / 2)) + 1
            assert 1 <= len(steps) <= bound
            assert work[n - half :] == sorted(members)

    def test_surplus_members_end_at_the_block(self):
        # more members than the block holds: the convoy still ends at the
        # block's end, and its guard reports the surplus
        with pytest.raises(NotSortedWindowError):
            _convoy_steps([1, 2, 3], 7, 8, 4)

    def test_preserves_both_groups_order(self):
        vals = [3, 6, 1, 8, 2, 7, 4, 5]
        members = {6, 8}
        steps, work = self.convoy(vals, members, 7, 8, 5)
        assert work[6:] == [6, 8]
        rest = [v for v in vals if v not in members]
        assert [v for v in work if v not in members] == rest

    @pytest.mark.parametrize("limit, m", [(4, 1), (5, 2), (8, 3), (8, 6)])
    @pytest.mark.parametrize("runs", [0, 1, 3])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_run_stops_at_the_next_member(self, limit, m, runs, delta):
        # after the first step the convoy of members 1..m starts at
        # s = K - m + 1; the next member lies runs * (K - m) + K - 1 + delta
        # past s, so the window reaching it ends exactly there at delta = 0
        gain = limit - m
        s = gain + 1
        nxt = s + runs * gain + limit - 1 + delta
        target_start = nxt + 2 * limit
        members = [*range(1, m + 1), nxt]
        n = target_start + m
        steps, work = self.convoy(range(1, n + 1), set(members), target_start, n, limit)
        assert work[target_start - 1 :] == members
        full = (1 << limit) - (1 << m)
        member_less = itertools.takewhile(lambda st: (st.width, st.mask) == (limit, full), steps)
        assert len(list(member_less)) == 1 + runs + (delta > 0)

    @pytest.mark.parametrize("limit, m", [(4, 1), (5, 2), (8, 3), (8, 7)])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_run_lands_on_target_start(self, limit, m, delta):
        # members 1..m and one member already at the block's right end; at
        # delta = 0 the third run step puts the convoy exactly at target_start
        gain = limit - m
        target_start = 4 * gain + 1 + delta
        members = [*range(1, m + 1), target_start + m]
        n = target_start + m
        steps, work = self.convoy(range(1, n + 1), set(members), target_start, n, limit)
        assert work[target_start - 1 :] == members
        if delta == 0:
            assert [(st.start, st.width) for st in steps] == [
                (1, limit), *((gain + 1 + j * gain, limit) for j in range(3))
            ]

    def test_window_clamped_at_position_one(self):
        # the block ends before position K, so the one window is [1, target_end]
        steps, work = self.convoy(range(1, 7), {1, 3}, 5, 6, 8)
        assert [(st.start, st.width) for st in steps] == [(1, 6)]
        assert work == [2, 4, 5, 6, 1, 3]

    @pytest.mark.parametrize("where, target_start, target_end, limit", [
        ([2, 9], 5, 6, 4),  # a member right of the block
        ([3], 5, 6, 4),  # too few members
        ([], 5, 6, 4),  # none
        ([1, 2, 3, 4], 5, 8, 4),  # K members fill a window: the convoy cannot advance
    ], ids=["right-of-block", "too-few", "none", "K-members"])
    def test_undelivered_block_raises(self, where, target_start, target_end, limit):
        with pytest.raises(NotSortedWindowError):
            _convoy_steps(where, target_start, target_end, limit)


class TestScenarioJson:
    def test_infinity_encoding(self):
        sc = Scenario(3, math.inf, ())
        obj = scenario_to_json(sc)
        assert obj["width_limit"] == "inf"


class TestGoldenTranscripts:
    """sha256 of the sorted-key JSON transcript: pins the exact steps, which a
    replay check alone would not."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: bucket_scenario(random_permutation(256, 7), 8),
         "3f6977def878ddfb7fc30b3418b240dc1ec27fe7299d0a200687352ef9fd46b6"),
        (lambda: bucket_scenario(reversed_identity(256), 8),
         "0eb04f22e54deb0f9f3abb364f544dd5a3b680fe48a640ffe73998f1357dcfaa"),
        # K = 57 is the n_over_log width at n = 512
        (lambda: bucket_scenario(random_permutation(512, 3), 57),
         "80058904c95d607ad64cea699265004240fcd6dc82203c561e2be4c1c26ba709"),
        (lambda: radix_scenario(Permutation([9, 1, 8, 2, 7, 3, 6, 4, 5])),
         "ccd8f57f4a529061c676ecf794c55dadafd6fee22b8fd0c2926ceeecbad4f67e"),
    ], ids=["random256-K8", "reversed256-K8", "random512-K57", "radix9"])
    def test_transcript_digest(self, make, digest):
        text = json.dumps(scenario_to_json(make()), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
