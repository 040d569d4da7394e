import itertools

import pytest

from duploss import (
    DuplicateValueError,
    InvalidParameterError,
    OutOfRangeError,
    Permutation,
    delete,
    fixpoints,
    format_vp_vectors,
    free_window_decomposition,
    identity,
    quasi_diagonal_values,
    removal_span_stability,
    safe_removal_position,
    vp_domain,
    vp_vector,
    vp_vectors,
)

SIGMA = Permutation([4, 1, 2, 3, 5, 7, 6])


class TestVpVector:
    def test_fixpoint_is_empty(self):
        vec = vp_vector(SIGMA, 5)
        assert vec.is_empty and vec.size == 0 and vec.direction == 0

    def test_value_four_covers_prefix(self):
        vec = vp_vector(SIGMA, 4)
        assert vec.from_position == 1 and vec.to_position == 4
        assert vec.covered == (4, 1, 2, 3)
        assert vec.direction == 1

    def test_leftward_vector(self):
        vec = vp_vector(SIGMA, 1)
        assert vec.from_position == 2 and vec.to_position == 1
        assert vec.covered == (4, 1)
        assert vec.direction == -1

    def test_identity_all_empty(self):
        assert all(v.is_empty for v in vp_vectors(identity(6)))

    def test_nonempty_covers_at_least_two(self):
        for n in range(1, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                for vec in vp_vectors(Permutation(vals)):
                    assert vec.is_empty or vec.size >= 2

    def test_value_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            vp_vector(SIGMA, 8)


class TestVpDomain:
    def test_golden(self):
        assert vp_domain(SIGMA) == frozenset({1, 2, 3, 4, 6, 7})

    def test_identity_empty(self):
        assert vp_domain(identity(5)) == frozenset()

    def test_swap(self):
        assert vp_domain(Permutation([2, 1])) == frozenset({1, 2})


class TestDecomposition:
    def test_identity_single_free_window(self):
        d = free_window_decomposition(identity(6))
        assert d.vp_windows == () and d.free_windows == ((1, 6),)

    def test_golden(self):
        d = free_window_decomposition(SIGMA)
        assert d.vp_windows == ((1, 4), (6, 7))
        assert d.free_windows == ((5, 5),)

    def test_swap_single_vp_window(self):
        d = free_window_decomposition(Permutation([2, 1]))
        assert d.vp_windows == ((1, 2),) and d.free_windows == ()

    def test_windows_partition_positions(self):
        for n in range(1, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                d = free_window_decomposition(p)
                ranges = sorted(d.vp_windows + d.free_windows)
                flat = [i for a, b in ranges for i in range(a, b + 1)]
                assert flat == list(range(1, n + 1))
                # maximality: adjacent ranges alternate kinds
                kinds = sorted([(r, "vp") for r in d.vp_windows] + [(r, "free") for r in d.free_windows])
                for (r1, k1), (r2, k2) in zip(kinds, kinds[1:]):
                    assert k1 != k2

    def test_free_window_elements_are_fixpoints(self):
        for n in range(1, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                d = free_window_decomposition(p)
                for a, b in d.free_windows:
                    for pos in range(a, b + 1):
                        assert p.value_at(pos) == pos

    def test_domain_positions_and_values_coincide(self):
        for n in range(1, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                d = free_window_decomposition(p)
                covered_positions = {i for a, b in d.vp_windows for i in range(a, b + 1)}
                assert frozenset(covered_positions) == vp_domain(p)


class TestRemovalFacts:
    def test_golden_host(self):
        assert removal_span_stability(SIGMA)

    def test_safe_removal_small(self):
        assert safe_removal_position(Permutation([2, 1])) == 1
        pos = safe_removal_position(identity(3))
        assert pos in (1, 2, 3)

    def test_quasi_diagonal_golden(self):
        # 21345: 1 sits just after its slot, 2 just before its slot
        assert quasi_diagonal_values(Permutation([2, 1, 3, 4, 5])) == {1, 2}
        # 3142: 1 is one right of its slot, 4 one left of its slot
        assert quasi_diagonal_values(Permutation([3, 1, 4, 2])) == {1, 4}
        assert quasi_diagonal_values(Permutation([3, 4, 1, 2])) == set()

    def test_new_fixpoints_only_from_quasi_diagonal(self):
        for n in range(2, 7):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                quasi = quasi_diagonal_values(p)
                fixed = fixpoints(p)
                for pos in range(1, n + 1):
                    removed = p.value_at(pos)
                    reduced = delete(p, pos)
                    for v in fixpoints(reduced):
                        original = v if v < removed else v + 1
                        if original not in fixed:
                            assert original in quasi


class TestDump:
    def test_format_lines(self):
        text = format_vp_vectors(SIGMA)
        lines = text.splitlines()
        assert lines[0] == "vp-vectors of 4,1,2,3,5,7,6"
        assert "5: fixpoint" in text
        assert "covers {4, 1, 2, 3}" in text
        assert lines[-1] == "vp-domain: {1, 2, 3, 4, 6, 7}"


# Every public vp function with its perm first, any further argument fixed.
VP_CALLS = {
    "vp_vector": lambda perm: vp_vector(perm, 1),
    "vp_vectors": vp_vectors,
    "vp_domain": vp_domain,
    "free_window_decomposition": free_window_decomposition,
    "fixpoints": fixpoints,
    "quasi_diagonal_values": quasi_diagonal_values,
    "removal_span_stability": removal_span_stability,
    "safe_removal_position": safe_removal_position,
    "format_vp_vectors": format_vp_vectors,
}


@pytest.mark.parametrize("call", VP_CALLS.values(), ids=VP_CALLS.keys())
class TestPlainSequences:
    """Each vp function sends ``perm`` through the ``Permutation``
    constructor: a tuple answers as its ``Permutation``, and anything else
    gets the constructor's typed error."""

    def test_tuple_answers_as_its_permutation(self, call):
        for n in range(1, 6):
            for vals in itertools.permutations(range(1, n + 1)):
                assert call(vals) == call(Permutation(vals))
        assert call(tuple(SIGMA)) == call(SIGMA)

    @pytest.mark.parametrize("perm, error", [
        ((1, 1), DuplicateValueError),
        (5, InvalidParameterError),
    ], ids=["repeat", "not-iterable"])
    def test_non_permutations_get_typed_errors(self, call, perm, error):
        with pytest.raises(error):
            call(perm)
