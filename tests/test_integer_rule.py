"""The one rule for integer arguments: every bound check on an integer
argument also refuses anything that is not an exact ``int``, such as a float,
a ``bool`` or an ``IntEnum`` member, with the entry point's own typed error
and message."""

import enum
import pathlib
import re

import pytest

from duploss import (
    ClassSpec,
    DupLossStep,
    InvalidParameterError,
    InvalidWidthError,
    OutOfRangeError,
    Permutation,
    PositionOutOfRangeError,
    Scenario,
    WidthPolicy,
    all_permutations,
    bucket_windows,
    delete,
    enumerate_class,
    identity,
    lower_bound_steps,
    minimal_forbidden_basis,
    replay,
    reversed_identity,
    run_benchmark,
    successors,
)
from duploss.bench import random_permutation
from duploss.verify import run_suite

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "duploss"


class Two(enum.IntEnum):
    TWO = 2


NUMBERS = (1.5, 2.0, True, Two.TWO)
POLICY = WidthPolicy("constant", 8)

# site: (call with the value x, typed error, message with {!r} for x, values).
# Each value lies within its site's bound, so only its type refuses it.  The
# constant policy's bound of 2 refuses 1.5 and True, and a float mask is taken
# as a set of offsets.  Permutation entries, the width limit and the budget
# list only the IntEnum member: tests/test_permutation.py and
# tests/test_width_rule.py refuse floats and bools there.
SITES = {
    "Permutation entry": (
        lambda x: Permutation([x, 1]),
        OutOfRangeError,
        "value {!r} is not an integer in 1..2",
        (Two.TWO,),
    ),
    "value_at": (
        lambda x: identity(3).value_at(x),
        PositionOutOfRangeError,
        "position {!r} is not an integer in 1..3",
        NUMBERS,
    ),
    "position_of": (
        lambda x: identity(3).position_of(x),
        OutOfRangeError,
        "value {!r} is not an integer in 1..3",
        NUMBERS,
    ),
    "delete": (
        lambda x: delete(identity(3), x),
        PositionOutOfRangeError,
        "position {!r} is not an integer in 1..3",
        NUMBERS,
    ),
    "DupLossStep start": (
        lambda x: DupLossStep(x, 2, 0),
        InvalidParameterError,
        "start must be an integer >= 1, got {!r}",
        NUMBERS,
    ),
    "DupLossStep width": (
        lambda x: DupLossStep(1, x, 0),
        InvalidParameterError,
        "width must be an integer >= 1, got {!r}",
        NUMBERS,
    ),
    "DupLossStep mask": (
        lambda x: DupLossStep(1, 2, x),
        InvalidParameterError,
        "keep mask {!r} outside 0..3",
        (True, Two.TWO),
    ),
    "DupLossStep keep offset": (
        lambda x: DupLossStep(1, 2, {x}),
        InvalidParameterError,
        "keep offset {!r} is not an integer",
        (1.0, 2.0, True, Two.TWO),
    ),
    "width limit": (
        lambda x: successors(identity(3), x),
        InvalidWidthError,
        "width limit must be an integer >= 1 or inf, got {!r}",
        (Two.TWO,),
    ),
    "ClassSpec budget": (
        lambda x: ClassSpec(3, x),
        InvalidParameterError,
        "step budget must be an integer >= 0, got {!r}",
        (Two.TWO,),
    ),
    "enumerate_class size": (
        lambda x: enumerate_class(ClassSpec(3, 1), x),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "minimal_forbidden_basis max_size": (
        lambda x: minimal_forbidden_basis(ClassSpec(3, 1), x),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "identity size": (
        identity,
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "reversed_identity size": (
        reversed_identity,
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "all_permutations size": (
        all_permutations,
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "random_permutation size": (
        lambda x: random_permutation(x, 1),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "Scenario size": (
        lambda x: replay(Scenario(x, 3, ())),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "bucket_windows size": (
        lambda x: bucket_windows(x, 4),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS + (12.0,),
    ),
    "lower_bound_steps size": (
        lambda x: lower_bound_steps(x, 3),
        InvalidParameterError,
        "size must be an integer >= 0, got {!r}",
        NUMBERS,
    ),
    "WidthPolicy constant": (
        lambda x: WidthPolicy("constant", x),
        InvalidParameterError,
        "constant policy needs a constant >= 2",
        (2.5, 3.0, Two.TWO),
    ),
    "run_benchmark samples": (
        lambda x: run_benchmark(POLICY, [8], x, 0),
        InvalidParameterError,
        "samples must be an integer >= 1, got {!r}",
        NUMBERS,
    ),
    "run_benchmark seed": (
        lambda x: run_benchmark(POLICY, [8], 1, x),
        InvalidParameterError,
        "seed must be an integer, got {!r}",
        NUMBERS,
    ),
    "random_permutation seed": (
        lambda x: random_permutation(8, x),
        InvalidParameterError,
        "seed must be an integer, got {!r}",
        NUMBERS + (None, [1], "7"),
    ),
    "run_benchmark sizes": (
        lambda x: run_benchmark(POLICY, x, 1, 0),
        InvalidParameterError,
        "sizes must be integers >= 0, got {!r}",
        ([8.0], [True], [Two.TWO]),
    ),
    "run_suite max_size": (
        lambda x: run_suite("lemmas", x),
        InvalidParameterError,
        "max size must be an integer >= 1, got {!r}",
        NUMBERS,
    ),
}

CASES = [
    pytest.param(site, x, id=f"{site}-{x!r}")
    for site, (_, _, _, values) in SITES.items()
    for x in values
]


@pytest.mark.parametrize("site, bad", CASES)
def test_site_refuses_non_integer(site, bad):
    call, error, message, _ = SITES[site]
    with pytest.raises(error, match=f"^{re.escape(message.format(bad))}$") as caught:
        call(bad)
    assert type(caught.value) is error


def test_no_isinstance_bool_idiom():
    """Integers are checked by ``type(x) is not int``, so the three-part
    ``isinstance`` spelling that also has to exclude ``bool`` cannot grow back."""
    pattern = re.compile(r"isinstance\([^)]*\bbool\b")
    homes = {p.name for p in SRC.glob("*.py") if pattern.search(p.read_text())}
    assert homes == set()


# The size sites again, now with sizes below their bound of 0.
SIZE_SITES = [
    "identity size",
    "reversed_identity size",
    "all_permutations size",
    "random_permutation size",
    "Scenario size",
    "bucket_windows size",
    "lower_bound_steps size",
]


@pytest.mark.parametrize("site", SIZE_SITES)
@pytest.mark.parametrize("n", [-1, -3])
def test_negative_size_refused(site, n):
    call, error, message, _ = SITES[site]
    with pytest.raises(error, match=f"^{re.escape(message.format(n))}$"):
        call(n)


@pytest.mark.parametrize("keep", [1.5, None, [[1]]])
def test_keep_neither_mask_nor_offsets(keep):
    """A keep that is not an ``int`` is read as offsets; one that cannot be
    read so is refused with a typed error, not a bare ``TypeError``."""
    message = f"keep {keep!r} is neither a mask nor a set of offsets"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        DupLossStep(1, 2, keep)
