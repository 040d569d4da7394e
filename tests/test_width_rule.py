"""The one rule for the width limit K: an integer (not a bool) of at least
the entry point's bound, or infinity.  Every library entry point that takes
K refuses the same inputs with the same typed error and message."""

import math
import pathlib
import re

import pytest

from duploss import (
    ClassSpec,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
    Scenario,
    bfs_min_steps,
    bucket_scenario,
    bucket_windows,
    lower_bound_steps,
    one_step_blockers,
    per_permutation_lower_bound,
    reversed_identity,
    successors,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "duploss"

# entry point, the least width it accepts, and a call with width K
ENTRY_POINTS = {
    "ClassSpec": (2, lambda k: ClassSpec(k, 1)),
    "bfs_min_steps": (1, lambda k: bfs_min_steps(reversed_identity(4), k)),
    "successors": (1, lambda k: successors(reversed_identity(4), k)),
    "Scenario": (1, lambda k: Scenario(4, k, ())),
    "bucket_scenario": (2, lambda k: bucket_scenario(reversed_identity(12), k)),
    "bucket_windows": (2, lambda k: bucket_windows(12, k)),
    "one_step_blockers": (2, lambda k: one_step_blockers(k)),
    "lower_bound_steps": (2, lambda k: lower_bound_steps(12, k)),
    "per_permutation_lower_bound": (2, lambda k: per_permutation_lower_bound(reversed_identity(4), k)),
}

# None stands for the integer just below the entry point's least width
BAD_WIDTHS = {"2.5": 2.5, "3.0": 3.0, "nan": float("nan"), "True": True, "below": None}


@pytest.mark.parametrize("bad", BAD_WIDTHS, ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
def test_entry_point_refuses_width(entry, bad):
    least, call = ENTRY_POINTS[entry]
    width = least - 1 if BAD_WIDTHS[bad] is None else BAD_WIDTHS[bad]
    message = f"width limit must be an integer >= {least} or inf, got {width!r}"
    with pytest.raises(InvalidWidthError, match=f"^{re.escape(message)}$"):
        call(width)


@pytest.mark.parametrize(
    "entry", [e for e in ENTRY_POINTS if e != "one_step_blockers"], ids=str
)
def test_entry_point_accepts_infinity(entry):
    _, call = ENTRY_POINTS[entry]
    call(math.inf)


def test_blockers_refuse_infinity_by_their_own_error():
    with pytest.raises(InfiniteWidthError):
        one_step_blockers(math.inf)


@pytest.mark.parametrize("budget", [1.5, True], ids=str)
def test_class_spec_refuses_non_integer_budget(budget):
    message = f"step budget must be an integer >= 0, got {budget!r}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        ClassSpec(3, budget)


def test_width_rule_has_one_home():
    """The width-bound message is raised in ``steps`` only, and no module
    rounds a width limit, so the copies of the rule cannot grow back."""
    homes = {p.name for p in SRC.glob("*.py") if "width limit must" in p.read_text()}
    assert homes == {"steps.py"}
    rounding = {p.name for p in SRC.glob("*.py") if "int(width_limit)" in p.read_text()}
    assert rounding == set()
