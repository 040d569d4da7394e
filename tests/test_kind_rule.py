"""The one rule for an argument of the wrong kind: every public entry point
refuses it with ``InvalidParameterError`` and a message naming the argument,
where a bare ``TypeError`` or ``AttributeError`` would otherwise escape."""

import pathlib
import re

import pytest

from duploss import (
    InvalidParameterError,
    WidthPolicy,
    apply_step,
    basis_to_json,
    enumerate_class,
    identity,
    is_antichain,
    parse_one_line,
    parse_width_policy,
    per_permutation_lower_bound,
    replay,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "duploss"

# name: (call, error, exact message)
WRONG_KINDS = {
    "apply_step step": (
        lambda: apply_step(identity(3), (1, 2, 1)),
        InvalidParameterError,
        "step must be a DupLossStep, got (1, 2, 1)",
    ),
    "enumerate_class spec": (
        lambda: enumerate_class(None, 3),
        InvalidParameterError,
        "class spec must be a ClassSpec, got None",
    ),
    "replay scenario": (
        lambda: replay(None),
        InvalidParameterError,
        "scenario must be a Scenario, got None",
    ),
    "run_benchmark policy": (
        lambda: run_benchmark("full", [8], 1, 0),
        InvalidParameterError,
        "policy must be a WidthPolicy, got 'full'",
    ),
    "per_permutation_lower_bound perm": (
        lambda: per_permutation_lower_bound(5, 3),
        InvalidParameterError,
        "5 is not a sequence of values",
    ),
    "parse_one_line text": (
        lambda: parse_one_line(5),
        InvalidParameterError,
        "text must be a str, got 5",
    ),
    "parse_width_policy text": (
        lambda: parse_width_policy(None),
        InvalidParameterError,
        "width policy text must be a str, got None",
    ),
    "basis_to_json basis": (
        lambda: basis_to_json(5, 3, 1, None),
        InvalidParameterError,
        "basis must be a PatternBasis, got 5",
    ),
    "rows_to_csv row": (
        lambda: rows_to_csv([1]),
        InvalidParameterError,
        "row must be a BenchRow, got 1",
    ),
    "rows_to_json row": (
        lambda: rows_to_json("x"),
        InvalidParameterError,
        "row must be a BenchRow, got 'x'",
    ),
    "rows_to_csv rows": (
        lambda: rows_to_csv(5),
        InvalidParameterError,
        "rows must be iterable, got 5",
    ),
    "rows_to_json rows": (
        lambda: rows_to_json(5),
        InvalidParameterError,
        "rows must be iterable, got 5",
    ),
    "is_antichain patterns": (
        lambda: is_antichain(5),
        InvalidParameterError,
        "patterns must be iterable, got 5",
    ),
    "run_benchmark sizes": (
        lambda: run_benchmark(WidthPolicy("full"), 8, 1, 0),
        InvalidParameterError,
        "sizes must be integers >= 0, got 8",
    ),
}


@pytest.mark.parametrize("name", WRONG_KINDS)
def test_wrong_kind_is_refused(name):
    call, error, message = WRONG_KINDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


def test_kind_rule_has_one_home():
    """The "must be a <kind>" message is raised in ``permutation`` only, by
    ``_check_kind``, so the copies of the rule cannot grow back."""
    homes = {p.name for p in SRC.glob("*.py") if re.search(r"must be a [A-Z{]", p.read_text())}
    assert homes == {"permutation.py"}
