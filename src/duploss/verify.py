"""Named property suites: the single implementation of the properties they cover.

Each suite returns (name, passed, detail) triples; a suite passes when every
check does.  The acceptance criteria call these suites at their pinned sizes
and the CLI ``verify`` subcommand runs them by name, so each property is
spelled out here only: ``lemmas`` covers the vp-vector removal facts and the
vp-domain and size bounds of class members and minimal patterns, ``closure``
the downward closure of reachability classes under deletion, ``basis`` the
avoiders of the closed-form basis against the class and the search-built
minimal basis, and ``whole-genome`` the descent-count characterization of
the unbounded model.  ``closure`` and ``basis`` build each size from the one
below by ``classes._extensions``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .classes import (
    ClassSpec,
    _extensions,
    bfs_min_steps,
    enumerate_class,
    minimal_forbidden_basis,
    one_step_basis,
)
from .errors import InvalidParameterError, NoWitnessError
from .permutation import Permutation, all_permutations, delete, descent_count
from .scenarios import radix_scenario, replay
from .vp import fixpoints, removal_span_stability, safe_removal_position, vp_domain, vp_vectors

CheckResult = tuple[str, bool, str]

# (width limit, step budget) of the classes ``lemmas`` and ``closure`` check,
# and the width limits of the one-step bases ``basis`` checks
_CLASS_PARAMS = ((2, 1), (3, 1), (2, 2))
_BASIS_WIDTHS = (2, 3, 4)


def _every(name: str, pairs: Iterable[tuple[object, bool]]) -> CheckResult:
    failures = [str(obj) for obj, ok in pairs if not ok]
    if failures:
        return name, False, f"{len(failures)} failures, first: {failures[0]}"
    return name, True, "ok"


def suite_lemmas(max_n: int = 6) -> list[CheckResult]:
    """Removal facts and the balance condition on S_1..S_max_n; vp-domain
    bounds of class members there, and the vp-domain and size bounds of
    minimal forbidden patterns up to size max_n + 1."""
    results = []
    perms = [p for n in range(1, max_n + 1) for p in all_permutations(n)]
    results.append(
        _every(
            "removal changes each span size by at most one",
            ((p, removal_span_stability(p)) for p in perms if len(p) >= 2),
        )
    )

    def has_witness(p: Permutation) -> bool:
        try:
            position = safe_removal_position(p)
        except NoWitnessError:
            return False
        return len(fixpoints(delete(p, position))) <= len(fixpoints(p)) + 1

    results.append(
        _every(
            "some removal adds at most one fixpoint",
            ((p, has_witness(p)) for p in perms if len(p) >= 2),
        )
    )

    def balanced(p: Permutation) -> bool:
        counts: dict[int, int] = {}
        for vec in vp_vectors(p):
            for v in vec.covered:
                counts[v] = counts.get(v, 0) + 1
        return all(c >= 2 for c in counts.values())

    results.append(
        _every("every covered element lies in two spans", ((p, balanced(p)) for p in perms))
    )

    for width, budget in _CLASS_PARAMS:
        spec = ClassSpec(width, budget)
        members = [
            p for n in range(1, max_n + 1) for p in enumerate_class(spec, n)
        ]
        results.append(
            _every(
                f"vp-domain of (K={width}, p={budget}) members has size <= {width * budget}",
                ((p, len(vp_domain(p)) <= width * budget) for p in members),
            )
        )
        domain_cap, size_cap = 2 * width * budget + 2, (width * budget + 2) ** 2 - 2
        results.append(
            _every(
                f"minimal patterns of (K={width}, p={budget}) have vp-domain <= {domain_cap}"
                f" and size <= {size_cap}",
                (
                    (p, len(vp_domain(p)) <= domain_cap and len(p) <= size_cap)
                    for p in minimal_forbidden_basis(spec, max_n + 1).patterns
                ),
            )
        )
    return results


def suite_closure(max_n: int = 6) -> list[CheckResult]:
    """Classes are closed under one-element deletion."""
    results = []
    for width, budget in _CLASS_PARAMS:
        bad, smaller = [], {Permutation(())}
        for n in range(1, max_n + 1):
            members = enumerate_class(ClassSpec(width, budget), n)
            bad += sorted(members - _extensions(smaller, n))
            smaller = members
        results.append(
            _every(f"deletion closure of (K={width}, p={budget})", ((p, False) for p in bad))
        )
    return results


def suite_basis(max_n: int = 7) -> list[CheckResult]:
    """Avoiders of the closed-form one-step basis, built size by size, equal
    the class on S_1..S_max_n, and the search-built minimal basis up to size
    max_n equals the closed form where that is an antichain."""
    results = []
    for width in _BASIS_WIDTHS:
        patterns = one_step_basis(width).patterns
        bad, avoiders = [], {Permutation(())}
        for n in range(1, max_n + 1):
            avoiders = _extensions(avoiders, n, skip=patterns)
            bad += sorted(avoiders ^ enumerate_class(ClassSpec(width, 1), n))
        name = f"avoiders of the one-step basis (K={width}) equal the class"
        results.append(_every(name, ((p, False) for p in bad)))
    for width in _BASIS_WIDTHS:
        # size 4 when max_n allows, so the K=2 antichain (which keeps 2143) is complete
        size = min(max_n, max(width + 1, 4))
        brute = minimal_forbidden_basis(ClassSpec(width, 1), size)
        expected = {p for p in one_step_basis(width).patterns if len(p) <= size}
        if width == 2:
            # generating set only: 3142 contains 231, so the antichain drops it
            expected.discard(Permutation((3, 1, 4, 2)))
        ok = brute.patterns == expected
        detail = "ok" if ok else f"got {sorted(str(p) for p in brute.patterns)}"
        results.append((f"brute-force basis (K={width}) matches the closed form", ok, detail))
    return results


def suite_whole_genome(max_n: int = 6) -> list[CheckResult]:
    """Unbounded model: search distance equals ceil(log2(desc+1)); the radix
    generator realizes it; classes are exactly descent-bounded sets."""
    results = []
    bad_counts = []
    bad_replay = []
    for n in range(1, max_n + 1):
        for p in all_permutations(n):
            expected = descent_count(p).bit_length()
            if bfs_min_steps(p, n) != expected:
                bad_counts.append(p)
            scenario = radix_scenario(p)
            if scenario.step_count != expected or replay(scenario) != p:
                bad_replay.append(p)
    results.append(
        _every("search distance equals ceil(log2(desc+1))", ((p, False) for p in bad_counts))
    )
    results.append(_every("radix scenario realizes the optimum", ((p, False) for p in bad_replay)))

    bad_class = []
    for n in range(1, max_n + 1):
        for budget in (1, 2):
            members = enumerate_class(ClassSpec(max(n, 2), budget), n)
            expected_set = frozenset(
                p for p in all_permutations(n) if descent_count(p) <= (1 << budget) - 1
            )
            if members != expected_set:
                bad_class.append((n, budget))
    results.append(
        _every("unbounded classes are descent-bounded sets", ((x, False) for x in bad_class))
    )
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "lemmas": suite_lemmas,
    "closure": suite_closure,
    "basis": suite_basis,
    "whole-genome": suite_whole_genome,
}


def run_suite(name: str, max_size: int | None = None) -> list[CheckResult]:
    """Run the named suite, at its own default size unless ``max_size`` is given."""
    if name not in SUITES:
        raise InvalidParameterError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    if max_size is not None and (type(max_size) is not int or max_size < 1):
        raise InvalidParameterError(f"max size must be an integer >= 1, got {max_size!r}")
    return SUITES[name]() if max_size is None else SUITES[name](max_size)
