"""Bounded-width tandem duplication - random loss rearrangement of permutations.

A step duplicates a contiguous window in tandem and immediately loses one
copy of each duplicated entry; bounding the window width by K and counting
steps gives a rearrangement model whose reachable sets are pattern-avoiding
classes.  The package provides the step semantics, scenario generators with
matching step-count bounds, exact class enumeration with forbidden-pattern
bases, the value-position analysis toolkit, and a benchmark harness.
"""

from .errors import (
    BudgetExceededError,
    DupLossError,
    DuplicateValueError,
    InfiniteWidthError,
    InvalidParameterError,
    InvalidWidthError,
    NoWitnessError,
    NotSortedWindowError,
    OutOfRangeError,
    PositionOutOfRangeError,
    ValueOutOfRangeError,
    WidthExceededError,
    WindowOutOfRangeError,
)
from .permutation import (
    Permutation,
    all_permutations,
    ascending_run_partition,
    contains_pattern,
    delete,
    descent_count,
    descents,
    identity,
    inversions,
    parse_one_line,
    reversed_identity,
)
from .steps import (
    DupLossStep,
    apply_step,
    inversions_created,
    step_from_json,
    step_to_json,
    successors,
)
from .scenarios import (
    Scenario,
    SubWindowTarget,
    bucket_phases,
    bucket_scenario,
    bucket_windows,
    radix_scenario,
    replay,
    scenario_from_json,
    scenario_to_json,
)
from .classes import (
    DEFAULT_ENUMERATION_CAP,
    ClassSpec,
    PatternBasis,
    basis_to_json,
    bfs_min_steps,
    clear_search_cache,
    enumerate_class,
    is_antichain,
    is_member,
    minimal_forbidden_basis,
    one_step_basis,
    one_step_blockers,
)
from .vp import (
    FreeWindowDecomposition,
    VpVector,
    fixpoints,
    format_vp_vectors,
    free_window_decomposition,
    quasi_diagonal_values,
    removal_span_stability,
    safe_removal_position,
    vp_domain,
    vp_vector,
    vp_vectors,
)
from .bench import (
    BenchRow,
    WidthPolicy,
    lower_bound_steps,
    parse_width_policy,
    per_permutation_lower_bound,
    random_permutation,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
)

__version__ = "0.1.0"
