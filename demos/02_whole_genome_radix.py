"""Unbounded-width scenarios: the descent count decides everything.

When any window width is allowed, a target with d descents needs exactly
ceil(log2(d+1)) steps.  The generator labels each value with the 0-based
index of the maximal increasing run it occupies in the target, then radix
sorts the labels least-significant-bit first; one step per bit.
"""

from duploss import (
    Permutation,
    ascending_run_partition,
    bfs_min_steps,
    descent_count,
    radix_scenario,
    replay,
)
from duploss.steps import apply_step_to_list

target = Permutation([5, 2, 4, 3, 1, 6])
runs = ascending_run_partition(target)
print(f"target {target}")
print(f"maximal increasing runs: {[tuple(target.values[a - 1 : b]) for a, b in runs]}")
print(f"descents: {descent_count(target)} -> ceil(log2(desc+1)) = "
      f"{descent_count(target).bit_length()} steps")

scenario = radix_scenario(target)
state = list(range(1, len(target) + 1))
print(f"\nstart   {','.join(map(str, state))}")
for i, step in enumerate(scenario.steps, start=1):
    apply_step_to_list(state, step)
    print(f"step {i}  {','.join(map(str, state))}   keep offsets {sorted(step.keep)}")
assert replay(scenario) == target

# The step count is optimal: an exhaustive breadth-first search over all
# scenarios agrees with the formula on every small permutation.
print("\nformula vs exhaustive search at size 5:")
import itertools

agree = all(
    bfs_min_steps(Permutation(vals), 5) == descent_count(Permutation(vals)).bit_length()
    for vals in itertools.permutations(range(1, 6))
)
print(f"  agree on all 120 permutations: {agree}")

# A target that rearranges only positions 3..6 is built the same way, by
# whole-permutation steps; the entries outside end where they started.
inner = radix_scenario(Permutation([1, 2, 5, 3, 6, 4, 7]))
print(f"\nrearranging only positions 3..6 of the identity of size 7: {replay(inner)}")
