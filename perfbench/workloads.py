"""The four workloads: how each makes its inputs, runs one job and checks it.

A workload is built once per set-up from a loaded library (``lib``, the
``duploss`` modules) and the workload seed.  ``round_inputs(r)`` gives the
inputs of round r, the same for the same (seed, r).  ``run_job`` runs one
job as a few consecutive library calls, each inside ``segment()``: the
runner times the fixed reference loop around each segment and divides the
segment's time by it.  It calls the library only through module
attributes, so the traced run sees every call.  ``check`` is untimed and
returns the job's (steps emitted, certified lower bound) for
``steps_per_lb``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

from oracle import (
    CheckError,
    apply_step,
    bfs_distances,
    descents,
    fisher_yates,
    inversions,
    lex_rank,
    lower_bound,
    minimal_non_members,
    n_over_log_width,
    one_step_reach,
    require,
    shuffled,
)


class Workload:
    name = ""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def round_inputs(self, round_index: int) -> list:
        raise NotImplementedError

    def run_job(self, inputs, segment=contextlib.nullcontext):
        raise NotImplementedError

    def check(self, inputs, output) -> tuple[int, int]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build what ``check`` compares against; the runner calls this,
        untimed, before the first job."""

    def warm_up(self) -> None:
        """Run every code path of a job once, at toy size, untimed and unchecked."""
        raise NotImplementedError


class BucketNarrow(Workload):
    """Bucket scenarios at K=8 on n=1024, emitted as scenario JSON.

    A round is three seeded uniform targets and the reversed identity (the
    worst case), one job each.
    """

    name = "bucket_narrow"
    WIDTH = 8
    RANDOMS_PER_ROUND = 3

    def __init__(self, lib, seed, n=1024):
        super().__init__(lib, seed)
        self.n = n

    def round_inputs(self, round_index):
        rng = self.rng(round_index)
        targets = [shuffled(self.n, rng) for _ in range(self.RANDOMS_PER_ROUND)]
        targets.append(tuple(range(self.n, 0, -1)))
        return [self.lib.permutation.Permutation(t) for t in targets]

    def run_job(self, target, segment=contextlib.nullcontext):
        scenarios = self.lib.scenarios
        with segment():
            scenario = scenarios.bucket_scenario(target, self.WIDTH)
        with segment():
            return json.dumps(scenarios.scenario_to_json(scenario), indent=2)

    def check(self, target, text):
        goal = tuple(target)
        obj = json.loads(text)
        require(obj["n"] == len(goal), f"n {obj['n']} != {len(goal)}")
        require(obj["width_limit"] == self.WIDTH, f"width_limit {obj['width_limit']}")
        work = list(range(1, len(goal) + 1))
        for step in obj["steps"]:
            if step["width"] > self.WIDTH:
                raise CheckError(f"step {step} wider than {self.WIDTH}")
            apply_step(work, step["start"], step["width"], step["keep"])
        require(tuple(work) == goal, "transcript does not replay to the target")
        require(obj["final"] == ",".join(map(str, goal)), "recorded final is not the target")
        steps, bound = len(obj["steps"]), lower_bound(goal, self.WIDTH)
        require(steps >= bound, f"{steps} steps below the lower bound {bound}")
        return steps, bound

    def warm_up(self):
        small = BucketNarrow(self.lib, self.seed, n=64)
        for target in small.round_inputs(0):
            small.run_job(target)


class CampaignWide(Workload):
    """``duploss bench --policy n_over_log`` campaigns through ``cli.main``.

    A round is one seeded campaign run twice: the second job must print
    byte-identical CSV.  Each size gives two rows: the reversed identity,
    then one seeded sample.
    """

    name = "campaign_wide"

    def __init__(self, lib, seed, sizes=(256, 512, 1024, 2048)):
        super().__init__(lib, seed)
        self.sizes = sizes
        self._first_csv: dict[int, str] = {}

    def round_inputs(self, round_index):
        campaign_seed = self.rng(round_index).randrange(2**31)
        return [campaign_seed, campaign_seed]

    def run_job(self, campaign_seed, segment=contextlib.nullcontext):
        argv = [
            "bench",
            "--policy", "n_over_log",
            "--sizes", ",".join(map(str, self.sizes)),
            "--samples", "1",
            "--seed", str(campaign_seed),
        ]
        out = io.StringIO()
        with segment(), contextlib.redirect_stdout(out):
            code = self.lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"duploss bench exited with {code}")
        return out.getvalue()

    def check(self, campaign_seed, text):
        first = self._first_csv.pop(campaign_seed, None)
        if first is None:
            self._first_csv[campaign_seed] = text
        else:
            require(text == first, f"campaign seed {campaign_seed} gave different CSV twice")
        lines = text.splitlines()
        schema = "n,K,algorithm,seed,steps,inversions,descents,wall_time_ms"
        require(lines[0] == f"# duploss bench csv v1: {schema}", "CSV version comment")
        require(lines[1] == schema, "CSV header")
        rows = [line.split(",") for line in lines[2:]]
        require(len(rows) == 2 * len(self.sizes), f"{len(rows)} rows")
        total_steps = total_bound = 0
        for index, fields in enumerate(rows):
            n_text, k_text, algorithm, seed_text, steps_text, inv_text, desc_text, wall = fields
            n, k, row_seed = int(n_text), int(k_text), int(seed_text)
            require(n == self.sizes[index // 2], f"row {index}: n {n}")
            require(k == n_over_log_width(n), f"row {index}: K {k} != policy({n})")
            require(algorithm == "bucket" and wall == "", f"row {index}: {fields}")
            if index % 2 == 0:
                require(row_seed == -1, f"row {index}: reversed identity row has seed {row_seed}")
                perm = tuple(range(n, 0, -1))
            else:
                perm = fisher_yates(n, row_seed)
            require(int(inv_text) == inversions(perm), f"row {index}: inversions {inv_text}")
            require(int(desc_text) == descents(perm), f"row {index}: descents {desc_text}")
            steps, bound = int(steps_text), lower_bound(perm, k)
            require(steps >= bound, f"row {index}: {steps} steps below the lower bound {bound}")
            total_steps += steps
            total_bound += bound
        return total_steps, total_bound

    def warm_up(self):
        CampaignWide(self.lib, self.seed, sizes=(16, 32)).run_job(self.seed)


class ClassSearch(Workload):
    """All of S_8 at K=3 from a cleared search memo: ``enumerate_class`` for
    every budget up to the diameter, then seeded ``bfs_min_steps`` and
    ``is_member`` queries answered from the memo.  One job per round."""

    name = "class_search"
    WIDTH = 3

    def __init__(self, lib, seed, n=8, queries=200):
        super().__init__(lib, seed)
        self.n = n
        self.queries = queries
        self._reference: tuple[bytearray, bytearray, bytearray] | None = None

    def round_inputs(self, round_index):
        rng = self.rng(round_index)
        Permutation = self.lib.permutation.Permutation
        return [
            [
                (Permutation(shuffled(self.n, rng)), rng.randrange(2 * self.n))
                for _ in range(self.queries)
            ]
        ]

    def run_job(self, queries, segment=contextlib.nullcontext):
        classes = self.lib.classes
        with segment():
            classes.clear_search_cache()
        states = math.factorial(self.n)
        layers = []
        while True:
            with segment():
                spec = classes.ClassSpec(self.WIDTH, len(layers))
                layers.append(classes.enumerate_class(spec, self.n))
            # Stop at the diameter, or where a faulty search stops growing early.
            if len(layers[-1]) == states or (
                len(layers) > 1 and len(layers[-1]) == len(layers[-2])
            ):
                break
        with segment():
            answers = [
                (
                    classes.bfs_min_steps(perm, self.WIDTH),
                    classes.is_member(perm, classes.ClassSpec(self.WIDTH, budget)),
                )
                for perm, budget in queries
            ]
        return layers, answers

    def prepare(self):
        """Per state, by lexicographic rank: the certified lower bound, the
        length of its bucket scenario (replayed here) and the distance found
        by a search of this module's own."""
        if self._reference is not None:
            return
        scenarios = self.lib.scenarios
        Permutation = self.lib.permutation.Permutation
        lower, upper = bytearray(), bytearray()
        for values in itertools.permutations(range(1, self.n + 1)):
            scenario = scenarios.bucket_scenario(Permutation(values), self.WIDTH)
            work = list(range(1, self.n + 1))
            for step in scenario.steps:
                if step.width > self.WIDTH:
                    raise CheckError(f"bucket step {step} wider than {self.WIDTH}")
                apply_step(work, step.start, step.width, sorted(step.keep))
            require(tuple(work) == values, f"bucket scenario for {values} does not replay")
            lower.append(lower_bound(values, self.WIDTH))
            upper.append(len(scenario.steps))
        self._reference = lower, upper, bfs_distances(self.n, self.WIDTH)

    def check(self, queries, output):
        layers, answers = output
        dist: dict[tuple[int, ...], int] = {}
        for budget, members in enumerate(layers):
            for perm in members:
                dist.setdefault(perm.values, budget)
            require(len(members) == len(dist), f"class at budget {budget} lost earlier members")
        require(len(dist) == math.factorial(self.n), f"{len(dist)} states, not {self.n}!")
        identity = tuple(range(1, self.n + 1))
        require(layers[0] == {self.lib.permutation.Permutation(identity)}, "budget-0 class")
        one_step = {state for state, d in dist.items() if d <= 1}
        require(one_step == one_step_reach(self.n, self.WIDTH), "layer 1 != one-step reach set")
        self.prepare()
        lower, upper, exact = self._reference
        total_dist = total_bound = 0
        for state, d in dist.items():
            rank = lex_rank(state)
            if not lower[rank] <= d <= upper[rank] or d != exact[rank]:
                raise CheckError(f"distance {d} of {state}: bounds [{lower[rank]}, "
                                 f"{upper[rank]}], own search {exact[rank]}")
            # d must equal exact[rank], so this sum, and steps_per_lb with it,
            # is the same on every run whose checks pass.
            total_dist += d
            total_bound += lower[rank]
        for (perm, budget), (steps, member) in zip(queries, answers):
            if steps != dist[perm.values] or member != (steps <= budget):
                raise CheckError(f"{perm}: bfs_min_steps {steps}, is_member(p={budget}) {member}")
        return total_dist, total_bound

    def warm_up(self):
        small = ClassSearch(self.lib, self.seed, n=5, queries=4)
        small.run_job(small.round_inputs(0)[0])
        self.lib.classes.clear_search_cache()


class PatternBasis(Workload):
    """Class-basis duality over S_7 for K in {2, 3, 4}: the avoiders of
    ``one_step_basis(K)`` must equal the (K, 1) class, and the brute-force
    ``minimal_forbidden_basis`` up to size K+2 is computed.  The seed shuffles
    the order in which the hosts are scanned.  One job per round."""

    name = "pattern_basis"
    WIDTHS = (2, 3, 4)

    def __init__(self, lib, seed, n=7):
        super().__init__(lib, seed)
        self.n = n
        hosts = list(itertools.permutations(range(1, n + 1)))
        self.rng(0).shuffle(hosts)
        Permutation = lib.permutation.Permutation
        self.hosts = [Permutation(h) for h in hosts]
        self._reference: dict[int, tuple] = {}

    def round_inputs(self, round_index):
        return [self.hosts]

    def run_job(self, hosts, segment=contextlib.nullcontext):
        classes, permutation = self.lib.classes, self.lib.permutation
        with segment():
            classes.clear_search_cache()
        results = []
        for width in self.WIDTHS:
            with segment():
                patterns = classes.one_step_basis(width).sorted_patterns()
                avoiders = [
                    h for h in hosts
                    if not any(permutation.contains_pattern(h, q) for q in patterns)
                ]
                spec = classes.ClassSpec(width, 1)
                members = classes.enumerate_class(spec, self.n)
                duality = frozenset(avoiders) == members
                minimal = classes.minimal_forbidden_basis(spec, width + 2)
            results.append((width, avoiders, duality, members, minimal))
        return results

    def prepare(self):
        """Per width: the one-step reach set at size n and the minimal
        non-members up to size K+2, from the step definition alone."""
        for width in self.WIDTHS:
            if width not in self._reference:
                reach = {m: one_step_reach(m, width) for m in range(width + 3)}
                minimal = set()
                for m in range(1, width + 3):
                    minimal |= minimal_non_members(m, reach[m], reach[m - 1])
                self._reference[width] = one_step_reach(self.n, width), minimal

    def check(self, hosts, output):
        require([w for w, *_ in output] == list(self.WIDTHS), "widths")
        self.prepare()
        identity = tuple(range(1, self.n + 1))
        steps = bound = 0
        for width, avoiders, duality, members, minimal in output:
            reach, minimal_ref = self._reference[width]
            avoider_set = {h.values for h in avoiders}
            require(len(avoider_set) == len(avoiders), f"K={width}: repeated avoiders")
            require(avoider_set == reach, f"K={width}: avoiders != one-step reach set")
            require({m.values for m in members} == reach, f"K={width}: class != reach set")
            require(duality, f"K={width}: job found avoiders != class")
            found = {p.values for p in minimal.patterns}
            require(found == minimal_ref, f"K={width}: minimal basis {sorted(found)}")
            # Every member but the identity is one step from it and has bound
            # 1, so once the checks above pass this reads 1 on every run.
            steps += sum(1 for m in members if m.values != identity)
            bound += sum(lower_bound(m.values, width) for m in members)
        return steps, bound

    def warm_up(self):
        small = PatternBasis(self.lib, self.seed, n=4)
        small.run_job(small.hosts)
        self.lib.classes.clear_search_cache()


WORKLOADS = {w.name: w for w in (BucketNarrow, CampaignWide, ClassSearch, PatternBasis)}
