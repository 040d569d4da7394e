"""Self-test of the benchmark: every workload at toy size, and every checker
shown to reject a corrupted output.

    python3 perfbench/selftest.py

Prints one line per case and exits 0 when all pass.  It also checks that
the metric names the runner and the tracer produce are exactly those
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from oracle import CheckError
from tracing import SPANS, Tracer
from workloads import BucketNarrow, CampaignWide, ClassSearch, PatternBasis

SEED = 7


def toy_workloads(lib):
    return [
        BucketNarrow(lib, SEED, n=64),
        CampaignWide(lib, SEED, sizes=(16, 32, 64)),
        ClassSearch(lib, SEED, n=5, queries=20),
        PatternBasis(lib, SEED, n=5),
    ]


def alter_one_step(text: str) -> str:
    obj = json.loads(text)
    step = obj["steps"][len(obj["steps"]) // 2]
    step["start"] += 1 if step["start"] + step["width"] <= obj["n"] else -1
    return json.dumps(obj, indent=2)


def alter_csv_field(text: str, column: int) -> str:
    """Add one to a number in the second data row of a bench CSV."""
    lines = text.splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[column] = str(int(fields[column]) + 1)
    lines[3] = ",".join(fields)
    return "".join(lines)


def drop_class_member(output):
    layers, answers = output
    smaller = set(layers[2])
    smaller.pop()
    return layers[:2] + [frozenset(smaller)] + layers[3:], answers


def drop_avoider(output):
    width, avoiders, duality, members, minimal = output[1]
    return [output[0], (width, avoiders[1:], duality, members, minimal), *output[2:]]


CORRUPTIONS = {
    "bucket_narrow": ("one altered step", alter_one_step),
    "campaign_wide": ("a wrong inversion count", lambda text: alter_csv_field(text, 5)),
    "class_search": ("a dropped class member", drop_class_member),
    "pattern_basis": ("a dropped avoider", drop_avoider),
}


def rejects(workload, inputs, output) -> bool:
    try:
        workload.check(inputs, output)
    except CheckError:
        return True
    return False


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = []

    def case(name: str, passed: bool) -> None:
        results.append(passed)
        print(f"{'ok  ' if passed else 'FAIL'} {name}")

    for index, workload in enumerate(toy_workloads(lib)):
        inputs = workload.round_inputs(0)
        outputs = [workload.run_job(i) for i in inputs]
        tallies = [workload.check(i, o) for i, o in zip(inputs, outputs)]
        case(f"{workload.name}: toy round passes its checks",
             all(steps >= bound > 0 for steps, bound in tallies))
        label, corrupt = CORRUPTIONS[workload.name]
        fresh = toy_workloads(lib)[index]
        case(f"{workload.name}: checker rejects {label}",
             rejects(fresh, inputs[0], corrupt(outputs[0])))

    campaign = toy_workloads(lib)[1]
    seed_a, seed_b = campaign.round_inputs(0)
    first = campaign.run_job(seed_a)
    campaign.check(seed_a, first)
    case("campaign_wide: checker rejects a repeat whose CSV differs from the first",
         rejects(campaign, seed_b, alter_csv_field(first, 4)))

    tracer = Tracer(lib)
    tracer.install()
    for index, workload in enumerate(toy_workloads(lib)):
        tracer.start_job(index)
        workload.run_job(workload.round_inputs(0)[0])
        tracer.end_job()
    case("traced toy jobs enter every span", all(tracer.calls[name] for name in SPANS))
    case("tracer reports exactly the per-layer metrics of BENCHMARK.json",
         set(tracer.per_layer()) == {m["name"] for m in spec["per_layer"]})

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "pattern_basis", "--seed", str(SEED), "--seconds", "0.1"])
    result = json.loads(out.getvalue().splitlines()[-1])
    case("runner result has the fixed keys and passes",
         code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
         and result["correct"] and result["failed"] == 0)
    case("runner reports exactly the end-to-end metrics of BENCHMARK.json",
         set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]})
    case("BENCHMARK.json names exactly the workloads the runner has",
         {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS))

    print(f"{results.count(False)} of {len(results)} cases failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
