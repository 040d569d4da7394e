"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bucket_narrow --seed 1 --seconds 20 --trace 0

Loads ``duploss`` from ``src/`` of the checkout this file sits in, sets up
the workload (import, input generation, warm-up), then runs whole rounds of jobs, one after another
in this one thread, until the jobs have taken ``--seconds``.  A job is a
few consecutive library calls (segments); the fixed reference loop is
timed before the first segment and after every segment, and the job's
normalised time is the sum of its segments' times, each divided by the
mean of the two reference times adjacent to it.  Every
output is checked, untimed, against a computation made apart from the
library.  Further set-ups, made anew and thrown away, are spread
over the run and the median of all of them is reported, so that it does
not hang on how fast the machine ran at one moment.  With ``--trace 1`` the first third of the time runs untraced and
the rest traced, and the per-layer metrics of the traced jobs are printed
with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result and trace
files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
LAYERS = ("permutation", "steps", "scenarios", "classes", "bench", "cli")

sys.path.insert(0, str(HERE))

from oracle import CheckError  # noqa: E402
from reference import time_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_library():
    """Import ``duploss`` afresh from ``src/`` and return its layer modules."""
    for name in [m for m in sys.modules if m == "duploss" or m.startswith("duploss.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("duploss")
    if Path(package.__file__).resolve().parent != SRC / "duploss":
        raise ImportError(f"duploss was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"duploss.{m}") for m in LAYERS})


class JobClock:
    """Times one job, segment by segment, against the reference loop.

    Reference loops bracket every segment (the loop after one segment is the
    loop before the next), and each segment's time is divided by the mean of
    the two loops adjacent to it.
    """

    def __init__(self):
        self.job_s = 0.0
        self.ref_s = 0.0
        self.refs = 0
        self.norm = 0.0
        self._last_ref: float | None = None

    def _reference(self) -> float:
        self._last_ref = time_reference()
        self.ref_s += self._last_ref
        self.refs += 1
        return self._last_ref

    @contextlib.contextmanager
    def segment(self):
        before = self._reference() if self._last_ref is None else self._last_ref
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            after = self._reference()
            self.job_s += elapsed
            self.norm += elapsed / ((before + after) / 2)


class Phase:
    """Job times and check tallies of one stretch of whole rounds."""

    def __init__(self):
        self.ratios: list[float] = []
        self.job_s: list[float] = []
        self.ref_s: list[float] = []  # mean reference-loop time, per job
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.steps = 0
        self.bound = 0


def set_up(name: str, seed: int):
    """One set-up, timed: import duploss afresh, make the first round's
    inputs and warm up.  Returns (seconds, workload)."""
    gc.collect()
    t0 = time.perf_counter()
    workload = WORKLOADS[name](load_library(), seed)
    workload.round_inputs(0)
    workload.warm_up()
    return time.perf_counter() - t0, workload


def run_rounds(workload, seconds: float, first_round: int, phase: Phase, tracer=None,
               after_round=None) -> int:
    """Run whole rounds until the jobs and their reference loops have taken
    ``seconds`` (checks and input generation do not count); return the next
    round index."""
    busy_until = phase.busy_s + seconds
    round_index = first_round
    while True:
        for inputs in workload.round_inputs(round_index):
            clock = JobClock()
            if tracer is not None:
                tracer.start_job(phase.attempted)
            phase.attempted += 1
            started = time.perf_counter()
            try:
                output = workload.run_job(inputs, clock.segment)
            except Exception:
                phase.failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.end_job()
                phase.busy_s += time.perf_counter() - started
            phase.job_s.append(clock.job_s)
            phase.ref_s.append(clock.ref_s / clock.refs)
            phase.ratios.append(clock.norm)
            try:
                steps, bound = workload.check(inputs, output)
            except CheckError as exc:
                phase.correct = False
                print(f"check failed on {workload.name}: {exc}", file=sys.stderr)
                continue
            phase.steps += steps
            phase.bound += bound
            del output
        round_index += 1
        if after_round is not None:
            after_round(phase)
        if phase.busy_s >= busy_until:
            return round_index


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duploss" / "__init__.py").is_file():
        print(f"no duploss sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    first_setup_s, workload = set_up(args.workload, args.seed)
    setup_s = [first_setup_s]
    workload.prepare()

    def spaced_setups(phase: Phase, due: int | None = None) -> None:
        if due is None:
            due = 1 + int((SETUP_REPEATS - 1) * phase.busy_s / args.seconds)
        while len(setup_s) < min(due, SETUP_REPEATS):
            setup_s.append(set_up(args.workload, args.seed)[0])

    untraced = Phase()
    traced = Phase()
    tracer = None
    if args.trace:
        next_round = run_rounds(workload, args.seconds / 3, 0, untraced)
        tracer = Tracer(workload.lib)
        tracer.install()
        run_rounds(workload, args.seconds * 2 / 3, next_round, traced, tracer)
    else:
        run_rounds(workload, args.seconds, 0, untraced, after_round=spaced_setups)
        spaced_setups(untraced, due=SETUP_REPEATS)

    phases = (untraced, traced)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(p.correct for p in phases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics = tracer.per_layer()
        traced_p50, untraced_p50 = median(traced.ratios), median(untraced.ratios)
        overhead = traced_p50 - untraced_p50
        share = overhead / untraced_p50 if untraced_p50 else 0.0
        print(f"tracing overhead: job_norm.p50 traced {traced_p50:.4f} x over "
              f"{len(traced.ratios)} jobs, untraced {untraced_p50:.4f} x over "
              f"{len(untraced.ratios)} jobs, difference {overhead:+.4f} x ({share:+.1%})")
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "job_norm.p50": (median(untraced.ratios), "x"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "steps_per_lb": (untraced.steps / untraced.bound if untraced.bound else 0.0, "x"),
        }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {attempted} failed {failed} correct {str(correct).lower()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    main_phase = traced if args.trace else untraced
    print(f"  for reference, not metrics: job raw p50 {median(main_phase.job_s) * 1e3:.1f} ms, "
          f"reference loop p50 {median(main_phase.ref_s) * 1e3:.2f} ms, "
          f"peak RSS {peak_rss_mb:.1f} MB, set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"setup_s": setup_s, "job_s": main_phase.job_s, "reference_s": main_phase.ref_s}
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "detail": detail}) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json",
                     {"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
