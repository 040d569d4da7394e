"""Command-line front end.

Subcommands:
  step apply        apply one duplication-loss step to a permutation
  scenario          generate a radix or bucket scenario for a target
  class enumerate   list a reachability class at one size
  class basis       compute a forbidden-pattern basis
  class member      membership test
  oracle min-steps  exact minimal step count via breadth-first search
  verify            run a named property suite (nonzero exit on failure)
  bench             benchmark campaign with CSV/JSON output

Permutations are given in comma-separated one-line form, e.g. "5,2,4,3,1,6".
The exhaustive-search size cap (default 10) has one override: the
DUPLOSS_ENUM_CAP environment variable, an integer.

Each argument is parsed once, by its argparse type: --width takes an
integer or "inf", --keep and --sizes comma-separated integers.  The parser
is built once per process and reused by every call of main().

Exit codes: 0 on success, 1 when a verify suite fails, 2 on a usage error,
a library error or a bench output file that cannot be opened.  A malformed
number is a usage error.  A library error (a DupLossError, such as a
repeated value in --perm) and an OSError from opening the files of bench
--csv and --json, which are opened before the campaign runs, are reported
as the single stderr line "duploss: <ErrorClass>: <message>", without a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from . import __version__
from .bench import parse_width_policy, rows_to_csv, rows_to_json, run_benchmark
from .classes import (
    ClassSpec,
    basis_to_json,
    bfs_min_steps,
    enumerate_class,
    is_member,
    minimal_forbidden_basis,
    one_step_basis,
)
from .errors import DupLossError, InvalidParameterError
from .permutation import parse_one_line
from .scenarios import bucket_scenario, radix_scenario, replay, scenario_to_json
from .steps import DupLossStep, apply_step
from .verify import SUITES, run_suite


def _report(exc: Exception) -> int:
    """Print ``exc`` as the one stderr line of a failed command; exit code 2."""
    print(f"duploss: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _parse_width(text: str) -> int | float:
    return math.inf if text in ("inf", "infinity") else int(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _cmd_step_apply(args) -> int:
    print(apply_step(args.perm, DupLossStep(args.start, args.width, frozenset(args.keep))))
    return 0


def _cmd_scenario(args) -> int:
    if args.algo == "radix":
        if args.width is not None:
            raise InvalidParameterError("radix scenarios are unbounded and take no --width")
        scenario = radix_scenario(args.perm)
    elif args.width is None:
        raise InvalidParameterError("bucket scenarios need --width")
    else:
        scenario = bucket_scenario(args.perm, args.width)
    if args.emit == "json":
        print(json.dumps(scenario_to_json(scenario), indent=2))
    else:
        print(f"steps: {scenario.step_count}")
        print(f"final: {replay(scenario)}")
    return 0


def _cmd_class_enumerate(args) -> int:
    members = enumerate_class(ClassSpec(args.width, args.steps), args.size)
    for p in sorted(members):
        print(p)
    return 0


def _cmd_class_basis(args) -> int:
    if args.theorem:
        if args.steps != 1:
            raise InvalidParameterError("the closed-form basis exists only for one step")
        if args.max_size is not None:
            raise InvalidParameterError("class basis takes --max-size or --theorem, not both")
        basis = one_step_basis(args.width)
        max_size = args.width + 1
    elif args.max_size is None:
        raise InvalidParameterError("class basis needs --max-size (or --theorem)")
    else:
        basis = minimal_forbidden_basis(ClassSpec(args.width, args.steps), args.max_size)
        max_size = args.max_size
    obj = basis_to_json(basis, args.width, args.steps, max_size)
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_class_member(args) -> int:
    print("true" if is_member(args.perm, ClassSpec(args.width, args.steps)) else "false")
    return 0


def _cmd_oracle(args) -> int:
    print(bfs_min_steps(args.perm, args.width))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.max_size)
    failed = 0
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {name}" + ("" if ok else f" -- {detail}"))
        failed += not ok
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    policy = parse_width_policy(args.policy)
    with contextlib.ExitStack() as files:
        # Open both outputs before the campaign, so a path that cannot be
        # written fails at once and not after the work is done.
        try:
            csv_out = files.enter_context(open(args.csv, "w")) if args.csv else sys.stdout
            json_out = files.enter_context(open(args.json, "w")) if args.json else None
        except OSError as exc:
            return _report(exc)
        rows = run_benchmark(policy, args.sizes, args.samples, args.seed)
        csv_out.write(rows_to_csv(rows, include_timings=args.timings))
        if json_out:
            json_out.write(rows_to_json(rows, include_timings=args.timings))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duploss",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"duploss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    step = sub.add_parser("step", help="single-step operations")
    step_sub = step.add_subparsers(dest="step_command", required=True)
    apply_p = step_sub.add_parser("apply", help="apply one duplication-loss step")
    apply_p.add_argument("--perm", type=parse_one_line, required=True)
    apply_p.add_argument("--start", type=int, required=True)
    apply_p.add_argument("--width", type=int, required=True)
    apply_p.add_argument(
        "--keep", type=_parse_int_list, default=[],
        help="comma-separated offsets kept in the first copy",
    )
    apply_p.set_defaults(func=_cmd_step_apply)

    scen = sub.add_parser("scenario", help="generate a scenario for a target permutation")
    scen.add_argument("--algo", choices=("radix", "bucket"), required=True)
    scen.add_argument("--perm", type=parse_one_line, required=True)
    scen.add_argument(
        "--width", type=_parse_width, help="width limit K (bucket only); 'inf' allowed"
    )
    scen.add_argument("--emit", choices=("summary", "json"), default="summary")
    scen.set_defaults(func=_cmd_scenario)

    cls = sub.add_parser("class", help="reachability classes and bases")
    cls_sub = cls.add_subparsers(dest="class_command", required=True)
    enum_p = cls_sub.add_parser("enumerate")
    enum_p.add_argument("--width", type=_parse_width, required=True)
    enum_p.add_argument("--steps", type=int, required=True)
    enum_p.add_argument("--size", type=int, required=True)
    enum_p.set_defaults(func=_cmd_class_enumerate)
    basis_p = cls_sub.add_parser("basis")
    basis_p.add_argument("--width", type=_parse_width, required=True)
    basis_p.add_argument("--steps", type=int, required=True)
    basis_p.add_argument("--max-size", type=int, default=None)
    basis_p.add_argument(
        "--theorem", action="store_true", help="emit the closed-form one-step basis"
    )
    basis_p.set_defaults(func=_cmd_class_basis)
    member_p = cls_sub.add_parser("member")
    member_p.add_argument("--width", type=_parse_width, required=True)
    member_p.add_argument("--steps", type=int, required=True)
    member_p.add_argument("--perm", type=parse_one_line, required=True)
    member_p.set_defaults(func=_cmd_class_member)

    oracle = sub.add_parser("oracle", help="exact oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    min_p = oracle_sub.add_parser("min-steps")
    min_p.add_argument("--perm", type=parse_one_line, required=True)
    min_p.add_argument("--width", type=_parse_width, required=True)
    min_p.set_defaults(func=_cmd_oracle)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--max-size", type=int, default=None)
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="benchmark campaign")
    bench.add_argument("--policy", required=True, help="constant:C | full | n_over_log | sqrt")
    bench.add_argument(
        "--sizes", type=_parse_int_list, required=True, help="comma-separated sizes"
    )
    bench.add_argument("--samples", type=int, default=10)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", help="write CSV here instead of stdout")
    bench.add_argument("--json", help="also write a JSON mirror here")
    bench.add_argument("--timings", action="store_true",
                       help="record wall-clock times (makes output nondeterministic)")
    bench.set_defaults(func=_cmd_bench)
    return parser


# One parser per process: main() reuses it, build_parser() still makes a new one.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        # --perm is parsed here, so a malformed permutation raises a DupLossError
        args = _parser().parse_args(argv)
        return args.func(args)
    except DupLossError as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
