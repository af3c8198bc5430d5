"""Command-line interface: run engines, generate instances, run the suite.

Exit codes: 0 all asserted bounds hold, 1 bound or audit violation,
2 usage or input error, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import AuctionMatchError
from .graph import Epsilon, dumps_instance, generate_random, load_instance
from .suite import GP_SCHEDULES, RUNS, check_input, check_run, run_single


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionmatch",
        description="Auction-based bipartite matching engines with "
                    "streaming and communication accounting.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each choice list in the order of its first run in RUNS.
    algos, modes = (tuple(dict.fromkeys(key[n] for key in RUNS)) for n in (0, 1))
    kernels = tuple(dict.fromkeys(k for _, ks in RUNS.values() for k in ks))

    run_p = sub.add_parser("run", help="run one engine on an instance file")
    run_p.add_argument("instance", help="instance file path")
    run_p.add_argument("--algo", required=True, choices=algos)
    run_p.add_argument("--eps", required=True,
                       help="approximation parameter, written 1/k")
    run_p.add_argument("--mode", default="memory", choices=modes)
    run_p.add_argument("--kernel", default="det", choices=kernels,
                       help="round kernel; stream, for mwm and mcbm in memory "
                            "mode, is the kernel the streamed engines reproduce")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--verify", action="store_true",
                       help="run the exact oracle; assert a valid matching of "
                            "the instance and the engine's bound")
    run_p.add_argument("--audit", action="store_true",
                       help="assert per-round invariants during the run")
    run_p.add_argument("--report", help="write the JSON report here instead of stdout")
    run_p.add_argument("--gp-schedule", choices=GP_SCHEDULES,
                       help="stream the reduction's levels under this schedule "
                            "(gp mode only)")

    gen_p = sub.add_parser("gen", help="generate a random instance file")
    gen_p.add_argument("--nl", type=int, default=8)
    gen_p.add_argument("--nr", type=int, default=8)
    gen_p.add_argument("--density", type=float, default=0.5)
    gen_p.add_argument("--wmin", type=int, default=1)
    gen_p.add_argument("--wmax", type=int, default=1)
    gen_p.add_argument("--bl", default="1:1", help="bidder capacity range lo:hi")
    gen_p.add_argument("--br", default="1:1", help="item capacity range lo:hi")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("-o", "--out", help="output path (stdout when omitted)")

    suite_p = sub.add_parser("suite", help="run the acceptance criteria")
    suite_p.add_argument("--criteria",
                         help="comma-separated criterion numbers (default: all)")
    suite_p.add_argument("--report", help="write the aggregate JSON here")
    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        low, high = int(lo), int(hi or lo)
    except ValueError:
        low = high = 0  # not a number: refused below
    if low < 1 or high < low:
        raise ValueError(f"bad capacity range {text!r}")
    return low, high


def _write(text: str, path: str | None) -> int:
    """Write ``text`` to the file at ``path``, or to stdout when there is
    none. Returns 0, or 2 after one error line when the file cannot be
    written."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_writable(path: str | None) -> None:
    """Raise ``OSError`` when ``_write`` cannot write the file at ``path``.
    An existing file is left as it is, and no new one is left behind."""
    if path:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def _cmd_run(args) -> int:
    try:
        eps = Epsilon.parse(args.eps)
        check_run(args.algo, args.mode, args.kernel, args.gp_schedule)
        _check_writable(args.report)
        inst = load_instance(args.instance)
        check_input(inst, args.algo, args.verify)
    except (ValueError, OSError, AuctionMatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report, exit_code = run_single(
        inst, algo=args.algo, eps=eps, mode=args.mode, kernel=args.kernel,
        seed=args.seed, verify=args.verify, audit=args.audit,
        gp_schedule=args.gp_schedule)
    blob = json.dumps(report, sort_keys=True, indent=2)
    return _write(blob + "\n", args.report) or exit_code


def _cmd_gen(args) -> int:
    try:
        b_l = _parse_range(args.bl)
        b_r = _parse_range(args.br)
        inst = generate_random(
            n_l=args.nl, n_r=args.nr, density=args.density,
            w_range=(args.wmin, args.wmax), b_l_range=b_l, b_r_range=b_r,
            seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write(dumps_instance(inst), args.out)


def _cmd_suite(args) -> int:
    from .criteria import ALL_CRITERIA, aggregate_report, run_criteria

    numbers = None
    if args.criteria is not None:
        try:
            numbers = [int(x) for x in args.criteria.split(",") if x.strip()]
        except ValueError:
            numbers = []
        if not numbers:
            print(f"error: bad criteria list {args.criteria!r}", file=sys.stderr)
            return 2
        if any(n < 1 or n > len(ALL_CRITERIA) for n in numbers):
            print(f"error: criteria numbers run 1..{len(ALL_CRITERIA)}", file=sys.stderr)
            return 2
    try:
        _check_writable(args.report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcomes = run_criteria(numbers)
    for oc in outcomes:
        print(oc.line(), file=sys.stderr)
        for failure in oc.failures:
            print(f"  - {failure}", file=sys.stderr)
    blob = json.dumps(aggregate_report(outcomes), sort_keys=True, indent=2)
    return _write(blob + "\n", args.report) or (
        0 if all(oc.passed for oc in outcomes) else 1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
