"""Command-line front end.

Subcommands:

* ``run SCENARIO``      - simulate one scenario file, print a summary
* ``validate SCENARIO`` - parse + structural validation only
* ``sweep SPEC``        - run a sweep specification (arrivals or faults)

Exit codes: 0 success; 1 sweep finished but some points failed; 2 the run
ended in the safe state; 3 scenario or sweep specification rejected; 4
internal failure (unmapped address on the system bus, trace write failure,
broken invariant).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .bus import UnmappedAddress
from .engine import Report, SimInternalError, run
from .scenario import ScenarioError, load_scenario_file, scenario_digest
from .trace import IOFailure, emit_trace, write_trace

EXIT_OK = 0
EXIT_SWEEP_FAIL = 1
EXIT_SAFE_STATE = 2
EXIT_SCENARIO_ERROR = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockstepsim",
        description="Deterministic simulator for on-demand MooN lockstep groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario", help="path to a scenario file (YAML)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--max-cycles", type=int, default=None,
                       help="override the scenario cycle limit")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="write the event trace to PATH ('-' for stdout)")
    p_run.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                       help="trace format (default: jsonl)")
    p_run.add_argument("--report", metavar="PATH", default=None,
                       help="write the run report as JSON to PATH ('-' for stdout)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    p_val = sub.add_parser("validate", help="check scenario files without running")
    p_val.add_argument("scenarios", nargs="+", help="scenario files to check")

    p_sweep = sub.add_parser("sweep", help="run a sweep specification file")
    p_sweep.add_argument("spec", help="path to a sweep specification (YAML)")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="print every sweep point, not only failures")
    return parser


def _summarize(report: Report, out) -> None:
    ram = ", ".join(
        f"0x{addr:08X}={value}" for addr, value in sorted(report.ls_ram.items())
    )
    lines = [
        f"scenario:             {report.scenario_name}",
        f"seed:                 {report.effective_seed}",
        f"scenario digest:      {report.scenario_hash[:16]}",
        f"boot check:           {report.boot_result}",
        f"cycles run:           {report.cycles_run}",
        f"final state:          {report.final_state}",
        f"end reason:           {report.end_reason}",
        f"sessions:             {len(report.sessions)} started, "
        f"{report.sessions_completed} completed",
        f"accepted / rejected:  {report.accepted} / {report.rejected}",
        f"masked fault cycles:  {report.masked_fault_cycles}",
        f"no-majority cycles:   {report.no_majority_cycles}",
        f"availability errors:  {report.availability_errors}",
        f"voted ram:            {{{ram}}}",
        f"io log:               {report.io_log}",
    ]
    print("\n".join(lines), file=out)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario_file(args.scenario)
    report = run(scenario, seed=args.seed, max_cycles=args.max_cycles)
    if args.trace == "-":
        sys.stdout.write(emit_trace(report.trace, fmt=args.format).decode("ascii"))
    elif args.trace:
        write_trace(report.trace, args.trace, fmt=args.format)
    if args.report == "-":
        sys.stdout.write(report.to_json())
    elif args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            raise IOFailure(f"cannot write report: {exc}") from None
    if not args.quiet:
        _summarize(report, sys.stdout)
    return EXIT_SAFE_STATE if report.final_state == "safe_state" else EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.scenarios:
        scenario = load_scenario_file(path)
        digest = scenario_digest(scenario)
        print(f"ok: {path} ({scenario.name}, digest {digest[:16]})")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import load_sweep_file  # only this command needs the sweep module

    result = load_sweep_file(args.spec)
    shown = result.points if args.verbose else result.failures
    for point in shown:
        print(point.describe())
    print(result.summary())
    return EXIT_OK if result.ok else EXIT_SWEEP_FAIL


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sweep(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    except (UnmappedAddress, IOFailure, SimInternalError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
