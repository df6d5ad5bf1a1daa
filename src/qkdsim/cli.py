"""Command-line entry points: run, sweep, summarize."""

from __future__ import annotations

import argparse
import sys

from .report import summarize
from .scenario import EXIT_USAGE, run_scenario, sweep_attack_power


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description=("Deterministic simulator of an SDN-controlled QKD network "
                     "under optical denial-of-service attack"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a timed attack scenario")
    run_p.add_argument("--topology", required=True)
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", required=True, type=int)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--deterministic", action="store_true",
                       help="suppress wall-clock timestamps for byte-identical outputs")
    run_p.add_argument("--allow-exhaustion", action="store_true",
                       help="exit 0 even when every path has failed")
    run_p.add_argument("--qpm-log", default=None,
                       help="monitor event log path (default: OUT/qpm_log.ndjson)")

    sweep_p = sub.add_parser("sweep", help="evaluate model SKR/QBER over a power grid")
    sweep_p.add_argument("--topology", required=True)
    sweep_p.add_argument("--link", required=True)
    sweep_p.add_argument("--from", dest="from_dbm", required=True, type=float)
    sweep_p.add_argument("--to", dest="to_dbm", required=True, type=float)
    sweep_p.add_argument("--step", dest="step_db", required=True, type=float)
    sweep_p.add_argument("--out", required=True)

    sum_p = sub.add_parser("summarize", help="summarize a finished run directory")
    sum_p.add_argument("--out", required=True)
    sum_p.add_argument("--thresholds", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = run_scenario(
                args.topology, args.scenario, args.seed, args.out,
                deterministic=args.deterministic,
                allow_exhaustion=args.allow_exhaustion,
                qpm_log_path=args.qpm_log,
            )
            print(f"artifacts written to {args.out}")
            return code
        if args.command == "sweep":
            code = sweep_attack_power(
                args.topology, args.link, args.from_dbm, args.to_dbm,
                args.step_db, args.out,
            )
            print(f"sweep written to {args.out}/sweep.csv")
            return code
        if args.command == "summarize":
            text, all_pass = summarize(args.out, thresholds_path=args.thresholds)
            print(text, end="")
            return 0 if all_pass else 1
    # TopologyError, ScenarioError and CalibrationError are ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
