"""Command-line front door.

Thin adapter over the library: validate scenario files, run simulations,
verify exported journals, calibrate margin buffers. `main` alone turns an
SdcError or OSError into exit 2 (`run` reports an OSError while it runs or
writes as exit 1). Exit codes are stable for scripting:

    0  success (a run that terminates at maturity)
    1  engine error (oracle failure, refused initialization, a run left INCOMPLETE, IO failure)
    2  usage or input error (bad flags, bad scenario, corrupt journal)
    3  run ended in an early termination
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import SdcError
from .journal import Journal
from .simulator import Mode, Scenario, calibrate_buffer, load_scenario, run_simulation, write_report

EXIT_OK = 0
EXIT_ENGINE_ERROR = 1
EXIT_USAGE = 2
EXIT_EARLY_TERMINATION = 3
_EXITS = {"MATURED": EXIT_OK, "INSUFFICIENT_PREFUND": EXIT_EARLY_TERMINATION,
          "SETTLEMENT_FAILED": EXIT_EARLY_TERMINATION}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _scenario(args: argparse.Namespace) -> Scenario:
    """The scenario file, with `--seed` applied if given."""
    scenario = load_scenario(args.scenario)
    if args.seed is None:
        return scenario
    if args.seed < 0:
        raise SdcError("seed must be non-negative")
    return replace(scenario, seed=args.seed)


def cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    if args.mode is not None:
        scenario = replace(scenario, mode=Mode(args.mode))
    try:
        artifacts = run_simulation(scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ext = "csv" if args.format == "csv" else "txt"
        write_report(artifacts.report, out / f"report.{ext}", fmt=args.format)
        artifacts.journal.export(out / "journal.bin")
        artifacts.ledger.export_csv(out / "ledger.csv")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE_ERROR
    report = artifacts.report
    print(f"{report.scenario_name}: {report.termination_cause or 'INCOMPLETE'} "
          f"journal={report.journal_hash}")
    return _EXITS.get(report.termination_cause, EXIT_ENGINE_ERROR)


def cmd_verify(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    print(f"{args.journal}: {len(journal)} blocks, chain verified")
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    if not 0.0 < args.q <= 1.0:
        return _fail(f"quantile level must be in (0, 1], got {args.q}")
    if args.trials < 1:
        return _fail(f"trials must be positive, got {args.trials}")
    print(calibrate_buffer(_scenario(args), args.q, args.trials))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdcsim",
                                     description="Smart derivative contract simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario and write report + journal")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                   help="override the trigger mode")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "text"], default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="verify an exported journal file")
    p.add_argument("journal")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate", help="quantile-size the margin buffer")
    p.add_argument("scenario")
    p.add_argument("--q", type=float, default=0.99, help="quantile level in (0, 1]")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (SdcError, OSError) as exc:  # a bad input or an unreadable file
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
