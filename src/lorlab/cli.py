"""Command line entry point.

Each subcommand runs one experiment on a bundled scenario, optionally
driven by a JSON config, and writes a deterministic JSON report.

Exit codes: 0 all residuals within tolerance, 2 argument or config
parse error (also a config key that the subcommand does not read), 3
scenario construction error (also a scenario without the stationary
form that the subcommand reduces), 4 numerical failure or tolerance
violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import LorlabError
from .experiments import RUNNERS, ConfigError, ScenarioError

EXIT_PASS = 0
EXIT_PARSE = 2
EXIT_SCENARIO = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorlab",
        description="Numerical experiments on Lorentzian scattering data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config (scenario, grid sizes, tolerances)")
        p.add_argument("--out", metavar="PATH",
                       help="write the JSON report here instead of stdout")
        p.add_argument("--csv", metavar="PATH",
                       help="also write the flat records as CSV")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the deterministic boundary grids")
    return parser


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def _write_csv(path, records):
    if not records:
        return
    keys = sorted({k for r in records for k in r})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for r in records:
            writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                             else v for k, v in r.items()})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0

    try:
        config = _load_config(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    runner = RUNNERS[args.command]
    try:
        report = runner(args.command, config, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except LorlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv:
        _write_csv(args.csv, report["records"])

    summary = report["summary"]
    status = "PASS" if summary["pass"] else "FAIL"
    print(f"{args.command}: {status} "
          f"(max residual {summary['max_residual']:.3e}, "
          f"{summary['wall_time_s']:.1f}s)", file=sys.stderr)
    return EXIT_PASS if summary["pass"] else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
