"""Command-line entry point: run one experiment from a config file.

Exit codes: 0 success, 1 configuration fault, 2 runtime fault.  Faults are
reported as a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .harness import run, validate_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="run an experiment from a config file")
    runner.add_argument("--config", required=True, help="path to the experiment config")
    runner.add_argument("--seed", type=int, default=None, help="override the master seed")
    runner.add_argument("--out-dir", default=None, help="override the output directory")
    runner.add_argument("--threads", type=int, default=1, help="beamforming-bench trial threads")
    runner.add_argument(
        "--no-timing", action="store_true", help="omit wall times and the cost-ordering checks from outputs"
    )
    runner.add_argument(
        "--strict", action="store_true", help="escalate optimizer non-convergence to exit 2"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not Path(args.config).exists():
        print(f"error: config: file not found: {args.config}", file=sys.stderr)
        return 1
    try:
        cfg = validate_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out_dir is not None:
            cfg = replace(cfg, output_dir=args.out_dir)
        if args.threads < 1:
            raise ConfigError("threads must be >= 1")
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    try:
        written = run(cfg, threads=args.threads, no_timing=args.no_timing, strict=args.strict)
    except Exception as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
