"""Command line driver.

    cbfctl simulate|adjoint|optimize|verify|delta-sweep|oracle
           --config <file> --out <dir> [--seed N]

Exit codes: 0 pass, 1 invariant violation (the status line names the failed
records), 2 solver failure, 3 config or command-line argument error.  Any
other exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import NoReturn

from .experiments import run_experiment
from .harness import EXPERIMENTS, ConfigError, parse_config
from .optimizer import LineSearchFailure
from .state_solver import HypothesisViolatedError, NonConvergenceError


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the code of every other input error."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbfctl", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"cbfctl: config error: {exc}", file=sys.stderr)
        return 3
    overrides = {"experiment": args.experiment}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = replace(config, **overrides)
    except ConfigError as exc:
        # only --seed can fail here; the message starts with its field name
        parser.error(f"argument --{exc}")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        parser.error(f"argument --out: cannot create directory {args.out} ({exc.strerror or exc})")
    if not config.hypothesis_satisfied:
        print(
            "cbfctl: warning: coefficient hypothesis 2*beta*mu > 1/kappa fails "
            f"(kappa={config.kappa_effective:g}); estimate margins may be undefined",
            file=sys.stderr,
        )
    try:
        result = run_experiment(config, args.out)
    except (NonConvergenceError, LineSearchFailure) as exc:
        print(f"cbfctl: solver failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, HypothesisViolatedError) as exc:
        print(f"cbfctl: config error: {exc}", file=sys.stderr)
        return 3
    failed = [name for name, rec in result.summary["checks"].items() if not rec["pass"]]
    status = "pass" if result.exit_code == 0 else "INVARIANT VIOLATION"
    listed = f", {len(failed)} failed: {', '.join(failed)}" if failed else ""
    print(f"cbfctl {config.experiment}: {status} ({len(result.summary['checks'])} checks{listed}, out={args.out})")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
