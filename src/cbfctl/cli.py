"""Command line driver.

    cbfctl simulate|adjoint|optimize|verify|delta-sweep|oracle
           --config <file> --out <dir> [--seed N] [--threads N]

Exit codes: 0 pass, 1 invariant violation, 2 solver failure, 3 config or
input-file error.  Any other exception propagates with its traceback.
The CBFCTL_THREADS environment variable overrides --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiments import run_experiment
from .fields import CBFTFormatError
from .harness import EXPERIMENTS, ConfigError, parse_config
from .optimizer import LineSearchFailure
from .state_solver import HypothesisViolatedError, NonConvergenceError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbfctl", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads for independent runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    threads = args.threads
    env_threads = os.environ.get("CBFCTL_THREADS")
    if env_threads is not None:
        try:
            threads = int(env_threads)
        except ValueError:
            print(f"cbfctl: CBFCTL_THREADS must be an integer, got {env_threads!r}", file=sys.stderr)
            return 3
    try:
        config = parse_config(args.config)
        config = replace(config, experiment=args.experiment)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"cbfctl: config error: {exc}", file=sys.stderr)
        return 3
    if not config.hypothesis_satisfied:
        print(
            "cbfctl: warning: coefficient hypothesis 2*beta*mu > 1/kappa fails "
            f"(kappa={config.kappa_effective:g}); estimate margins may be undefined",
            file=sys.stderr,
        )
    try:
        result = run_experiment(config, args.out, threads=max(threads, 1))
    except (NonConvergenceError, LineSearchFailure) as exc:
        print(f"cbfctl: solver failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, HypothesisViolatedError) as exc:
        print(f"cbfctl: config error: {exc}", file=sys.stderr)
        return 3
    except CBFTFormatError as exc:
        print(f"cbfctl: input error: {exc}", file=sys.stderr)
        return 3
    status = "pass" if result.exit_code == 0 else "INVARIANT VIOLATION"
    print(f"cbfctl {config.experiment}: {status} ({len(result.summary['checks'])} checks, out={args.out})")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
