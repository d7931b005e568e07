"""Command-line entry point.

``np-eit <subcommand> --config <file> [--out <dir>]`` runs one experiment
and writes its CSV into the output directory (``--out`` overrides the
config's ``[output] dir``).  Exit codes: 0 success, 2 configuration or
assertion failure, 3 solver failure.  A driver's module is imported only
once the config is valid and the output directory exists.
"""

from __future__ import annotations

import argparse
import logging
import sys
from importlib import import_module
from pathlib import Path

from .config import load_config
from .exceptions import (ConditioningError, ConfigError, CurveError,
                         EvaluationDomainError, IndeterminatePointError,
                         SeparationError, SolverError)

#: subcommand -> (module of its driver under npeit, driver, help text)
_COMMANDS = {
    "spectrum": ("experiments", "run_spectrum",
                 "report the leading boundary-operator eigenpairs"),
    "sweep": ("experiments", "run_sweep", "sweep the conductivity ladder "
                                          "against the high-contrast limits"),
    "stability": ("experiments", "run_stability",
                  "rank inclusion pairs by their ladder trace gap"),
    "expand": ("experiments", "run_expansion", "spectral expansion of one "
               "transmission solve, both coefficient routes"),
    "oracle-check": ("disk_oracle", "run_oracle_check",
                     "self-check the concentric-disk closed forms"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="np-eit",
        description="Boundary-integral experiments for a two-dimensional "
                    "conductivity problem with one inclusion.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="experiment config file")
        cmd.add_argument("--out", default=None,
                         help="output directory for CSV "
                              "(default: [output] dir from the config)")
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("--out is empty: name a directory")
        config = load_config(args.config)
        out = args.out if args.out is not None else config.out_dir
        if out is None:
            raise ConfigError("no output directory: pass --out or set "
                              "[output] dir in the config")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        module, driver, _ = _COMMANDS[args.command]
        getattr(import_module(f"npeit.{module}"), driver)(config, out_dir)
    except (ConfigError, CurveError, SeparationError,
            IndeterminatePointError, EvaluationDomainError,
            AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ConditioningError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
