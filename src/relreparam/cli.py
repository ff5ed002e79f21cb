"""Command-line experiment runner.

Subcommands map one-to-one onto experiment kinds (field, gd, ecm, fim, nn),
each run by ``experiments.run``. Exit codes: 0 success, 2 config error, 3
numerical failure or non-convergence, 4 singularity guard. Verbosity via RELREPARAM_LOG.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import yaml

from .experiments import (KINDS, ConfigError, ConvergenceError, check_config,
                          default_config, load_config, run)
from .fim import SingularFimError
from .reparam import SingularPointError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SINGULAR = 4

log = logging.getLogger("relreparam")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relreparam",
        description="Relative-reparameterization experiments: flow fields, "
                    "GD/ECM trajectories, Fisher-information checks, NN singularities.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment")
        p.add_argument("--config", type=Path, help="YAML config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config for this kind and exit")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("RELREPARAM_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)

    if args.print_defaults:
        print(yaml.safe_dump(default_config(args.kind), sort_keys=False), end="")
        return EXIT_OK

    try:
        cfg = load_config(args.config) if args.config is not None else default_config(args.kind)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if cfg["kind"] != args.kind:
            raise ConfigError(
                f"config kind {cfg['kind']!r} does not match subcommand {args.kind!r}")
        values = check_config(cfg)  # before out_dir is resolved; run checks it again
        out_dir = args.out or Path(values["out_dir"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        manifest = run(cfg, out_dir)
    except (SingularFimError, SingularPointError) as exc:
        print(f"singularity guard: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ConvergenceError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    n_files = len(manifest["files"])
    log.info("run complete; %d files in %s", n_files, out_dir)
    print(f"wrote {n_files} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
