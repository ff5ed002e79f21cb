"""Command-line experiment runner.

One parser: the experiment kind (field, gd, ecm, fim, nn) is a positional
argument, followed by ``--config``, ``--out``, ``--seed`` and
``--print-defaults``. ``experiments.load_config`` parses a config file, with
libyaml when PyYAML has it, and ``experiments.run`` runs it, writing each
output as a new file that replaces any old one.
Exit codes: 0 success, 2 config error or an output directory that cannot
be made, 3 numerical failure or non-convergence, 4 singularity guard.
Verbosity via RELREPARAM_LOG.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import yaml

from .experiments import (KINDS, ConfigError, ConvergenceError, default_config, load_config,
                          run)
from .fim import SingularFimError

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
    parser.add_argument("kind", choices=KINDS, help="the experiment to run")
    parser.add_argument("--config", type=Path, help="YAML config file")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config for this kind and exit")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RELREPARAM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"config error: RELREPARAM_LOG must name a logging level, got {level!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper())
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
                f"config kind {cfg['kind']!r} does not match the requested kind {args.kind!r}")
        out_dir, manifest = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularFimError as exc:
        print(f"singularity guard: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:  # only writing the outputs touches the disk
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    n_files = len(manifest["files"])
    log.info("run complete; %d files in %s", n_files, out_dir)
    print(f"wrote {n_files} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
