"""Command-line entry point.

Usage:
    epdiff <run|conserve|convergence|reversibility|bench> [flags]

Exit codes: 0 on success, 1 on numerical failure, 2 on configuration error
or on output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .config import OPTIONS, build_config
from .errors import ConfigError, NumericalFailureError
from .harness import run_command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epdiff",
        description=(
            "Structure-preserving solvers for the EPDiff equation on the "
            "periodic square: conservation, convergence, reversibility, and "
            "cost experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate one configuration and write invariants/snapshots"),
        ("conserve", "long-run invariant benchmark (20x20 sine, dt=dx^2, T=50)"),
        ("convergence", "self-convergence study with dt = dx on nested grids"),
        ("reversibility", "forward-reverse-return error (percent)"),
        ("bench", "per-step wall-clock cost across grids"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text), name)
    return parser


def _add_common_flags(p: argparse.ArgumentParser, command: str) -> None:
    for opt in (opt for opt in OPTIONS.values() if command in opt.commands):
        if opt.key == "out":  # --config keeps its place in --help, just before --out
            p.add_argument("--config", help="key = value config file (flags win)")
        action = "store_true" if opt.switch else "store"
        p.add_argument(opt.flag, action=action, help=opt.help)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        cfg = build_config(args.command, flags)
        return run_command(cfg)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
