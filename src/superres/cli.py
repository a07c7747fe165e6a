"""Command-line front end.

    superres single  [options]     single-parameter FI sweep
    superres qfim    [options]     two-parameter QFIM / precision sweep
    superres verify  [options]     analytic vs brute-force comparison
    superres figure  PRESET [...]  canned figure-data grids (fig1a..fig2b)

Exit codes: 0 success, 2 usage or domain error, 3 verification failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import shutil
import sys

from . import sweep as sweep_mod
from .errors import DomainError
from .numeric_oracle import GRID_POINTS
from .sweep import (
    SweepSpec,
    SweepTable,
    VERIFY_TOLERANCE,
    emit,
    figure_preset,
    worst_oracle_delta,
    run_sweep,
)

_HALF_PI = math.pi / 2

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory for reuse instead of handing it
    back to the kernel after every large array.

    The grid oracle allocates and frees ~0.6 MB per separation row at 16384
    grid points (the row's ``x > 0`` grid points with the temporaries that
    build them, and the QR's two copies of the half-grid sample buffer).  With
    glibc's default thresholds some of those pages go back to the kernel
    after each row and are faulted in again on the next: ~130 minor faults
    per six-row ``verify`` (2.7 ms against 2.5 ms, best in process), and
    ~1,300 (1-2 ms) when the oracle sampled the whole grid, which made the
    run time follow the machine's page-fault cost from one run to the next.
    The values set are the ceilings of glibc's own sliding thresholds
    (32 MiB mmap, 64 MiB trim).  Does nothing off glibc.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if libc.startswith("glibc"):
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """The options ``command`` reads: a figure preset fixes its nuisance axis
    and ranges, and verify its nuisance and the oracle."""
    add = parser.add_argument
    add("--sigma", type=float, default=1.0, help="PSF width (default 1)")
    if command in ("single", "qfim"):
        add("--nuisance", choices=sweep_mod.NUISANCES, default="coherence",
            help="second sweep axis")
    for axis in ("s", "n"):
        if command != "figure":
            add(f"--{axis}-min", type=float)
            add(f"--{axis}-max", type=float)
        add(f"--{axis}-steps", type=int)
    add("--format", choices=sweep_mod.FORMATS, default="csv")
    add("--out", help="output path (default: stdout)")
    if command != "verify":
        add("--oracle", action="store_true", help="attach brute-force comparison deltas")
    add("--grid-points", type=int, default=GRID_POINTS)


_COMMANDS = ("single", "qfim", "verify", "figure")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only ``command``'s subparser where it names one, else
    every subcommand: argparse builds a parser per subcommand and a help
    formatter per option, each of which would ask the terminal its width."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="superres",
        description="Fisher-information analysis of two-point-source resolution "
                    "under entanglement and coherence",
        formatter_class=formatter,
    )
    if command in _COMMANDS:
        # the usage names every command, as the full parser's does; usage
        # errors about the command itself come from the full parser alone
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        commands = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        commands = _COMMANDS
    for name in commands:
        p = sub.add_parser(name, formatter_class=formatter)
        if name == "figure":
            p.add_argument("preset", help="fig1a | fig1b | fig1c | fig2a | fig2b")
        _add_options(p, name)
    return parser


# verify samples a coarse grid away from the theta = 0 corner
_VERIFY_RANGES = (0.5, 3.0, 4), (math.pi / 8, _HALF_PI, 4)


def _range_from_args(args, defaults, prefix: str):
    """``defaults`` with the ``--<prefix>-<key>`` options the command has and
    was given."""
    given = (getattr(args, f"{prefix}_{key}", None) for key in ("min", "max", "steps"))
    return tuple(d if g is None else g for d, g in zip(defaults, given))


def _blocks(args) -> list[SweepSpec]:
    """The sweep blocks of a command, with the options it was given: a
    figure's preset, verify's theta-chart qfim block with the oracle on, or a
    single or qfim block over its nuisance's default ranges."""
    if args.command == "figure":
        blocks = figure_preset(args.preset)
    elif args.command == "verify":
        blocks = [SweepSpec(mode="qfim", nuisance="theta", oracle=True,
                            s_range=_VERIFY_RANGES[0], nuisance_range=_VERIFY_RANGES[1])]
    else:
        blocks = [SweepSpec(mode=args.command, nuisance=args.nuisance)]
    return [dataclasses.replace(
        spec, sigma=args.sigma, oracle=spec.oracle or getattr(args, "oracle", False),
        grid_points=args.grid_points,
        s_range=_range_from_args(args, spec.s_range, "s"),
        nuisance_range=_range_from_args(args, spec.nuisance_range, "n"))
        for spec in blocks]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    out = sys.stdout if args.out is None else args.out
    _keep_freed_heap()
    try:
        table = SweepTable.concat(map(run_sweep, _blocks(args)))
        if args.command == "verify":
            worst, at, element = worst_oracle_delta(table)
            ok = worst < VERIFY_TOLERANCE
            print(
                f"verify: {len(table)} points, max relative QFIM delta "
                f"{worst:.3e} (tolerance {VERIFY_TOLERANCE:.0e}): "
                f"{'PASS' if ok else 'FAIL'}",
                file=sys.stderr,
            )
            if at is not None:
                s, theta = (float(table.columns[name][at]) for name in ("s", "theta"))
                print(f"verify: worst delta in {element} at s = {s!r}, "
                      f"theta = {theta!r}", file=sys.stderr)
            if args.out is not None:
                emit(table, args.format, out)
            return 0 if ok else 3
        emit(table, args.format, out)
        return 0
    except DomainError as exc:
        print(f"superres: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"superres: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
