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
import math
import os
import sys

from . import sweep as sweep_mod
from .errors import ConfigurationError, DomainError
from .sweep import (
    SweepSpec,
    SweepTable,
    VERIFY_TOLERANCE,
    default_ranges,
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

    The grid oracle allocates and frees ~2 MB per separation row at 16384
    grid points (the sampled vectors and the QR's two copies of them).  With
    glibc's default thresholds those pages go back to the kernel after each
    row and are faulted in again on the next: ~3,000 minor faults per
    six-row ``verify``, which took more time than the QR and made the run
    time follow the machine's page-fault cost from one run to the next.  The
    values set are the ceilings of glibc's own sliding thresholds (32 MiB
    mmap, 64 MiB trim).  Does nothing off glibc.
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


def _add_common(parser: argparse.ArgumentParser, mode: str) -> None:
    parser.add_argument("--sigma", type=float, default=1.0, help="PSF width (default 1)")
    parser.add_argument("--phi", type=float, default=0.0,
                        help="auxiliary relative phase; closed forms require 0")
    # a preset fixes its own axis; None tells an option given from one left out
    parser.add_argument("--nuisance", choices=sweep_mod.NUISANCES,
                        default={"verify": "theta", "figure": None}.get(mode, "coherence"),
                        help="second sweep axis")
    parser.add_argument("--s-min", type=float, default=None)
    parser.add_argument("--s-max", type=float, default=None)
    parser.add_argument("--s-steps", type=int, default=None)
    parser.add_argument("--n-min", type=float, default=None)
    parser.add_argument("--n-max", type=float, default=None)
    parser.add_argument("--n-steps", type=int, default=None)
    parser.add_argument("--format", choices=sweep_mod.FORMATS, default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--oracle", action="store_true",
                        help="attach brute-force comparison deltas")
    parser.add_argument("--grid-points", type=int, default=4096)
    parser.add_argument("--grid-halfwidth", type=float, default=None)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with every subcommand but only ``command``'s options where
    it names one: argparse builds a help formatter per option."""
    parser = argparse.ArgumentParser(
        prog="superres",
        description="Fisher-information analysis of two-point-source resolution "
                    "under entanglement and coherence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = sweep_mod.MODES + ("figure",)
    for mode in commands:
        p = sub.add_parser(mode)
        if command == mode or command not in commands:
            if mode == "figure":
                p.add_argument("preset", help="fig1a | fig1b | fig1c | fig2a | fig2b")
            _add_common(p, mode)
    return parser


# the figure options a preset sets itself
_PRESET_FIXED = ("nuisance", "s_min", "s_max", "n_min", "n_max")

# verify samples a coarse grid away from the theta = 0 corner
_VERIFY_RANGES = (0.5, 3.0, 4), (math.pi / 8, _HALF_PI, 4)


def _range_from_args(args, defaults, prefix: str, keys=("min", "max", "steps")):
    """``defaults`` with the ``--<prefix>-<key>`` options that were given."""
    given = {k: getattr(args, f"{prefix}_{k}") for k in keys}
    return tuple(d if given.get(k) is None else given[k]
                 for d, k in zip(defaults, ("min", "max", "steps")))


def _spec_from_args(args, mode: str) -> SweepSpec:
    s_default, n_default = (_VERIFY_RANGES if mode == "verify"
                            else default_ranges(args.nuisance))
    return SweepSpec(
        mode=mode,
        nuisance=args.nuisance,
        sigma=args.sigma,
        phi=args.phi,
        s_range=_range_from_args(args, s_default, "s"),
        nuisance_range=_range_from_args(args, n_default, "n"),
        oracle=args.oracle or mode == "verify",
        grid_points=args.grid_points,
        grid_halfwidth=args.grid_halfwidth,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    out = sys.stdout if args.out is None else args.out
    _keep_freed_heap()
    try:
        if args.command == "figure":
            blocks = figure_preset(args.preset)
            if args.phi != 0.0:
                raise DomainError("figure presets require phi = 0")
            fixed = [f"--{name.replace('_', '-')}" for name in _PRESET_FIXED
                     if getattr(args, name) is not None]
            if fixed:
                raise DomainError(f"figure presets fix {', '.join(fixed)}; "
                                  "only the step counts can be changed")
            blocks = [dataclasses.replace(
                spec, sigma=args.sigma, oracle=args.oracle,
                grid_points=args.grid_points, grid_halfwidth=args.grid_halfwidth,
                s_range=_range_from_args(args, spec.s_range, "s", keys=("steps",)),
                nuisance_range=_range_from_args(args, spec.nuisance_range, "n",
                                                keys=("steps",)))
                for spec in blocks]
            emit(SweepTable.concat(map(run_sweep, blocks)), args.format, out,
                 include_deltas=args.oracle)
            return 0

        spec = _spec_from_args(args, args.command)
        table = run_sweep(spec)
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
                emit(table, args.format, out, include_deltas=True)
            return 0 if ok else 3
        emit(table, args.format, out, include_deltas=spec.oracle)
        return 0
    except (DomainError, ConfigurationError) as exc:
        print(f"superres: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"superres: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
