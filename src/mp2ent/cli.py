"""Command-line entry point: parameter sweeps and the verification report.

Subcommands ``circle``, ``cylinder``, ``coset``, ``cat`` emit 2-D probability
grids (CSV or JSON, deterministic byte-for-byte); ``verify`` runs the
closed-form reconciliation battery and writes its JSON report.

Angles accept multiples of pi with a ``pi`` suffix (``0.5pi``, ``-pi``) to
avoid decimal drift in the usual delta = pi/2, rho = pi settings.

Exit codes: 0 success, 2 invalid parameters, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .entangle_circle import CONVENTIONS, SectorPair
from .grids import (
    DEFAULT_AXES,
    FAMILIES,
    PARAMETERS,
    AxisSpec,
    GridDomainError,
    SweepSpec,
    run_sweep,
    write_grid,
)
from .numerics import DEFAULT_TERMS
from .verify import verify_all

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


def parse_number(text: str) -> float:
    """Float literal, or a multiple of pi via the ``pi`` suffix."""
    text = text.strip()
    if text.endswith("pi"):
        head = text[:-2].strip()
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        return float(head) * math.pi
    return float(text)


def parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis must be name:min:max:steps, got {text!r}")
    name, lo, hi, steps = parts
    return AxisSpec(name, parse_number(lo), parse_number(hi), int(steps))


def parse_set(items: list[str]) -> dict[str, float]:
    fixed: dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--set expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        fixed[name.strip()] = parse_number(value)
    return fixed


def _add_sweep_flags(sub: argparse.ArgumentParser, family: str) -> None:
    names = ", ".join(PARAMETERS[family])
    sub.add_argument("--pair", default="pp", help="sector pair: pp|pm|mm|total")
    sub.add_argument("--axis1", help=f"name:min:max:steps (parameters: {names})")
    sub.add_argument("--axis2", help="name:min:max:steps")
    sub.add_argument(
        "--set",
        dest="fixed",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fix a remaining parameter (repeatable)",
    )
    sub.add_argument("--trunc", type=int, default=DEFAULT_TERMS, help="series truncation")
    sub.add_argument("--convention", choices=CONVENTIONS, default="stripped")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (default derived, under MP2E_OUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mp2ent",
        description="Mp(2)-projected entanglement probability sweeps and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for family in FAMILIES:
        sub = subs.add_parser(family, help=f"sweep a {family}-family probability grid")
        _add_sweep_flags(sub, family)
    ver = subs.add_parser("verify", help="run the closed-form reconciliation battery")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--trunc", type=int, default=DEFAULT_TERMS)
    ver.add_argument("--report", help="write the JSON report here (default stdout)")
    return parser


def _default_out(family: str, pair: SectorPair, fmt: str) -> str:
    name = f"{family}_{pair.value}.{fmt}"
    base = os.environ.get("MP2E_OUT_DIR", "")
    return os.path.join(base, name) if base else name


def _run_family(args: argparse.Namespace) -> int:
    family = args.command
    pair = SectorPair.parse(args.pair)
    ax1_default, ax2_default = DEFAULT_AXES[family]
    axis1 = parse_axis(args.axis1) if args.axis1 else AxisSpec(*ax1_default)
    axis2 = parse_axis(args.axis2) if args.axis2 else AxisSpec(*ax2_default)
    spec = SweepSpec(
        family=family,
        pair=pair,
        axis1=axis1,
        axis2=axis2,
        fixed=tuple(parse_set(args.fixed).items()),
        truncation=args.trunc,
        convention=args.convention,
    )
    grid = run_sweep(spec)
    out = args.out or _default_out(family, pair, args.format)
    write_grid(grid, out, args.format, command=" ".join(sys.argv[1:]))
    print(f"wrote {out} ({axis1.steps}x{axis2.steps}, provenance={grid.provenance})")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    report = verify_all(tolerance=args.tol, terms=args.trunc)
    payload = json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.report}")
    else:
        sys.stdout.write(payload)
    for comp in report.comparisons:
        marker = "ok " if comp.ok else "FAIL"
        print(f"[{marker}] {comp.status:22s} {comp.name}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_family(args)
    except (ValueError, GridDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
