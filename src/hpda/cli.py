"""Command-line front end: construct, verify, simulate, and compare.

Exit codes: 0 success, 1 semantic failure (invalid array or failed decode),
2 usage or parse error, 3 input artifact fails verification.  Handlers raise;
:func:`main` alone turns an exception into code 1, 2 or 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .analysis import compare_sweep
from .hierarchy import (
    Hpda,
    build_grouping,
    build_hybrid,
    load_hpda,
    loads_from_hpda,
    parse_hpda,
    save_hpda,
    verify_hpda,
)
from .pda import (
    InvalidArrayError,
    PdaFormatError,
    _read_text,
    load_pda,
    mn_pda,
    parse_pda,
    save_pda,
    verify_pda,
)
from .simulation import DecodingError, DemandVector, simulate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BAD_ARTIFACT = 3

_FORMATS = ("table", "json")


def _cmd_construct_pda(args: argparse.Namespace) -> int:
    save_pda(mn_pda(args.k, args.t), args.out or sys.stdout)
    return EXIT_OK


def _summary_line(h: Hpda) -> str:
    loads = loads_from_hpda(h)
    return (
        f"F={h.f} Z1={h.z1} Z2={h.z2} R1={loads.r1} R2={loads.r2}"
        f" ({float(loads.r1):.4f}, {float(loads.r2):.4f})"
    )


def _cmd_construct_hpda(args: argparse.Namespace) -> int:
    if args.kind == "grouping":
        h = build_grouping(args.k1, args.k2, args.t)
    else:
        h = build_hybrid(load_pda(args.a), load_pda(args.b))
    summary = _summary_line(h)
    save_hpda(h, args.out or sys.stdout)
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.path)
    first = (text.split(None, 1) or [""])[0]
    if first == "HPDA":
        h = parse_hpda(text)
        report = verify_hpda(h)
        label = f"HPDA K1={h.k1} K2={h.k2} F={h.f} Z1={h.z1} Z2={h.z2}"
    elif first == "PDA":
        p = parse_pda(text)
        report = verify_pda(p)
        label = f"PDA K={p.k} F={p.f} Z={p.z} S={p.s}"
    else:
        raise PdaFormatError("file is neither a PDA nor an HPDA")
    if report.valid:
        print(f"valid {label}")
        return EXIT_OK
    print(f"invalid {label}")
    for v in report.violations:
        print(f"  {v}")
    return EXIT_INVALID


def _integers(text: str, option: str, skip_blank: bool = False) -> list[int]:
    """The comma-separated integers of ``option``, in ASCII digits as in an
    array file; ``skip_blank`` drops blank tokens rather than refusing them."""
    tokens = [token for token in map(str.strip, text.split(",")) if token or not skip_blank]
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"{option} takes comma-separated integers in ASCII digits, got {token!r}")
    try:
        return list(map(int, tokens))
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{option} takes integers of at most {sys.get_int_max_str_digits()} digits") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    h = load_hpda(args.path)
    d = None  # simulate's default: every user requests a distinct file
    if args.demand is not None:
        d = DemandVector(k1=h.k1, k2=h.k2, entries=tuple(_integers(args.demand, "--demand")))
    result = simulate(h, args.files, args.packet_bytes, d, seed=args.seed)
    t = result.transcript
    if args.transcript:  # before any output, so that a failed write prints nothing
        t.dump(args.transcript)
    flag = "success" if result.success else "failure"
    print(f"{flag} R1={t.server_packets}/{t.f} R2={max(t.mirror_packets(k) for k in t.mirror_signals)}/{t.f}")
    for k1 in sorted(t.mirror_signals):
        print(f"mirror {k1}: {t.mirror_packets(k1)} packets")
    return EXIT_OK if result.success else EXIT_INVALID


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return f"{float(value):.4f}"
    return str(value)


def _cmd_compare(args: argparse.Namespace) -> int:
    fmt = args.format or os.environ.get("HPDA_FORMAT") or "table"
    if fmt not in _FORMATS:  # argparse checks choices on the command line only
        raise ValueError(f"HPDA_FORMAT={fmt!r} is not one of {', '.join(_FORMATS)}")
    t_list = _integers(args.t, "--t", skip_blank=True)
    rows = compare_sweep(args.k1, args.k2, args.n, t_list, args.grid_step)
    if fmt == "json":
        payload = [
            {
                "scheme": row.scheme,
                "t": row.t,
                "m1_ratio": str(row.m1_ratio),
                "m2_ratio": str(row.m2_ratio),
                "r1": None if row.r1 is None else str(row.r1),
                "r2": None if row.r2 is None else str(row.r2),
                "r1_value": None if row.r1 is None else float(row.r1),
                "r2_value": None if row.r2 is None else float(row.r2),
                "f": row.f,
                "feasible": row.feasible,
                "alpha": None if row.split is None else str(row.split.alpha),
                "beta": None if row.split is None else str(row.split.beta),
            }
            for row in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        header = ("scheme", "t", "m1_ratio", "m2_ratio", "r1", "r2", "f")
        print("\t".join(header))
        for row in rows:
            print("\t".join(_fmt_cell(getattr(row, name)) for name in header))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpda",
        description="Construct, verify, simulate and compare two-layer coded caching arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c_pda = sub.add_parser("construct-pda", help="write a single-layer array")
    c_pda.add_argument("kind", choices=["mn"])
    c_pda.add_argument("--k", type=int, required=True, help="number of users")
    c_pda.add_argument("--t", type=int, required=True, help="memory lattice point")
    c_pda.add_argument("--out", help="output path (default: stdout)")
    c_pda.set_defaults(handler=_cmd_construct_pda)

    c_hpda = sub.add_parser("construct-hpda", help="write a hierarchical array")
    kinds = c_hpda.add_subparsers(dest="kind", required=True)
    grouping = kinds.add_parser("grouping", help="group a single MN array by mirror")
    grouping.add_argument("--k1", type=int, required=True, help="mirrors")
    grouping.add_argument("--k2", type=int, required=True, help="users per mirror")
    grouping.add_argument("--t", type=int, required=True)
    grouping.add_argument("--out")
    grouping.set_defaults(handler=_cmd_construct_hpda)
    hybrid = kinds.add_parser("hybrid", help="compose two arrays: outer x inner")
    hybrid.add_argument("--a", required=True, help="outer (mirror-layer) array file")
    hybrid.add_argument("--b", required=True, help="inner (user-layer) array file")
    hybrid.add_argument("--out")
    hybrid.set_defaults(handler=_cmd_construct_hpda)

    verify = sub.add_parser("verify", help="verify an array file (auto-detected)")
    verify.add_argument("path")
    verify.set_defaults(handler=_cmd_verify)

    sim = sub.add_parser("simulate", help="run placement, delivery, and decoding")
    sim.add_argument("path", help="HPDA file")
    sim.add_argument("--files", type=int, required=True, help="library size N")
    sim.add_argument("--packet-bytes", type=int, default=64)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--demand", help="comma-separated file indices, lex user order")
    sim.add_argument("--transcript", help="dump all signals to this path")
    sim.set_defaults(handler=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="tabulate schemes at grouping memory points")
    cmp_.add_argument("--k1", type=int, required=True)
    cmp_.add_argument("--k2", type=int, required=True)
    cmp_.add_argument("--n", type=int, required=True)
    cmp_.add_argument("--t", default="", help="comma-separated t values")
    cmp_.add_argument("--grid-step", help="alpha-beta search step")
    cmp_.add_argument("--format", choices=_FORMATS, help="default: $HPDA_FORMAT, else table")
    cmp_.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else EXIT_OK
    try:
        return args.handler(args)
    except DecodingError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidArrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARTIFACT
    # A file that cannot be read or written, bad input (PdaFormatError is a
    # ValueError), or a zero grid step: Fraction("1/0") raises ZeroDivisionError.
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
