"""Command-line front end.

Subcommands: roots, flag, tke, grlb, volume, report, sweep, table.
Every command prints deterministic text, or a canonical JSON envelope
{command, input, result, warnings} with --json; --out FILE additionally
writes that JSON envelope to a file.

Serialization rules: rationals as "p/q" strings in lowest terms (plain
"p" when integral), big integers as decimal strings, everything else
native JSON.  Decimal renderings in text output are display hints only
(6 significant digits by default, --digits to change); no comparison
anywhere uses floating point.

Units: stored class coordinates absorb the conventional 2*pi factor.
--units=raw only annotates rendered class vectors (and volumes) with
the factor; it never changes a stored or serialized value.

Exit codes: 0 success (including a negative tke verdict, which is an
answer, not an error), 1 verification failure (table mismatch, sweep
failure, an internal cross check such as the two volume routes
disagreeing), 2 usage or validation error.  Errors print one line to
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import catalog_rows
from .flag import ParabolicData, flag_report, parabolic
from .invariants import (
    grlb_report,
    tke_exists,
    volume_bound_report,
    volume_class,
    volume_cross_check,
)
from .rootsys import LieType, build_root_system
from .sweep import CHECKS, SweepConfig, run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# argument parsing helpers

def _indices_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _rationals_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.strip().split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rationals like 2,5/3, got {text!r}"
        ) from None


def _checks_arg(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _seed_arg(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None


def _add_output_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="print a JSON envelope instead of text")
    sp.add_argument(
        "--units",
        choices=("2pi", "raw"),
        default="2pi",
        help="display units for class coordinates (annotation only; default 2pi)",
    )
    sp.add_argument("--digits", type=int, default=6, help="significant digits for decimal hints")
    sp.add_argument("--out", metavar="FILE", help="also write the JSON envelope to FILE")


def _add_flag_spec(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("type", help="simple type token, e.g. A2, D5, E7")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--theta",
        type=_indices_arg,
        default=None,
        help='Levi node set, e.g. 1,3 (use --theta "" for the full flag)',
    )
    g.add_argument(
        "--complement",
        type=_indices_arg,
        default=None,
        help="complement node set, e.g. 4,5 (alternative to --theta)",
    )


def _parabolic_from(args: argparse.Namespace) -> ParabolicData:
    t = LieType.parse(args.type)
    if args.complement is not None:
        return parabolic(t, complement=args.complement)
    return parabolic(t, args.theta)


# ---------------------------------------------------------------------------
# rendering helpers

def _approx(x: Fraction, digits: int) -> str:
    ctx = decimal.Context(prec=max(1, digits))
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return str(d)


def _q_text(x: Fraction, digits: int) -> str:
    if x.denominator == 1 and abs(x.numerator) < 10**12:
        return str(x)
    return f"{x} (~{_approx(x, digits)})"


def _int_text(n: int, digits: int) -> str:
    return _q_text(Fraction(n), digits)


def _vec_text(values: Sequence, units: str) -> str:
    body = "[" + ", ".join(str(v) for v in values) + "]"
    return (body + " * 2pi") if units == "raw" else body


def _q_json(x: Fraction) -> str:
    return str(x)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    payload = _dump(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.json:
        sys.stdout.write(payload)
    else:
        for line in text_lines:
            print(line)


def _flag_input(args: argparse.Namespace, p: ParabolicData) -> dict:
    return {
        "type": str(p.lie_type),
        "theta": list(p.theta),
        "complement": list(p.complement),
        "units": args.units,
    }


def _theta_text(p: ParabolicData) -> str:
    return ",".join(str(i) for i in p.theta) if p.theta else "(empty)"


def _spec_lines(p: ParabolicData) -> list[str]:
    return [
        f"type: {p.lie_type}",
        f"theta: {_theta_text(p)}",
        f"complement: {','.join(str(i) for i in p.complement)}",
    ]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_roots(args: argparse.Namespace) -> int:
    rs = build_root_system(LieType.parse(args.type))
    mu = rs.maximal_root()
    doc = {
        "command": "roots",
        "input": {"type": str(rs.lie_type), "units": args.units},
        "result": {
            "rank": rs.rank,
            "count": len(rs.positive_roots),
            "cartan": [list(row) for row in rs.cartan],
            "symmetrizer": [_q_json(d) for d in rs.symmetrizer],
            "maximal_root": list(mu.coeffs),
            "heights_in_max": [rs.height_in_max(i) for i in range(1, rs.rank + 1)],
            "positive_roots": [list(g.coeffs) for g in rs.positive_roots],
        },
        "warnings": [],
    }
    lines = [
        f"type: {rs.lie_type}",
        f"rank: {rs.rank}",
        f"positive roots: {len(rs.positive_roots)}",
        f"maximal root: {mu} (height {mu.height})",
        f"heights in maximal root: {_vec_text([rs.height_in_max(i) for i in range(1, rs.rank + 1)], '2pi')}",
        "roots (simple-root coefficients, by height):",
    ]
    lines.extend(f"  {g}" for g in rs.positive_roots)
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_flag(args: argparse.Namespace) -> int:
    p = _parabolic_from(args)
    rep = flag_report(p)
    doc = {
        "command": "flag",
        "input": _flag_input(args, p),
        "result": {
            "dim": rep.dim,
            "picard_rank": rep.picard_rank,
            "koszul": list(rep.koszul),
            "degree": str(rep.degree),
            "snow_bound": str(rep.snow.bound),
            "snow_ok": rep.snow.ok,
            "snow_equality": rep.snow.equality,
        },
        "warnings": [],
    }
    lines = _spec_lines(p) + [
        f"dim: {rep.dim}",
        f"picard rank: {rep.picard_rank}",
        f"koszul: {_vec_text(rep.koszul, args.units)}",
        f"degree: {_int_text(rep.degree, args.digits)}",
        f"snow bound (n+1)^n: {_int_text(rep.snow.bound, args.digits)}",
        f"degree <= bound: {'ok' if rep.snow.ok else 'VIOLATED'}"
        f" ({'equality' if rep.snow.equality else 'strict'})",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_tke(args: argparse.Namespace) -> int:
    p = _parabolic_from(args)
    res = tke_exists(p, args.beta)
    doc = {
        "command": "tke",
        "input": {**_flag_input(args, p), "beta": [_q_json(c) for c in args.beta]},
        "result": {
            "koszul": list(p.koszul),
            "exists": res.exists,
            "margins": {str(i): _q_json(m) for i, m in res.margins.items()},
            "metric": [_q_json(c) for c in res.metric.coords] if res.metric else None,
        },
        "warnings": [],
    }
    lines = _spec_lines(p) + [
        f"thresholds (koszul): {_vec_text(p.koszul, args.units)}",
        f"twist beta: {_vec_text(args.beta, args.units)}",
        "margins: "
        + "; ".join(f"node {i}: {res.margins[i]}" for i in p.complement),
        f"tke exists: {'yes' if res.exists else 'no'}",
    ]
    if res.metric is not None:
        lines.append(f"metric omega: {_vec_text(res.metric.coords, args.units)}")
    else:
        lines.append("metric omega: (none; some margin is not positive)")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_grlb(args: argparse.Namespace) -> int:
    p = _parabolic_from(args)
    rep = grlb_report(p, args.xi)
    doc = {
        "command": "grlb",
        "input": {**_flag_input(args, p), "xi": [_q_json(c) for c in args.xi]},
        "result": {
            "value": _q_json(rep.value),
            "argmin": list(rep.argmin),
        },
        "warnings": [],
    }
    lines = _spec_lines(p) + [
        f"xi: {_vec_text(args.xi, args.units)}",
        f"greatest Ricci lower bound: {_q_text(rep.value, args.digits)}",
        f"argmin nodes: {_vec_text(rep.argmin, '2pi')}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_volume(args: argparse.Namespace) -> int:
    p = _parabolic_from(args)
    v = volume_class(p, args.xi)
    v2 = volume_cross_check(p, args.xi)
    if v != v2:
        raise RuntimeError(
            f"volume routes disagree on {p.describe()}: {v} vs {v2}"
        )
    suffix = f" * (2pi)^{p.dim}" if args.units == "raw" else ""
    doc = {
        "command": "volume",
        "input": {**_flag_input(args, p), "xi": [_q_json(c) for c in args.xi]},
        "result": {
            "volume": _q_json(v),
            "cross_check": _q_json(v2),
            "dim": p.dim,
        },
        "warnings": [],
    }
    lines = _spec_lines(p) + [
        f"xi: {_vec_text(args.xi, args.units)}",
        f"volume: {_q_text(v, args.digits)}{suffix}",
        "cross check: agrees (independent product formula)",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    p = _parabolic_from(args)
    g = grlb_report(p, args.xi)
    vol = volume_class(p, args.xi)
    rep = volume_bound_report(p, args.xi)
    doc = {
        "command": "report",
        "input": {**_flag_input(args, p), "xi": [_q_json(c) for c in args.xi]},
        "result": {
            "dim": p.dim,
            "koszul": list(p.koszul),
            "grlb": _q_json(g.value),
            "argmin": list(g.argmin),
            "volume": _q_json(vol),
            "r_pow_vol": _q_json(rep.r_pow_vol),
            "degree": str(rep.degree),
            "snow_bound": str(rep.snow),
            "left_ok": rep.left_ok,
            "left_equality": rep.left_equality,
            "right_ok": rep.right_ok,
            "right_equality": rep.right_equality,
        },
        "warnings": [],
    }
    suffix = f" * (2pi)^{p.dim}" if args.units == "raw" else ""
    lines = _spec_lines(p) + [
        f"dim: {p.dim}",
        f"koszul: {_vec_text(p.koszul, args.units)}",
        f"xi: {_vec_text(args.xi, args.units)}",
        f"grlb: {_q_text(g.value, args.digits)} (argmin nodes {list(g.argmin)})",
        f"volume: {_q_text(vol, args.digits)}{suffix}",
        "bound chain: grlb^n * vol = "
        + _q_text(rep.r_pow_vol, args.digits)
        + " <= degree = "
        + _int_text(rep.degree, args.digits)
        + " <= (n+1)^n = "
        + _int_text(rep.snow, args.digits),
        f"left: {'ok' if rep.left_ok else 'VIOLATED'}"
        f" ({'equality' if rep.left_equality else 'strict'})"
        f"   right: {'ok' if rep.right_ok else 'VIOLATED'}"
        f" ({'equality' if rep.right_equality else 'strict'})",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        max_rank=args.max_rank,
        samples_per_flag=args.samples,
        seed=args.seed,
        checks=args.checks,
    )
    res = run_sweep(config)
    doc = {
        "command": "sweep",
        "input": {
            "max_rank": config.max_rank,
            "samples_per_flag": config.samples_per_flag,
            "seed": config.seed,
            "checks": list(config.checks),
            "units": args.units,
        },
        "result": {
            "flags": res.flags,
            "samples": res.samples,
            "checks_run": res.checks_run,
            "ok": res.ok,
            "failures": [
                {
                    "flag": f.flag,
                    "check": f.check,
                    "detail": f.detail,
                    "reproducer": f.reproducer,
                }
                for f in res.failures
            ],
        },
        "warnings": [],
    }
    lines = [
        "sweep: max_rank={} samples={} seed={} checks={}".format(
            config.max_rank,
            config.samples_per_flag,
            config.seed,
            ",".join(config.checks),
        ),
        f"flags: {res.flags}",
        f"samples: {res.samples}",
        f"checks run: {res.checks_run}",
        f"failures: {len(res.failures)}",
    ]
    for f in res.failures:
        lines.append(f"FAIL [{f.check}] {f.flag}: {f.detail}")
        lines.append(f"  reproduce: {f.reproducer}")
    _emit(args, doc, lines)
    return EXIT_OK if res.ok else EXIT_VERIFY


def _cmd_table(args: argparse.Namespace) -> int:
    family = None if args.family == "all" else args.family
    rows = catalog_rows(args.max_rank, family)
    mismatches = sum(1 for r in rows if not r.match)
    inconsistent = sum(1 for r in rows if not r.family_consistent)
    warnings = sorted({r.note for r in rows if r.note})
    if not rows:
        warnings.append(
            f"no rows within rank bound {args.max_rank} for family "
            f"{args.family} (type III starts at rank 6)"
        )
    doc = {
        "command": "table",
        "input": {
            "family": args.family,
            "max_rank": args.max_rank,
            "units": args.units,
        },
        "result": {
            "count": len(rows),
            "mismatches": mismatches,
            "family_inconsistencies": inconsistent,
            "rows": [
                {
                    "family": r.family,
                    "group": r.group,
                    "type": str(r.lie_type),
                    "complement": list(r.complement),
                    "params": dict(r.params),
                    "expected": list(r.expected),
                    "computed": list(r.computed),
                    "match": r.match,
                    "heights": list(r.heights),
                    "summands": r.summands,
                    "family_consistent": r.family_consistent,
                    "note": r.note,
                }
                for r in rows
            ],
        },
        "warnings": warnings,
    }
    header = (
        "family",
        "type",
        "complement",
        "expected",
        "computed",
        "match",
        "summands",
        "heights",
        "group",
    )
    body = [
        (
            r.family,
            str(r.lie_type),
            "{%s}" % ",".join(str(i) for i in r.complement),
            str(r.expected),
            str(r.computed),
            "yes" if r.match else "NO",
            str(r.summands),
            str(r.heights),
            r.group,
        )
        for r in rows
    ]
    widths = [
        max(len(header[k]), *(len(row[k]) for row in body)) if body else len(header[k])
        for k in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(
        f"rows: {len(rows)}, mismatches: {mismatches}, "
        f"family inconsistencies: {inconsistent}"
    )
    lines.extend(f"note: {w}" for w in warnings)
    _emit(args, doc, lines)
    return EXIT_OK if mismatches == 0 and inconsistent == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagtke",
        description=(
            "Exact root-system computations on generalized flag varieties: "
            "twisted Einstein existence, Ricci lower bounds, volumes, "
            "degrees, and classification tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="positive roots and Cartan data of a simple type")
    sp.add_argument("type", help="simple type token, e.g. A2, D5, E7")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_roots)

    sp = sub.add_parser("flag", help="parabolic data: dimension, koszul numbers, degree")
    _add_flag_spec(sp)
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_flag)

    sp = sub.add_parser("tke", help="twisted Einstein existence for a twist class")
    _add_flag_spec(sp)
    sp.add_argument("--beta", type=_rationals_arg, required=True, help="twist coordinates, e.g. 5/2,1")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_tke)

    sp = sub.add_parser("grlb", help="greatest Ricci lower bound of a Kahler class")
    _add_flag_spec(sp)
    sp.add_argument("--xi", type=_rationals_arg, required=True, help="positive class coordinates")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_grlb)

    sp = sub.add_parser("volume", help="volume of a Kahler class (two independent routes)")
    _add_flag_spec(sp)
    sp.add_argument("--xi", type=_rationals_arg, required=True, help="positive class coordinates")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_volume)

    sp = sub.add_parser("report", help="full bound chain grlb^n*vol <= degree <= (n+1)^n")
    _add_flag_spec(sp)
    sp.add_argument("--xi", type=_rationals_arg, required=True, help="positive class coordinates")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_report)

    sp = sub.add_parser("sweep", help="bulk verification over all flags up to a rank bound")
    sp.add_argument("--max-rank", type=int, default=4)
    sp.add_argument("--samples", type=int, default=10, help="random classes per flag")
    sp.add_argument("--seed", type=_seed_arg, default=0, help="64-bit PRNG seed")
    sp.add_argument(
        "--checks",
        type=_checks_arg,
        default=CHECKS,
        help="comma list from: " + ",".join(CHECKS),
    )
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("table", help="Picard-rank-two classification rows, verified")
    sp.add_argument("--family", choices=("I", "II", "III", "all"), default="all")
    sp.add_argument("--max-rank", type=int, default=9)
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles help/usage itself
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # OSError: e.g. --out into a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # an internal check failed, e.g. volume routes disagree
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
