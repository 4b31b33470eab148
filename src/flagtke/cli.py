"""Command-line front end.

Subcommands: roots, flag, tke, grlb, volume, report, sweep, table.
Every command prints deterministic text, or a canonical JSON envelope
{command, input, result, warnings} with --json; --out FILE additionally
writes that JSON envelope to a file.

Layout: `_emit` is the only writer of the envelope, the --out file and
the text.  It streams the envelope from the JSON encoder, chunk by chunk,
to the --out file and then to stdout, so the document is never held
whole as one string; given both targets, it encodes once and keeps the
chunks for stdout.  A command builds only the form it prints: it hands
`_emit` its result dict and its text lines as two callables, and `_emit`
calls the first only for --json or --out and the second only for text.
The five flag commands (flag, tke, grlb, volume, report) are rows of one
table; `_run_flag` parses the type, builds the parabolic and the flag
input, and hands the flag to the row's body, which computes the exact
values once and returns the two forms built from them.

Serialization rules: rationals as "p/q" strings in lowest terms (plain
"p" when integral), big integers as decimal strings, everything else
native JSON.  Decimal renderings in text output are display hints only
(6 significant digits by default, --digits to change); no comparison
anywhere uses floating point.

Units: stored class coordinates absorb the conventional 2*pi factor.
--units=raw only annotates rendered class vectors (and volumes) with
the factor; it never changes a stored or serialized value.

Limits: a type token or a table --max-rank above MAX_TYPE_RANK (32) and
a sweep with --max-rank above MAX_SWEEP_RANK (8) are rejected as usage
errors before any root system is built; their cost grows steeply with
the rank.  So are a sweep with --samples above MAX_SWEEP_SAMPLES (100),
whose cost grows with the samples per flag, and a --digits outside 1 to
MAX_DIGITS (1000), since a decimal hint grows with it.  A rational token
longer than MAX_RATIONAL_CHARS (100) or with an exponent beyond
MAX_RATIONAL_EXPONENT (300) in size is rejected the same way, before
`Fraction` parses it.  Answers are rendered in full, however many
digits they have: CPython's limit on int -> str conversion is lifted
while a command runs and restored when `main` returns.

Exit codes: 0 success (including a negative tke verdict, which is an
answer, not an error), 1 verification failure (table mismatch, sweep
failure, an internal cross check such as the two volume routes
disagreeing), 2 usage or validation error.  Errors print one line to
stderr, never a traceback.  A reader that closes stdout early (`| head`)
is no error: the command ends silently with its own exit code.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from .catalog import catalog_rows
from .flag import ParabolicData, _exact_coordinate, parabolic, snow_check
from .invariants import (
    grlb_report, tke_exists, volume_bound_report, volume_class, volume_cross_check,
)
from .rootsys import LieType, build_root_system
from .sweep import CHECKS, SweepConfig, run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

MAX_TYPE_RANK = 32
MAX_SWEEP_RANK = 8
MAX_SWEEP_SAMPLES = 100
MAX_DIGITS = 1000
# Bounds on one rational token: Fraction("1e3000000") alone takes seconds,
# and an answer grows with the size of its input.
MAX_RATIONAL_CHARS = 100
MAX_RATIONAL_EXPONENT = 300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


# ---------------------------------------------------------------------------
# argument parsing helpers

def _indices_arg(text: str) -> tuple[int, ...]:
    # ASCII digits only, as in a type token: int() would also take "٣",
    # "1_0" and "+3"
    text = text.strip()
    tokens = [tok.strip() for tok in text.split(",")] if text else []
    if not (text.isascii() and all(tok.isdigit() for tok in tokens)):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return tuple(map(int, tokens))


def _int_arg(text: str) -> int:
    # an optional "-" then ASCII digits, as in a node list: int() would also
    # take "٢", "+1" and "1_0".  Named "int" so that argparse's message stays
    # "invalid int value: ...".
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


_int_arg.__name__ = "int"


def _rational(tok: str) -> Fraction:
    # The CLI's size bounds, then the library's spelling rule.  OverflowError,
    # not ValueError, so that argparse prints no usage block: main reports it
    # as one line.
    if len(tok) > MAX_RATIONAL_CHARS:
        raise OverflowError(f"a rational token has {len(tok)} characters; "
                            f"the CLI accepts at most {MAX_RATIONAL_CHARS}")
    exponent = _EXPONENT.search(tok)
    if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_EXPONENT:
        raise OverflowError(
            f"rational {tok!r} has exponent {int(exponent.group(1))}; the CLI accepts "
            f"exponents from -{MAX_RATIONAL_EXPONENT} to {MAX_RATIONAL_EXPONENT}")
    return _exact_coordinate(1, tok)  # its message is never shown


def _rationals_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(_rational(tok.strip()) for tok in text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rationals like 2,5/3, got {text!r}"
        ) from None


def _checks_arg(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _seed_arg(text: str) -> int:
    if text.isascii():  # any base int() reads from a prefix, e.g. 0x2a
        try:
            return int(text, 0)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}")


def _lie_type(token: str) -> LieType:
    t = LieType.parse(token)
    if t.rank > MAX_TYPE_RANK:
        raise ValueError(f"type {t} has rank {t.rank}; the CLI accepts rank <= {MAX_TYPE_RANK}")
    return t


# ---------------------------------------------------------------------------
# rendering

def _q_text(x: Fraction | int, digits: int) -> str:
    if x.denominator == 1 and abs(x.numerator) < 10**12:
        return str(x)
    ctx = decimal.Context(prec=digits)
    return f"{x} (~{ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))})"


def _vec_text(values: Sequence, units: str) -> str:
    body = "[" + ", ".join(str(v) for v in values) + "]"
    return (body + " * 2pi") if units == "raw" else body


def _root_text(root: Sequence[int]) -> str:
    return "(" + ",".join(map(str, root)) + ")"


def _fields_of(record) -> dict:
    """A record's fields by name, in field order."""
    return {name: getattr(record, name) for name in record._fields}


def _check_text(ok: bool, equality: bool) -> str:
    return f"{'ok' if ok else 'VIOLATED'} ({'equality' if equality else 'strict'})"


def _emit(args: argparse.Namespace, inputs: dict, result: Callable[[], dict],
          lines: Callable[[], Iterable[str]], warnings: Sequence[str] = ()) -> None:
    """Write the envelope to --out, then print it (--json) or the text lines.
    Each form is built only when it is printed: ``result()`` only for the
    envelope, ``lines()`` only for text.  The envelope is streamed, chunk
    by chunk from the encoder, so it is never held whole as one string;
    with --json and --out both, the chunks of its one encoding are kept
    in a list, so that the file is complete before stdout is written."""
    if args.json or args.out is not None:
        import json

        doc = {
            "command": args.command,
            "input": {**inputs, "units": args.units},
            "result": result(),
            "warnings": list(warnings),
        }
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)  # json.dumps's bytes
        if args.out is not None:
            if args.json:  # two targets, one encoding
                chunks = list(chunks)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
                fh.write("\n")
    try:
        if args.json:
            sys.stdout.writelines(chunks)
            sys.stdout.write("\n")
        else:
            for line in lines():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, e.g. `| head -1`: not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit is silent too
        os.close(devnull)


# ---------------------------------------------------------------------------
# flag commands: each body maps (args, flag) to its two forms, the result
# dict and the text lines, each built only when it is called

_Forms = tuple[Callable[[], dict], Callable[[], list[str]]]


def _run_flag(args: argparse.Namespace) -> int:
    p = parabolic(_lie_type(args.type), args.theta, complement=args.complement)
    inputs = {"type": str(p.lie_type), "theta": list(p.theta), "complement": list(p.complement)}
    if args.class_option:
        inputs[args.class_option] = [str(c) for c in getattr(args, args.class_option)]
    result, lines = args.body(args, p)

    def text() -> list[str]:
        theta, complement = (",".join(map(str, nodes)) for nodes in (p.theta, p.complement))
        return [f"type: {p.lie_type}", f"theta: {theta or '(empty)'}",
                f"complement: {complement}", *lines()]

    _emit(args, inputs, result, text)
    return EXIT_OK


def _flag(args: argparse.Namespace, p: ParabolicData) -> _Forms:
    snow = snow_check(p)
    return lambda: {
        "dim": p.dim,
        "picard_rank": p.picard_rank,
        "koszul": list(p.koszul),
        "degree": str(snow.degree),
        "snow_bound": str(snow.bound),
        "snow_ok": snow.ok,
        "snow_equality": snow.equality,
    }, lambda: [
        f"dim: {p.dim}",
        f"picard rank: {p.picard_rank}",
        f"koszul: {_vec_text(p.koszul, args.units)}",
        f"degree: {_q_text(snow.degree, args.digits)}",
        f"snow bound (n+1)^n: {_q_text(snow.bound, args.digits)}",
        f"degree <= bound: {_check_text(snow.ok, snow.equality)}",
    ]


def _tke(args: argparse.Namespace, p: ParabolicData) -> _Forms:
    res = tke_exists(p, args.beta)
    metric = res.metric.coords if res.metric else None
    return lambda: {
        "koszul": list(p.koszul),
        "exists": res.exists,
        "margins": {str(i): str(m) for i, m in res.margins.items()},
        "metric": [str(c) for c in metric] if metric else None,
    }, lambda: [
        f"thresholds (koszul): {_vec_text(p.koszul, args.units)}",
        f"twist beta: {_vec_text(args.beta, args.units)}",
        "margins: " + "; ".join(f"node {i}: {res.margins[i]}" for i in p.complement),
        f"tke exists: {'yes' if res.exists else 'no'}",
        "metric omega: "
        + (_vec_text(metric, args.units) if metric else "(none; some margin is not positive)"),
    ]


def _grlb(args: argparse.Namespace, p: ParabolicData) -> _Forms:
    rep = grlb_report(p, args.xi)
    return lambda: {"value": str(rep.value), "argmin": list(rep.argmin)}, lambda: [
        f"xi: {_vec_text(args.xi, args.units)}",
        f"greatest Ricci lower bound: {_q_text(rep.value, args.digits)}",
        f"argmin nodes: {_vec_text(rep.argmin, '2pi')}",
    ]


def _volume_suffix(args: argparse.Namespace, p: ParabolicData) -> str:
    return f" * (2pi)^{p.dim}" if args.units == "raw" else ""


def _volume(args: argparse.Namespace, p: ParabolicData) -> _Forms:
    v = volume_class(p, args.xi)
    v2 = volume_cross_check(p, args.xi)
    if v != v2:
        raise RuntimeError(f"volume routes disagree on {p.describe()}: {v} vs {v2}")
    return lambda: {"volume": str(v), "cross_check": str(v2), "dim": p.dim}, lambda: [
        f"xi: {_vec_text(args.xi, args.units)}",
        f"volume: {_q_text(v, args.digits)}{_volume_suffix(args, p)}",
        "cross check: agrees (independent product formula)",
    ]


def _report(args: argparse.Namespace, p: ParabolicData) -> _Forms:
    rep = volume_bound_report(p, args.xi)
    g = rep.grlb
    digits = args.digits
    return lambda: {
        "dim": p.dim,
        "koszul": list(p.koszul),
        "grlb": str(g.value),
        "argmin": list(g.argmin),
        "volume": str(rep.volume),
        "r_pow_vol": str(rep.r_pow_vol),
        "degree": str(rep.degree),
        "snow_bound": str(rep.snow),
        "left_ok": rep.left_ok,
        "left_equality": rep.left_equality,
        "right_ok": rep.right_ok,
        "right_equality": rep.right_equality,
    }, lambda: [
        f"dim: {p.dim}",
        f"koszul: {_vec_text(p.koszul, args.units)}",
        f"xi: {_vec_text(args.xi, args.units)}",
        f"grlb: {_q_text(g.value, digits)} (argmin nodes {list(g.argmin)})",
        f"volume: {_q_text(rep.volume, digits)}{_volume_suffix(args, p)}",
        f"bound chain: grlb^n * vol = {_q_text(rep.r_pow_vol, digits)}"
        f" <= degree = {_q_text(rep.degree, digits)}"
        f" <= (n+1)^n = {_q_text(rep.snow, digits)}",
        f"left: {_check_text(rep.left_ok, rep.left_equality)}"
        f"   right: {_check_text(rep.right_ok, rep.right_equality)}",
    ]


# (name, help, class option, body)
_FLAG_COMMANDS = (
    ("flag", "parabolic data: dimension, koszul numbers, degree", None, _flag),
    ("tke", "twisted Einstein existence for a twist class", "beta", _tke),
    ("grlb", "greatest Ricci lower bound of a Kahler class", "xi", _grlb),
    ("volume", "volume of a Kahler class (two independent routes)", "xi", _volume),
    ("report", "full bound chain grlb^n*vol <= degree <= (n+1)^n", "xi", _report),
)
_CLASS_HELP = {"beta": "twist coordinates, e.g. 5/2,1", "xi": "positive class coordinates"}


# ---------------------------------------------------------------------------
# the other commands

def _cmd_roots(args: argparse.Namespace) -> int:
    rs = build_root_system(_lie_type(args.type))
    mu = rs.maximal_root()

    def result() -> dict:  # a tuple serializes as the array of its items
        return {
            "rank": rs.rank,
            "count": len(rs.positive_roots),
            "cartan": rs.cartan,
            "symmetrizer": [str(d) for d in rs.symmetrizer],
            "maximal_root": mu,
            "heights_in_max": mu,
            "positive_roots": rs.positive_roots,
        }

    def lines() -> Iterator[str]:
        yield f"type: {rs.lie_type}"
        yield f"rank: {rs.rank}"
        yield f"positive roots: {len(rs.positive_roots)}"
        yield f"maximal root: {_root_text(mu)} (height {sum(mu)})"
        yield f"heights in maximal root: {_vec_text(mu, '2pi')}"
        yield "roots (simple-root coefficients, by height):"
        for g in rs.positive_roots:
            yield f"  {_root_text(g)}"

    _emit(args, {"type": str(rs.lie_type)}, result, lines)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_rank > MAX_SWEEP_RANK:
        raise ValueError(f"--max-rank {args.max_rank} is above the sweep limit {MAX_SWEEP_RANK}"
                         " (a sweep walks 2^rank flags per series)")
    if args.samples > MAX_SWEEP_SAMPLES:
        raise ValueError(f"--samples {args.samples} is above the sweep limit {MAX_SWEEP_SAMPLES}")
    config = SweepConfig(args.max_rank, args.samples, args.seed, args.checks)
    res = run_sweep(config)

    def result() -> dict:
        return {
            "flags": res.flags,
            "samples": res.samples,
            "checks_run": res.checks_run,
            "ok": res.ok,
            "failures": [_fields_of(f) for f in res.failures],
        }

    def lines() -> Iterator[str]:
        yield (f"sweep: max_rank={config.max_rank} samples={config.samples_per_flag}"
               f" seed={config.seed} checks={','.join(config.checks)}")
        yield f"flags: {res.flags}"
        yield f"samples: {res.samples}"
        yield f"checks run: {res.checks_run}"
        yield f"failures: {len(res.failures)}"
        for f in res.failures:
            yield f"FAIL [{f.check}] {f.flag}: {f.detail}"
            yield f"  reproduce: {f.reproducer}"

    _emit(args, _fields_of(config), result, lines)
    return EXIT_OK if res.ok else EXIT_VERIFY


def _cmd_table(args: argparse.Namespace) -> int:
    if args.max_rank > MAX_TYPE_RANK:
        raise ValueError(f"--max-rank {args.max_rank} is above the rank limit {MAX_TYPE_RANK}")
    family = None if args.family == "all" else args.family
    rows = catalog_rows(args.max_rank, family)
    mismatches = sum(1 for r in rows if not r.match)
    inconsistent = sum(1 for r in rows if not r.family_consistent)
    warnings = sorted({r.note for r in rows if r.note})
    if not rows:
        warnings.append(f"no rows within rank bound {args.max_rank} for family "
                        f"{args.family} (type III starts at rank 6)")

    def result() -> dict:
        return {
            "count": len(rows),
            "mismatches": mismatches,
            "family_inconsistencies": inconsistent,
            "rows": [  # every field, with the type as a token and params as an object
                {k: v for k, v in _fields_of(r).items() if k != "lie_type"}
                | {"type": str(r.lie_type), "params": dict(r.params)}
                for r in rows
            ],
        }

    def lines() -> Iterator[str]:
        header = ("family", "type", "complement", "expected", "computed", "match",
                  "summands", "heights", "group")
        body = [
            (r.family, str(r.lie_type), "{%s}" % ",".join(map(str, r.complement)),
             str(r.expected), str(r.computed), "yes" if r.match else "NO", str(r.summands),
             str(r.heights), r.group)
            for r in rows
        ]
        widths = [max([len(h), *(len(row[k]) for row in body)]) for k, h in enumerate(header)]
        for row in (header, *body):
            yield "  ".join(c.ljust(w) for c, w in zip(row, widths))
        yield (f"rows: {len(rows)}, mismatches: {mismatches}, "
               f"family inconsistencies: {inconsistent}")
        for w in warnings:
            yield f"note: {w}"

    _emit(args, {"family": args.family, "max_rank": args.max_rank}, result, lines, warnings)
    return EXIT_OK if mismatches == 0 and inconsistent == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    """Names a bad choice with its choices quoted, "(choose from 'I',
    'II')", as argparse did up to CPython 3.12.1, on every interpreter;
    CPython 3.13.13 drops the quotes.  And reads a token that starts with
    "-" and a digit, or "-." and a digit, as a value, as argparse does
    from CPython 3.14 on: before that only a plain negative number such
    as -1 or -.5 was one, and ``--beta -1,2`` was refused as a missing
    argument."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: a parse
    leaves no state in it, so every `main` call shares it."""
    parser = _Parser(
        prog="flagtke",
        description=(
            "Exact root-system computations on generalized flag varieties: "
            "twisted Einstein existence, Ricci lower bounds, volumes, "
            "degrees, and classification tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    type_help = "simple type token, e.g. A2, D5, E7"

    sp = sub.add_parser("roots", help="positive roots and Cartan data of a simple type")
    sp.add_argument("type", help=type_help)
    sp.set_defaults(handler=_cmd_roots)

    for name, help_text, class_option, body in _FLAG_COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("type", help=type_help)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--theta", type=_indices_arg,
                       help='Levi node set, e.g. 1,3 (use --theta "" for the full flag)')
        g.add_argument("--complement", type=_indices_arg,
                       help="complement node set, e.g. 4,5 (alternative to --theta)")
        if class_option:
            sp.add_argument(f"--{class_option}", type=_rationals_arg, required=True,
                            help=_CLASS_HELP[class_option])
        sp.set_defaults(handler=_run_flag, body=body, class_option=class_option)

    sp = sub.add_parser("sweep", help="bulk verification over all flags up to a rank bound")
    sp.add_argument("--max-rank", type=_int_arg, default=4)
    sp.add_argument("--samples", type=_int_arg, default=10, help="random classes per flag")
    sp.add_argument("--seed", type=_seed_arg, default=0, help="64-bit PRNG seed")
    sp.add_argument("--checks", type=_checks_arg, default=CHECKS,
                    help="comma list from: " + ",".join(CHECKS))
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("table", help="Picard-rank-two classification rows, verified")
    sp.add_argument("--family", choices=("I", "II", "III", "all"), default="all")
    sp.add_argument("--max-rank", type=_int_arg, default=9)
    sp.set_defaults(handler=_cmd_table)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="print a JSON envelope instead of text")
        sp.add_argument("--units", choices=("2pi", "raw"), default="2pi",
                        help="display units for class coordinates (annotation only; default 2pi)")
        sp.add_argument("--digits", type=_int_arg, default=6,
                        help="significant digits for decimal hints")
        sp.add_argument("--out", metavar="FILE", help="also write the JSON envelope to FILE")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles help/usage itself
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OverflowError as exc:  # a rational token beyond the input bounds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # An exact answer may have more digits than CPython's default limit on
    # int -> str conversion (4300); its size is bounded by the input's.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython >= 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if not 1 <= args.digits <= MAX_DIGITS:
            raise ValueError(f"--digits {args.digits} is outside the accepted range"
                             f" 1 to {MAX_DIGITS}")
        return args.handler(args)
    except (ValueError, OSError) as exc:  # OSError: e.g. --out into a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # an internal check failed, e.g. volume routes disagree
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
