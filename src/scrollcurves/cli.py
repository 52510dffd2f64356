"""Command line interface.

Subcommands cover the whole pipeline: analyze, canonical, gonality and
scrolls inspect a single curve given by its exponents; catalog enumerates
curves by genus; audit recomputes a bundled reference table; formula
evaluates the intersection-theoretic closed forms directly.

Exit codes: 0 success, 1 usage error (a malformed command line, or an
--out file that cannot be written), 2 validation error (bad domain input),
3 audit discrepancy under --strict.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from .catalog import audit_fixture, build_catalog, format_exponents, render, row_for_curve
from .checks import check_scroll_correspondence
from .chow import Ambient, DivisorClass, RankTwoBundleClass, euler_characteristic, pa_from_bundle
from .curves import SCHUR_BOUND_LIMIT, canonical_exponents, gonality, make_curve
from .errors import BoundExceeded, ScrollCurvesError, UnsupportedDimension
from .fixtures import fixture_names
from .scrolls import SPLIT_LIMIT, min_scroll_dimension, scroll_structures, split_count

USAGE_ERROR = 1
VALIDATION_ERROR = 2
AUDIT_DISCREPANCY = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures reported as exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _exponents(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _genus_range(text: str) -> range:
    try:
        if ".." in text:
            low, high = text.split("..", 1)
            return range(int(low), int(high) + 1)
        g = int(text)
        return range(g, g + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a genus like 6 or a range like 4..8, got {text!r}"
        ) from None


def _refuse_unwritable(out: str) -> None:
    """Raise an OSError naming `out` when it plainly cannot be written, so
    that a catalog is refused before it is built, and create or change no
    file: an existing path must be a writable file, a new one needs an
    existing, writable directory.  Opening the file afterwards can still
    fail (a full disk, say), and is reported the same way."""
    if os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.exists(out):
        code = 0 if os.access(out, os.W_OK) else errno.EACCES
    else:
        directory = os.path.dirname(out) or os.curdir
        if not os.path.isdir(directory):
            code = errno.ENOENT
        else:
            code = 0 if os.access(directory, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_analyze(args) -> int:
    row = row_for_curve(make_curve(args.exponents, SCHUR_BOUND_LIMIT))
    if args.format == "json":
        print(json.dumps(row.to_dict(), separators=(",", ":")))
    else:
        sys.stdout.write(render([row], "markdown"))
    return 0


def _cmd_canonical(args) -> int:
    curve = make_curve(args.exponents, SCHUR_BOUND_LIMIT)
    print(format_exponents(canonical_exponents(curve)))
    return 0


def _cmd_gonality(args) -> int:
    """Print the gonality after checking it against the scroll dimension of
    the canonical model, as every catalog row does; nothing else of the
    row is computed."""
    curve = make_curve(args.exponents, SCHUR_BOUND_LIMIT)
    gon = gonality(curve)
    msd = min_scroll_dimension(canonical_exponents(curve))
    check_scroll_correspondence(curve.exponents, curve.genus, gon, msd)
    print(gon)
    return 0


def _cmd_scrolls(args) -> int:
    """Print the scroll structures of each dimension up to --max-dim,
    refused first when their block splits pass SPLIT_LIMIT.  The splits,
    which grow combinatorially with the dimension, are summed one dimension
    at a time, so a huge --max-dim is refused within a few dimensions."""
    curve = make_curve(args.exponents, SCHUR_BOUND_LIMIT)
    canon = canonical_exponents(curve)
    msd = min_scroll_dimension(canon)
    depths = range(msd, min(args.max_dim, len(canon)) + 1)
    splits = 0
    for d in depths:
        splits += split_count(canon, d)
        if splits > SPLIT_LIMIT:
            raise BoundExceeded(
                f"scroll structures up to dimension {depths[-1]} take more than "
                f"{SPLIT_LIMIT} block splits"
            )
    print("canonical exponents:", " ".join(map(str, canon)))
    print("min scroll dimension:", msd)
    for d in depths:
        for s in scroll_structures(canon, d):
            dims = ",".join(map(str, s.scroll_type.dims))
            blocks = "|".join(",".join(map(str, b)) for b in s.blocks)
            print(f"d={d} step={s.step} ell={s.ell} dims=({dims}) blocks={blocks}")
    return 0


def _cmd_catalog(args) -> int:
    if args.out:
        _refuse_unwritable(args.out)
    rows = build_catalog(
        args.genus,
        non_gorenstein=args.non_gorenstein,
        scroll_dim=args.scroll_dim,
    )
    _write(render(rows, args.format), args.out)
    return 0


def _cmd_audit(args) -> int:
    report = audit_fixture(args.fixture)
    sys.stdout.write(render(report, "markdown"))
    if args.strict and report.flagged:
        return AUDIT_DISCREPANCY
    return 0


def _cmd_formula_chi(args) -> int:
    # refused before the scroll, whose type has d entries, is built
    if args.d not in (2, 3):
        raise UnsupportedDimension(f"closed-form chi needs d in {{2, 3}}, got d={args.d}")
    ambient = Ambient.balanced(args.d, args.e)
    print(euler_characteristic(ambient, DivisorClass(args.h, args.f)))
    return 0


def _cmd_formula_pa_bundle(args) -> int:
    ambient = Ambient.balanced(3, args.e)
    bundle = RankTwoBundleClass(args.u, args.v, args.w, args.z)
    print(pa_from_bundle(ambient, bundle))
    return 0


def _add_exponents(parser) -> None:
    parser.add_argument(
        "--exponents",
        type=_exponents,
        required=True,
        metavar="A1,A2,...",
        help="curve exponents, comma separated",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scrollcurves",
        description="invariants, canonical models, and scroll geometry "
        "of monomial curves",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("analyze", help="full invariant record of one curve")
    _add_exponents(p)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("canonical", help="canonical model of one curve")
    _add_exponents(p)
    p.set_defaults(handler=_cmd_canonical)

    p = sub.add_parser("gonality", help="gonality of one curve")
    _add_exponents(p)
    p.set_defaults(handler=_cmd_gonality)

    p = sub.add_parser("scrolls", help="scroll structures of the canonical model")
    _add_exponents(p)
    p.add_argument("--max-dim", type=int, default=3, metavar="D")
    p.set_defaults(handler=_cmd_scrolls)

    p = sub.add_parser("catalog", help="enumerate curves by genus")
    p.add_argument(
        "--genus",
        type=_genus_range,
        required=True,
        metavar="G or A..B",
        help="single genus or inclusive range",
    )
    p.add_argument("--non-gorenstein", action="store_true")
    p.add_argument("--scroll-dim", type=int, default=None, metavar="D")
    p.add_argument("--format", choices=("json", "csv", "markdown", "md"), default="json")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("audit", help="recompute a bundled reference table")
    p.add_argument("--fixture", required=True,
                   help="table name: " + ", ".join(fixture_names()))
    p.add_argument("--strict", action="store_true",
                   help="exit with code 3 if any row is flagged")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("formula", help="evaluate intersection-theory formulas")
    formula_sub = p.add_subparsers(dest="formula", required=True, metavar="FORMULA")

    q = formula_sub.add_parser("chi", help="Euler characteristic of hH+fF on a scroll")
    q.add_argument("--d", type=int, required=True, help="scroll dimension")
    q.add_argument("--e", type=int, required=True, help="scroll degree")
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--f", type=int, required=True)
    q.set_defaults(handler=_cmd_formula_chi)

    q = formula_sub.add_parser(
        "pa-bundle", help="arithmetic genus from rank-2 Chern data on a threefold"
    )
    q.add_argument("--e", type=int, required=True, help="scroll degree")
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--w", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q.set_defaults(handler=_cmd_formula_pa_bundle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process.

    Building the tree costs about a millisecond, which matters only to a
    process that calls `main` many times (a test suite, a benchmark); a
    one-shot command line process builds it once either way and gains
    nothing.  `build_parser` stays uncached for callers that want a fresh
    tree.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except (ScrollCurvesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
