"""Command line interface.

Subcommands cover the whole pipeline: analyze, canonical, gonality and
scrolls inspect a single curve given by its exponents; catalog enumerates
curves by genus; audit recomputes a bundled reference table; formula
evaluates the intersection-theoretic closed forms directly.

At import the module loads only the errors of the package.  Each
subcommand's parser is built when its command is parsed, so a process
that runs one command builds one parser (and only `audit` loads the
fixture table names), and each command's handler imports the layers it
runs, so `canonical` never loads the catalog, nor `formula` the curves.

Exit codes: 0 success, 1 usage error (a malformed command line, or an
--out file that cannot be written), 2 validation error (bad domain input),
3 audit discrepancy under --strict.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from .errors import BoundExceeded, ScrollCurvesError, UnsupportedDimension

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
    import json

    from . import catalog, curves

    row = catalog.row_for_curve(curves.make_curve(args.exponents, curves.SCHUR_BOUND_LIMIT))
    if args.format == "json":
        print(json.dumps(row.to_dict(), separators=(",", ":")))
    else:
        sys.stdout.write(catalog.render([row], "markdown"))
    return 0


def _cmd_canonical(args) -> int:
    from . import curves

    curve = curves.make_curve(args.exponents, curves.SCHUR_BOUND_LIMIT)
    print(curves.format_exponents(curves.canonical_exponents(curve)))
    return 0


def _cmd_gonality(args) -> int:
    """Print the gonality after checking it against the scroll dimension of
    the canonical model, as every catalog row does; nothing else of the
    row is computed."""
    from . import checks, curves, scrolls

    curve = curves.make_curve(args.exponents, curves.SCHUR_BOUND_LIMIT)
    gon = curves.gonality(curve)
    msd = scrolls.min_scroll_dimension(curves.canonical_exponents(curve))
    checks.check_scroll_correspondence(curve.exponents, curve.genus, gon, msd)
    print(gon)
    return 0


def _cmd_scrolls(args) -> int:
    """Print the scroll structures of each dimension up to --max-dim,
    refused first when their block splits pass SPLIT_LIMIT.  The splits,
    which grow combinatorially with the dimension, are summed one dimension
    at a time, so a huge --max-dim is refused within a few dimensions."""
    from . import curves, scrolls

    curve = curves.make_curve(args.exponents, curves.SCHUR_BOUND_LIMIT)
    canon = curves.canonical_exponents(curve)
    msd = scrolls.min_scroll_dimension(canon)
    depths = range(msd, min(args.max_dim, len(canon)) + 1)
    splits = 0
    for d in depths:
        splits += scrolls.split_count(canon, d)
        if splits > scrolls.SPLIT_LIMIT:
            raise BoundExceeded(
                f"scroll structures up to dimension {depths[-1]} take more than "
                f"{scrolls.SPLIT_LIMIT} block splits"
            )
    print("canonical exponents:", " ".join(map(str, canon)))
    print("min scroll dimension:", msd)
    for d in depths:
        for s in scrolls.scroll_structures(canon, d):
            dims = ",".join(map(str, s.scroll_type.dims))
            blocks = "|".join(",".join(map(str, b)) for b in s.blocks)
            print(f"d={d} step={s.step} ell={s.ell} dims=({dims}) blocks={blocks}")
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog

    if args.out:
        _refuse_unwritable(args.out)
    rows = catalog.build_catalog(
        args.genus,
        non_gorenstein=args.non_gorenstein,
        scroll_dim=args.scroll_dim,
    )
    _write(catalog.render(rows, args.format), args.out)
    return 0


def _cmd_audit(args) -> int:
    from . import catalog

    report = catalog.audit_fixture(args.fixture)
    sys.stdout.write(catalog.render(report, "markdown"))
    if args.strict and report.flagged:
        return AUDIT_DISCREPANCY
    return 0


def _cmd_formula_chi(args) -> int:
    from . import chow

    # refused before the scroll, whose type has d entries, is built
    if args.d not in (2, 3):
        raise UnsupportedDimension(f"closed-form chi needs d in {{2, 3}}, got d={args.d}")
    ambient = chow.Ambient.balanced(args.d, args.e)
    print(chow.euler_characteristic(ambient, chow.DivisorClass(args.h, args.f)))
    return 0


def _cmd_formula_pa_bundle(args) -> int:
    from . import chow

    ambient = chow.Ambient.balanced(3, args.e)
    bundle = chow.RankTwoBundleClass(args.u, args.v, args.w, args.z)
    print(chow.pa_from_bundle(ambient, bundle))
    return 0


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when their command is parsed.

    `choices` maps each name to the function that adds its arguments, so
    argparse refuses an unknown name with its own message, and each help
    line is a pseudo-action from the start, so `--help` lists every
    command; a process that runs one command builds one parser."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choices = {}

    def add_command(self, name: str, help: str, add_arguments) -> None:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self.choices[name] = add_arguments

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if name not in self._name_parser_map:
            self.choices[name](self.add_parser(name))
        super().__call__(parser, namespace, values, option_string)


def _add_exponents(parser) -> None:
    parser.add_argument(
        "--exponents",
        type=_exponents,
        required=True,
        metavar="A1,A2,...",
        help="curve exponents, comma separated",
    )


def _analyze_arguments(p) -> None:
    _add_exponents(p)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(handler=_cmd_analyze)


def _canonical_arguments(p) -> None:
    _add_exponents(p)
    p.set_defaults(handler=_cmd_canonical)


def _gonality_arguments(p) -> None:
    _add_exponents(p)
    p.set_defaults(handler=_cmd_gonality)


def _scrolls_arguments(p) -> None:
    _add_exponents(p)
    p.add_argument("--max-dim", type=int, default=3, metavar="D")
    p.set_defaults(handler=_cmd_scrolls)


def _catalog_arguments(p) -> None:
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


def _audit_arguments(p) -> None:
    from .fixtures import fixture_names

    p.add_argument("--fixture", required=True,
                   help="table name: " + ", ".join(fixture_names()))
    p.add_argument("--strict", action="store_true",
                   help="exit with code 3 if any row is flagged")
    p.set_defaults(handler=_cmd_audit)


def _formula_arguments(p) -> None:
    sub = p.add_subparsers(action=_Commands, dest="formula", required=True, metavar="FORMULA")
    sub.add_command("chi", "Euler characteristic of hH+fF on a scroll", _chi_arguments)
    sub.add_command(
        "pa-bundle",
        "arithmetic genus from rank-2 Chern data on a threefold",
        _pa_bundle_arguments,
    )


def _chi_arguments(q) -> None:
    q.add_argument("--d", type=int, required=True, help="scroll dimension")
    q.add_argument("--e", type=int, required=True, help="scroll degree")
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--f", type=int, required=True)
    q.set_defaults(handler=_cmd_formula_chi)


def _pa_bundle_arguments(q) -> None:
    q.add_argument("--e", type=int, required=True, help="scroll degree")
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--w", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q.set_defaults(handler=_cmd_formula_pa_bundle)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scrollcurves",
        description="invariants, canonical models, and scroll geometry "
        "of monomial curves",
    )
    sub = parser.add_subparsers(
        action=_Commands, dest="command", required=True, metavar="COMMAND"
    )
    sub.add_command("analyze", "full invariant record of one curve", _analyze_arguments)
    sub.add_command("canonical", "canonical model of one curve", _canonical_arguments)
    sub.add_command("gonality", "gonality of one curve", _gonality_arguments)
    sub.add_command("scrolls", "scroll structures of the canonical model", _scrolls_arguments)
    sub.add_command("catalog", "enumerate curves by genus", _catalog_arguments)
    sub.add_command("audit", "recompute a bundled reference table", _audit_arguments)
    sub.add_command("formula", "evaluate intersection-theory formulas", _formula_arguments)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process.

    The top parser costs about 1.8 ms the first time in a process, most
    of it argparse's first use, and 0.17 ms after that; a subcommand's
    parser, built when its command is first parsed, about 0.2 ms (2-core
    Xeon, Python 3.11).  Keeping them matters only to a process that calls
    `main` many times (a test suite, a benchmark); a one-shot command line
    process builds each once either way and gains nothing.  `build_parser`
    stays uncached for callers that want a fresh tree.
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
