"""Bundled reference tables of monomial curves and their recorded invariants.

Each table lists curves of a fixed genus whose canonical models land on
scrolls, together with the invariants recorded for them: gonality, the
canonical model's exponents, and scroll data.  Surface tables carry a
class label (Gor, NN, K, NG or --), the fiber degree ell and the smaller
scroll dimension m; two-point tables carry m only; threefold tables carry
the two smallest dimensions of the three-dimensional scroll type.

A handful of rows are internally inconsistent: the recorded values cannot
all belong to the curve in the first column.  Those rows carry an
`expect_flag` marker naming the field an audit is expected to report, so
the test suite can insist the audit flags exactly these rows and no
others.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnknownFixture


class FixtureRow(NamedTuple):
    """One recorded table row.

    `canonical` holds the recorded canonical-model exponents exactly as
    printed; matching is up to a common shift and reversal.  Exactly one
    of the structure fields is populated per table family: (`ell`, `m`)
    for surface tables, `m` for two-point tables, `mn` for threefold
    tables.
    """

    exponents: tuple[int, ...]
    gonality: int
    canonical: tuple[int, ...]
    label: str | None = None
    ell: int | None = None
    m: int | None = None
    mn: tuple[int, int] | None = None
    expect_flag: str | None = None


FIXTURES: dict[str, tuple[FixtureRow, ...]] = {
    "surface-g4": (
        FixtureRow((5, 6, 7, 8, 9), 2, (0, 1, 2, 3), label="NN", ell=1, m=0),
        FixtureRow((4, 5, 7, 8), 3, (0, 1, 2, -3), label="K", ell=1, m=0),
        FixtureRow((4, 6, 7, 8, 9), 3, (0, 2, 4, 3), label="NG", ell=2, m=0),
        FixtureRow((3, 7, 8), 3, (0, 1, 3, 4), label="--", ell=1, m=1),
    ),
    "surface-g5": (
        FixtureRow((6, 7, 8, 9, 10, 11), 2, (0, 1, 2, 3, 4), label="NN", ell=1, m=0),
        FixtureRow((5, 7, 8, 9, 10, 11), 3, (0, 1, 2, 3, -2), label="NG", ell=1, m=0),
        FixtureRow((5, 6, 8, 9), 3, (0, 1, 2, 3, -3), label="NG", ell=1, m=0),
        FixtureRow((5, 6, 7, 9, 10), 3, (0, 1, 2, 3, -4), label="K", ell=1, m=0),
        FixtureRow((4, 6, 9, 10, 11), 3, (0, 2, 4, 6, 5), label="NG", ell=2, m=0),
        FixtureRow((4, 5, 10, 11), 3, (0, 1, 2, -4, -3), label="--", ell=1, m=1),
        FixtureRow((5, 7, 8, 9, 10, 11), 3, (0, 2, 4, 3, 5), label="NG", ell=2, m=1),
        FixtureRow(
            (4, 7, 9, 10), 3, (0, 3, 5, 1, 4), label="--", ell=3, m=1,
            expect_flag="ell",
        ),
        FixtureRow((3, 8, 9, 10), 3, (0, 3, 6, 2, 5), label="--", ell=3, m=1),
        FixtureRow((3, 7, 10, 11), 3, (0, 3, 6, 4, 7), label="K", ell=3, m=1),
    ),
    "surface-g6": (
        FixtureRow((7, 8, 9, 10, 11, 12, 13), 2, (0, 1, 2, 3, 4, 5), label="NN", ell=1, m=0),
        FixtureRow((4, 6, 11, 12, 13), 3, (0, 2, 4, 6, 8, 7), label="NG", ell=2, m=0),
        FixtureRow((5, 8, 9, 11, 12), 3, (0, 1, 2, 3, -3, -2), label="--", ell=1, m=1),
        FixtureRow((5, 6, 9, 12, 13), 3, (0, 1, 2, 3, -4, -3), label="--", ell=1, m=1),
        FixtureRow((5, 6, 7), 3, (0, 1, 2, 3, -5, -4), label="--", ell=1, m=1),
        FixtureRow((5, 7, 9, 11, 12, 13), 3, (0, 2, 4, 6, 5, 7), label="NG", ell=2, m=1),
        FixtureRow((3, 8, 12, 13), 3, (0, 3, 6, 9, 5, 8), label="K", ell=3, m=1),
        FixtureRow((4, 9, 10, 11), 3, (0, 1, 2, 4, 5, 6), label="--", ell=1, m=2),
        FixtureRow((3, 10, 11), 3, (0, 3, 6, 1, 4, 7), label="--", ell=3, m=2),
    ),
    "twopoint-g4": (
        FixtureRow((2, 3, 4, 5, 9), 3, (0, 2, 3, 4), m=0),
        FixtureRow((2, 3, 4, 6, 9), 3, (0, 2, 3, 5), m=1),
        FixtureRow((3, 4, 5, 7, 9), 3, (0, 1, 3, 5), m=0),
        FixtureRow((3, 4, 5, 8), 3, (0, 1, 3, 4), m=1),
    ),
    "twopoint-g5": (
        FixtureRow(
            (2, 3, 4, 5, 9), 3, (0, 2, 3, 4, 5), m=0,
            expect_flag="genus",
        ),
        FixtureRow((2, 3, 5, 9), 3, (0, 2, 3, 4, 6), m=0),
        FixtureRow((2, 3, 7, 10), 3, (0, 2, 3, 5, 6), m=1),
        FixtureRow((3, 4, 5, 7, 9, 11), 3, (0, 1, 3, 5, 7), m=0),
        FixtureRow((2, 4, 5, 6, 7, 11), 3, (0, 2, 4, 5, 6), m=0),
        FixtureRow((3, 4, 5, 6, 10), 3, (0, 1, 3, 4, 5), m=1),
        FixtureRow((3, 4, 5, 7, 10), 3, (0, 1, 3, 4, 6), m=1),
        FixtureRow((2, 5, 7, 9, 12), 3, (0, 2, 4, 5, 7), m=1),
    ),
    "threefold-g6": (
        FixtureRow(
            (5, 6, 13, 14), 4, (0, 2, 5, 6, 7, 8), mn=(0, 0),
            expect_flag="genus",
        ),
        FixtureRow((4, 7, 8, 9), 4, (0, 4, 5, 7, 8, 9), mn=(0, 1)),
        FixtureRow((4, 7, 10, 12, 13), 4, (0, 3, 4, 6, 7, 8), mn=(0, 1)),
        FixtureRow((5, 7, 8, 11, 12, 13), 4, (0, 3, 5, 6, 7, 8), mn=(0, 1)),
    ),
    "threefold-g7": (
        FixtureRow((4, 10, 11, 12, 13), 4, (0, 2, 3, 4, 6, 7, 8), mn=(0, 0)),
        FixtureRow((5, 7, 11, 12, 13), 4, (0, 1, 3, 5, 6, 7, 8), mn=(0, 1)),
        FixtureRow((5, 8, 11, 12, 13, 14), 4, (0, 2, 3, 5, 6, 7, 8), mn=(0, 1)),
        FixtureRow((6, 8, 9, 11, 12, 13), 4, (0, 3, 5, 6, 7, 8, 9), mn=(0, 1)),
        FixtureRow((5, 7, 9, 13, 14), 4, (0, 3, 5, 7, 8, 9, 10), mn=(0, 1)),
        FixtureRow(
            (5, 8, 9, 11, 12), 4, (0, 4, 5, 7, 8, 9, 10), mn=(0, 1),
            expect_flag="genus",
        ),
        FixtureRow((6, 8, 9, 10, 12, 13), 4, (0, 4, 6, 7, 8, 9, 10), mn=(0, 1)),
        FixtureRow((5, 8, 9, 10, 11), 4, (0, 5, 6, 8, 9, 10, 11), mn=(0, 1)),
        FixtureRow((4, 7, 12, 13), 4, (0, 1, 4, 5, 7, 8, 9), mn=(0, 2)),
        FixtureRow(
            (4, 9, 14, 15), 4, (0, 3, 4, 5, 7, 8, 9), mn=(0, 2),
            expect_flag="genus",
        ),
        FixtureRow(
            (4, 9, 10, 11, 15), 4, (0, 4, 5, 6, 8, 9, 10), mn=(0, 2),
            expect_flag="genus",
        ),
        FixtureRow((5, 7, 8), 4, (0, 2, 5, 7, 8, 9, 10), mn=(1, 1)),
        FixtureRow(
            (6, 7, 8, 9, 10), 4, (0, 2, 6, 7, 8, 9, 10), mn=(1, 1),
            expect_flag="genus",
        ),
    ),
    "threefold-g8": (
        FixtureRow((4, 10, 13, 14, 15), 4, (0, 2, 4, 5, 6, 8, 9, 10), mn=(0, 0)),
        FixtureRow((6, 8, 11, 13, 14, 15), 4, (0, 1, 3, 5, 6, 7, 8, 9), mn=(0, 1)),
        FixtureRow((6, 8, 9, 12, 13), 4, (0, 1, 4, 6, 7, 8, 9, 10), mn=(0, 1)),
        FixtureRow((6, 9, 10, 13, 14, 16, 17), 4, (0, 3, 4, 6, 7, 8, 9, 10), mn=(0, 1)),
        FixtureRow((6, 8, 10, 11, 14, 15), 4, (0, 4, 6, 8, 9, 10, 11, 12), mn=(0, 1)),
        FixtureRow(
            (6, 9, 10, 11, 13, 14), 4, (0, 5, 6, 8, 9, 10, 11, 12), mn=(0, 1),
            expect_flag="genus",
        ),
        FixtureRow((6, 9, 10, 11, 12, 13), 4, (0, 6, 7, 9, 10, 11, 12, 13), mn=(0, 1)),
        FixtureRow(
            (6, 9, 11, 14, 15, 16), 4, (0, 2, 3, 5, 6, 7, 8, 9), mn=(0, 2),
            expect_flag="genus",
        ),
        FixtureRow((5, 9, 12, 13, 15, 16), 4, (0, 3, 4, 5, 7, 8, 9, 10), mn=(0, 2)),
        FixtureRow((4, 7, 16, 17), 4, (0, 3, 4, 7, 8, 10, 11, 12), mn=(0, 2)),
        FixtureRow(
            (5, 8, 14, 16, 17), 4, (0, 3, 5, 6, 8, 9, 10, 11), mn=(0, 2),
            expect_flag="genus",
        ),
        FixtureRow((5, 9, 11, 13, 16, 17), 4, (0, 4, 5, 6, 8, 9, 10, 11), mn=(0, 2)),
        FixtureRow(
            (5, 6, 13, 14), 4, (0, 4, 5, 6, 9, 10, 11, 12), mn=(0, 2),
            expect_flag="genus",
        ),
        FixtureRow((5, 9, 11, 12), 4, (0, 5, 6, 7, 9, 10, 11, 12), mn=(0, 2)),
        FixtureRow((5, 6, 12, 13), 4, (0, 5, 6, 7, 10, 11, 12, 13), mn=(0, 2)),
        FixtureRow(
            (4, 9, 14, 15), 4, (0, 1, 4, 5, 6, 8, 9, 10), mn=(1, 1),
            expect_flag="mn",
        ),
        FixtureRow((5, 7, 13, 15, 16), 4, (0, 2, 3, 5, 7, 8, 9, 10), mn=(1, 1)),
        FixtureRow(
            (5, 7, 8, 9), 4, (0, 2, 5, 7, 9, 10, 11, 12), mn=(1, 1),
            expect_flag="genus",
        ),
        FixtureRow((4, 10, 11, 16, 17), 4, (0, 4, 6, 7, 8, 10, 11, 12), mn=(1, 1)),
        FixtureRow(
            (4, 9, 10, 11), 4, (0, 4, 7, 8, 9, 11, 12, 13), mn=(1, 1),
            expect_flag="genus",
        ),
        FixtureRow((4, 11, 13, 14), 4, (0, 1, 3, 4, 5, 7, 8, 9), mn=(1, 2)),
        FixtureRow((5, 8, 12, 13, 14), 4, (0, 2, 4, 5, 7, 8, 9, 10), mn=(1, 2)),
    ),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(FIXTURES))


def fixture(name: str) -> tuple[FixtureRow, ...]:
    """Look up a bundled table by name."""
    try:
        return FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise UnknownFixture(f"unknown fixture {name!r}; available: {known}") from None
