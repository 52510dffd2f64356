"""Exception hierarchy shared across the package.

Two kinds of error are raised on purpose.  An argument outside the domain a
function is written for raises a plain ValueError: a nonpositive semigroup
generator or negative genus, an invalid or singular scroll, a Chow
coefficient or formula input that is not an int or is below its range, an
empty exponent set or an out-of-range block count, an unknown render
format.  Everything else derives from ScrollCurvesError, one subclass per
condition: input the mathematics rules out (no generators, exponents not
increasing or not coprime, genus zero, a set that is no K*, a genus that
is not a nonnegative integer), input past a size bound, a scroll dimension
or class the formulas do not cover, an unknown fixture name, and
disagreeing computation paths.  The command line interface catches both
types and exits with code 2.
"""

from __future__ import annotations


class ScrollCurvesError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyGenerators(ScrollCurvesError):
    """A semigroup needs at least one positive generator."""


class GcdNotOne(ScrollCurvesError):
    """Generators (or exponent differences) must be coprime overall."""


class NotIncreasing(ScrollCurvesError):
    """Curve exponents must be strictly increasing and positive."""


class GenusZero(ScrollCurvesError):
    """The canonical linear series is empty for genus zero."""


class NotAValidKappaStar(ScrollCurvesError):
    """A finite set that cannot arise as K* of any numerical semigroup."""


class BoundExceeded(ScrollCurvesError):
    """An input past a size bound: the genus enumeration bound, Schur's
    bound on a branch conductor, or the block splits of `scrolls`."""


class NotTopDimensional(ScrollCurvesError):
    """Degree of a Chow class is only defined in the top graded piece."""


class UnsupportedDimension(ScrollCurvesError):
    """Closed-form Chow computations cover scroll dimensions 2 and 3 only."""


class PathsDisagree(ScrollCurvesError):
    """Independent computation paths returned different values (a bug)."""


class NonIntegralGenus(ScrollCurvesError):
    """An arithmetic-genus formula produced a non-integer."""


class UnknownFixture(ScrollCurvesError):
    """No embedded reference table has the requested name."""
