"""Exception hierarchy shared across the package.

Everything raised on purpose derives from ScrollCurvesError so callers can
catch one type at the boundary (the command line driver does exactly that).
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


class ZeroExponent(ScrollCurvesError):
    """A pencil O<1, t^n> needs a nonzero exponent n."""


class GenusZero(ScrollCurvesError):
    """The canonical linear series is empty for genus zero."""


class NotAValidKappaStar(ScrollCurvesError):
    """A finite set that cannot arise as K* of any numerical semigroup."""


class BoundExceeded(ScrollCurvesError):
    """Genus enumeration was asked to go past its configured bound."""


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
