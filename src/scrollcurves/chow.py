"""Intersection theory on smooth rational normal scrolls.

The Chow ring of a smooth d-dimensional scroll of degree e is generated by
the hyperplane class H and the fiber class F subject to F^2 = 0,
H^(d+1) = 0, H^d F = 0 and H^d = e H^(d-1) F.  It is graded by
codimension, free of rank 2 on H^k and H^(k-1) F in each codimension
1 <= k <= d - 1 and of rank 1 in codimensions 0 and d.  Every class the
routes below form is homogeneous, so a class is a plain tuple (k, a, b),
meaning a H^k + b H^(k-1) F, and two classes of one codimension add
entrywise.  `chow_class` is the one checked constructor: it refuses a
cone, then any entry that is not an int (a Fraction, float or string)
with a ValueError, then a codimension outside [0, d], and folds H^d into
e H^(d-1) F, so a codimension-d class is (d, 0, degree).  `chow_mul`
multiplies two such classes in closed form, checking only the
smoothness.  `Ambient`, `Ambient.balanced`, `h0_class`,
`euler_characteristic`, `pa_from_bundle` and the genus formulas refuse a
non-int argument with the constructor's text.
A scroll's dimension d and degree e are set once, when its `Ambient` (a
small immutable slotted class, hashed by its type) is built;
`Ambient.balanced` hands out one shared scroll per (d, e), and the tangent
terms (c1, c2, c1^2 + c2 and the Todd degree) are formed once per scroll,
through the ring, and shared by both ring routes.  On top of the ring sit
the closed-form Euler characteristics for surfaces and threefolds, rank-2
bundle computations and arithmetic-genus formulas; divisor and bundle
classes are named tuples.
Every closed form and ring route is an integer numerator over its
dimension's fixed denominator, 12 on a surface and 24 on a threefold (the
Todd and Chern character denominators 2, 6, 12 and 24 all divide it).
Every quantity with more than one natural derivation is computed along all
of them and the numerators are compared exactly.  A chi is always an
integer; a bundle genus is one when its numerator is divisible.  A Fraction
is built only for the reduced value an error prints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from .errors import (
    NonIntegralGenus,
    NotTopDimensional,
    PathsDisagree,
    UnsupportedDimension,
)


class Ambient:
    """A rational normal scroll of type (m_1 <= ... <= m_d), with its
    dimension `d` and degree `e` = m_1 + ... + m_d; each m_i must be an
    int (a float, Fraction or string is refused, not rounded).

    Immutable, with equality, hash and repr by `dims` alone; `d` and `e`,
    read on every ring operation, are plain slots set once."""

    __slots__ = ("dims", "d", "e")

    def __init__(self, dims) -> None:
        dims = tuple(dims)
        _require_ints(*dims)
        dims = tuple(sorted(dims))
        if not dims or dims[0] < 0:
            raise ValueError(f"invalid scroll type {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "d", len(dims))
        object.__setattr__(self, "e", sum(dims))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return f"Ambient(dims={self.dims})"

    def __reduce__(self):
        return Ambient, (self.dims,)

    @property
    def ambient_dimension(self) -> int:
        return self.e + self.d - 1

    @property
    def smooth(self) -> bool:
        return self.dims[0] >= 1

    @classmethod
    @lru_cache(maxsize=256, typed=True)
    def balanced(cls, d: int, e: int) -> "Ambient":
        """The scroll of dimension d and degree e with dims as equal as
        possible; d and e must be ints and d at least 1.  Each (d, e) gets
        one shared scroll, from a bounded cache whose keys keep the argument
        types; a refused call is not cached."""
        _require_ints(d, e)
        if d < 1:
            raise ValueError(f"a scroll needs dimension d >= 1, got {d}")
        base, extra = divmod(e, d)
        return cls((base,) * (d - extra) + (base + 1,) * extra)


class DivisorClass(NamedTuple):
    """The divisor class h*H + f*F."""

    h: int
    f: int


class RankTwoBundleClass(NamedTuple):
    """Chern data of a rank-2 bundle: c1 = uH + vF, c2 = wH^2 + zHF."""

    u: int
    v: int
    w: int
    z: int

    @classmethod
    def from_curve_data(cls, u: int, v: int, ell: int, degree: int, n: int) -> "RankTwoBundleClass":
        """Chern data whose second class is a curve of the given degree
        meeting a fiber ell times, inside a scroll spanning P^n."""
        return cls(u, v, ell, degree - ell * (n - 2))


def _require_smooth(amb: Ambient) -> None:
    if not amb.smooth:
        raise ValueError(f"Chow operations need a smooth scroll, got {amb.dims}")


def _require_ints(*values) -> None:
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"Chow operations need integers, got {v!r}")


def chow_class(amb: Ambient, k: int, h: int, f: int) -> tuple[int, int, int]:
    """The class h H^k + f H^(k-1) F of codimension k, as (k, h, f), on a
    smooth scroll; k, h and f must be ints, 0 <= k <= d, and f must be 0
    at k = 0.  At k = d the class is folded to (d, 0, e h + f)."""
    _require_smooth(amb)
    _require_ints(k, h, f)
    d = amb.d
    if not 0 <= k <= d:
        raise ValueError(
            f"a class on a scroll of dimension {d} needs codimension 0..{d}, got {k}"
        )
    if k == 0 and f:
        raise ValueError(f"a codimension-0 class has no fiber part, got f={f}")
    if k == d:
        return d, 0, amb.e * h + f
    return k, h, f


def chow_mul(amb: Ambient, x: tuple, y: tuple) -> tuple[int, int, int]:
    """The product of two classes made by `chow_class` or `chow_mul`:
    (a H^k + b H^(k-1) F)(c H^l + f H^(l-1) F) is ac H^(k+l) +
    (af + bc) H^(k+l-1) F, as F^2 = 0; at k + l = d, H^d = e H^(d-1) F
    folds it to (d, 0, e ac + af + bc), and past d it is zero.  Only the
    scroll's smoothness is checked: the constructor checked the entries."""
    _require_smooth(amb)
    (k, a, b), (l, c, f) = x, y
    n, d = k + l, amb.d
    if n < d:
        return n, a * c, a * f + b * c
    if n == d:
        return d, 0, amb.e * a * c + a * f + b * c
    return n, 0, 0


def chow_degree(amb: Ambient, x: tuple) -> int:
    """The degree of a codimension-d class, its coefficient of the point
    class H^(d-1) F; 0 for a zero class of any codimension, and
    NotTopDimensional for any other class."""
    k, a, b = x
    if a == 0 and (k == amb.d or b == 0):
        return b
    raise NotTopDimensional(f"class {x} is not top-dimensional on a scroll of dimension {amb.d}")


def h0_class(amb: Ambient, c: DivisorClass) -> tuple[int, bool]:
    """Global sections of O(hH + fF), with a flag for vanishing of all
    higher cohomology.

    The bundle pushes down to a sum of line bundles on the base line, one
    per degree-h monomial in the scroll type, so the count is the clipped
    sum of their section counts.  For h >= 0 and f >= -h*m_1 - 1 this
    agrees with the closed form
    (f + 1) C(h + d - 1, d - 1) + e C(h + d - 1, d).
    """
    _require_smooth(amb)
    _require_ints(*c)
    a, b = c.h, c.f
    m1 = amb.dims[0]
    vanishing = a >= 0 and b >= -(a * m1 + 1)
    if a < 0:
        return 0, vanishing
    value = sum(
        max(0, b + sum(combo) + 1)
        for combo in combinations_with_replacement(amb.dims, a)
    )
    if b >= -a * m1 - 1:
        d, e = amb.d, amb.e
        closed = (b + 1) * comb(a + d - 1, d - 1) + e * comb(a + d - 1, d)
        if closed != value:
            raise PathsDisagree(f"section count {value} vs closed form {closed}")
    return value, vanishing


class _Tangent(NamedTuple):
    """The tangent-bundle terms of the Riemann-Roch expansions on one
    scroll: c1, c2, c1^2 + c2, and the integer Todd degree (the degree of
    c1^2 + c2 on a surface, of c1 c2 on a threefold)."""

    c1: tuple
    c2: tuple
    c1sq_plus_c2: tuple
    todd: int


@lru_cache(maxsize=256)
def _tangent(amb: Ambient) -> _Tangent:
    """The tangent terms of a smooth scroll with d in {2, 3}, formed once
    per scroll through the ring.  Only the ring routes read them."""
    e = amb.e
    if amb.d == 2:
        c1 = chow_class(amb, 1, 2, 2 - e)
        c2 = chow_class(amb, 2, 0, 4)
    elif amb.d == 3:
        c1 = chow_class(amb, 1, 3, 2 - e)
        c2 = chow_class(amb, 2, 3, 6 - 2 * e)
    else:
        raise UnsupportedDimension(
            f"tangent Chern classes coded for d=2,3 only, got d={amb.d}"
        )
    c1sq = chow_mul(amb, c1, c1)
    c1sq_plus_c2 = (2, c1sq[1] + c2[1], c1sq[2] + c2[2])
    todd = chow_degree(amb, c1sq_plus_c2 if amb.d == 2 else chow_mul(amb, c1, c2))
    return _Tangent(c1, c2, c1sq_plus_c2, todd)


# the common denominator of the chi numerators, by scroll dimension
_CHI_DENOMINATOR = {2: 12, 3: 24}


def _chi_closed_numerator(amb: Ambient, c: DivisorClass) -> int:
    """12 chi(O(hH + fF)) on a surface, 24 chi on a threefold, by the
    closed form: an integer polynomial over 2 (d = 2) or 6 (d = 3).  The
    callers have checked that d is 2 or 3."""
    h, f, e = c.h, c.f, amb.e
    if amb.d == 2:
        return 6 * (2 + 2 * h + 2 * f + 2 * h * f + e * h * (h + 1))
    return 4 * (
        6
        + (2 * e + 9) * h
        + 6 * f
        + 3 * (e + 1) * h ** 2
        + 9 * h * f
        + e * h ** 3
        + 3 * h ** 2 * f
    )


def _chi_ring_numerator(amb: Ambient, c: DivisorClass) -> int:
    """12 chi or 24 chi through the Chow ring (the Riemann-Roch
    expansion), as an independent route to the closed form: the integer
    degrees of the expansion over their common denominator."""
    tangent = _tangent(amb)
    dd = chow_class(amb, 1, c.h, c.f)
    if amb.d == 2:
        _, h, f = tangent.c1
        return 6 * chow_degree(amb, chow_mul(amb, dd, (1, c.h + h, c.f + f))) + tangent.todd
    d2 = chow_mul(amb, dd, dd)
    d3 = chow_mul(amb, d2, dd)
    return (
        4 * chow_degree(amb, d3)
        + 6 * chow_degree(amb, chow_mul(amb, d2, tangent.c1))
        + 2 * chow_degree(amb, chow_mul(amb, dd, tangent.c1sq_plus_c2))
        + tangent.todd
    )


def euler_characteristic(amb: Ambient, c: DivisorClass) -> int:
    """chi(O(hH + fF)) by the closed form, verified against the Chow-ring
    route; the two must agree and the result must be an integer.

    For an integer class it always is.  On a surface chi is
    (2 + 2h + 2f + 2hf + e h (h + 1)) / 2, and h (h + 1) is even.  On a
    threefold it is N / 6 with N = 6 + (2e + 9) h + 6f + 3 (e + 1) h^2 +
    9hf + e h^3 + 3 h^2 f.  Mod 2, N is congruent to h (h + 1) +
    e h^2 (h + 1) + hf (h + 1), even since h (h + 1) is.  Mod 3, N is
    congruent to e h^3 - e h = e (h - 1) h (h + 1), which holds a product
    of three consecutive integers.  A class with any other entry, such as
    H / 2, is refused with a ValueError, after the smoothness and
    dimension checks."""
    _require_smooth(amb)
    den = _CHI_DENOMINATOR.get(amb.d)
    if den is None:
        raise UnsupportedDimension(f"closed-form chi needs d in {{2, 3}}, got d={amb.d}")
    _require_ints(*c)
    closed = _chi_closed_numerator(amb, c)
    ring = _chi_ring_numerator(amb, c)
    if closed != ring:
        from fractions import Fraction

        raise PathsDisagree(
            f"chi closed form {Fraction(closed, den)} vs ring evaluation "
            f"{Fraction(ring, den)} on {amb.dims}, class {c}"
        )
    return closed // den


def _bundle_chi_dual_numerator(amb: Ambient, b: RankTwoBundleClass) -> int:
    """24 chi(E^dual) of a rank-2 bundle on a threefold, by the closed form
    and, checked against it, through the ring."""
    if amb.d != 3:
        raise UnsupportedDimension("rank-2 bundle chi is coded for threefolds only")
    _require_smooth(amb)
    u, v, w, z = b.u, b.v, b.w, b.z
    e = amb.e
    closed = 4 * (
        12
        - (2 * e + 9) * u
        - 6 * v
        - 6 * (e + 1) * w
        - 9 * z
        + 3 * (e + 1) * u ** 2
        + 9 * u * v
        + 3 * e * u * w
        + 3 * u * z
        + 3 * v * w
        - e * u ** 3
        - 3 * u ** 2 * v
    )
    # independent route: the degree-3 piece of ch(dual E) * Todd, formed
    # times 24 as 2 t1 t2 - 2 c1 (t1^2 + t2) + 6 (c1^2 - 2 c2) t1
    # - 4 (c1^3 - 3 c1 c2) with t1, t2 the tangent classes; every term is
    # top-dimensional, so the sum is one of integer degrees
    c1 = chow_class(amb, 1, u, v)
    c2 = chow_class(amb, 2, w, z)
    c1sq = chow_mul(amb, c1, c1)
    c1sq_minus_2c2 = (2, c1sq[1] - 2 * w, c1sq[2] - 2 * z)
    tangent = _tangent(amb)
    ring = (
        2 * tangent.todd
        - 2 * chow_degree(amb, chow_mul(amb, c1, tangent.c1sq_plus_c2))
        + 6 * chow_degree(amb, chow_mul(amb, c1sq_minus_2c2, tangent.c1))
        - 4 * chow_degree(amb, chow_mul(amb, c1sq, c1))
        + 12 * chow_degree(amb, chow_mul(amb, c1, c2))
    )
    if closed != ring:
        from fractions import Fraction

        raise PathsDisagree(
            f"bundle chi closed form {Fraction(closed, 24)} vs ring evaluation "
            f"{Fraction(ring, 24)}"
        )
    return closed


def pa_from_bundle(amb: Ambient, b: RankTwoBundleClass) -> int:
    """Arithmetic genus of the curve cut out by a rank-2 bundle on a
    threefold scroll, computed along three independent paths that must
    agree exactly, each as 24 times the genus:

    the expanded closed form, which is 1 + ((u - 3) D + (v + e - 2) w)/2
    in the curve degree D = we + z and the fiber count w; the
    structure-sheaf resolution (chi of the dual bundle, itself checked
    against the ring, minus chi of the dual determinant); and the Chow
    product c2(E).(K + c1(E)).
    """
    if amb.d != 3:
        raise UnsupportedDimension("the genus formula is coded for threefolds only")
    _require_smooth(amb)
    _require_ints(*b)
    u, v, w, z = b.u, b.v, b.w, b.z
    e = amb.e
    path_a = 24 + 12 * ((e * (u - 2) + v - 2) * w + (u - 3) * z)
    path_b = _bundle_chi_dual_numerator(amb, b) - _chi_closed_numerator(
        amb, DivisorClass(-u, -v)
    )
    c2e = chow_class(amb, 2, w, z)
    adjoint = chow_class(amb, 1, u - 3, v + e - 2)
    path_c = 24 + 12 * chow_degree(amb, chow_mul(amb, c2e, adjoint))
    if not (path_a == path_b == path_c):
        from fractions import Fraction

        raise PathsDisagree(
            "genus paths disagree: "
            + ", ".join(str(Fraction(p, 24)) for p in (path_a, path_b, path_c))
        )
    if path_a % 24:
        from fractions import Fraction

        raise NonIntegralGenus(
            f"bundle data {b} yields genus {Fraction(path_a, 24)}; no such curve exists"
        )
    return path_a // 24


def genus_on_surface(degree: int, n: int, ell: int) -> int:
    """Arithmetic genus of a degree-`degree` curve on a smooth surface
    scroll spanning P^n, meeting a fiber ell times (see `genus_on_cone`
    for the cone over a rational normal curve).

    Twice the genus less 2 is (2 ell - 2) degree - (n - 1) ell^2 +
    (n - 3) ell, always even, so the genus is an integer: the first term is
    even, and so is the rest, termwise for even ell and congruent to
    (n - 1) - (n - 3) = 2 mod 2 for odd ell.  The genus is checked against
    chi of the ideal sheaf; a negative one means no such curve, and raises
    NonIntegralGenus."""
    _require_ints(degree, n, ell)
    if degree < 1 or n < 3 or ell < 1:
        raise ValueError("a surface scroll curve needs degree >= 1, n >= 3, ell >= 1")
    twice = (2 * ell - 2) * degree - (n - 1) * ell ** 2 + (n - 3) * ell
    pa = (twice + 2) // 2
    cross = euler_characteristic(
        Ambient.balanced(2, n - 1), DivisorClass(-ell, -(degree - ell * (n - 1)))
    )
    if pa != cross:
        raise PathsDisagree(f"genus formula {pa} vs chi route {cross}")
    if pa < 0:
        raise NonIntegralGenus(f"inputs give negative genus {pa}")
    return pa


def genus_on_cone(degree: int, n: int) -> int:
    """Arithmetic genus of a degree-`degree` curve on the cone over a
    rational normal curve spanning P^n.

    With q = ceil(degree / (n - 1)) the genus is (q - 1)(degree - 1) -
    q (q - 1)(n - 1) / 2, an integer since q (q - 1) is even, and never
    negative: it is (q - 1)(degree - 1 - q (n - 1) / 2), which is 0 for
    q = 1, and for q >= 2 degree >= (q - 1)(n - 1) + 1 makes the second
    factor at least (q - 2)(n - 1) / 2 >= 0."""
    _require_ints(degree, n)
    if degree < 1 or n < 3:
        raise ValueError("a curve on a cone needs degree >= 1, n >= 3")
    q = -(-degree // (n - 1))
    return (q - 1) * (degree - 1) - q * (q - 1) * (n - 1) // 2
