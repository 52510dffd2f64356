"""A third route to the scroll Euler characteristics: symbolic
Riemann-Roch in sympy, a test-only dependency.

The Chow ring of a smooth d-dimensional scroll of degree e is
Q(e)[H, F] modulo F^2, H^(d+1) and H^d - e H^(d-1) F; sympy reduces by a
Groebner basis of that ideal.  The tangent Chern classes come from the
relative Euler sequence, c(T) = (1 + 2F)((1 + H)^d - e F (1 + H)^(d-1)),
not from the library's table, and ch of the dual of a rank-2 bundle from
Newton's identities on its Chern roots.  Each symbolic chi is a polynomial
of degree at most 3 in every variable, as is each closed form in
`scrollcurves.chow`, so agreeing on a grid of four values per variable
makes them the same polynomial.
"""

from fractions import Fraction
from itertools import product

import pytest

sp = pytest.importorskip("sympy")

from scrollcurves.chow import (
    Ambient,
    DivisorClass,
    RankTwoBundleClass,
    _bundle_chi_dual_numerator,
    _chi_closed_numerator,
    _chi_ring_numerator,
    pa_from_bundle,
)

h, f, e, u, v, w, z, H, F = sp.symbols("h f e u v w z H F")


def graded_part(x, k):
    """The part of x of degree k in H and F."""
    poly = sp.Poly(sp.expand(x), H, F)
    return sum(c * H**i * F**j for (i, j), c in poly.terms() if i + j == k)


def top_degree(x, d):
    """The degree of the dimension-d part of x: its coefficient of
    H^(d-1) F after reduction modulo the scroll's relations."""
    basis = sp.groebner(
        [F**2, H ** (d + 1), H**d - e * H ** (d - 1) * F],
        H,
        F,
        order="lex",
        domain=sp.QQ.frac_field(e),
    )
    _, remainder = sp.reduced(graded_part(x, d), list(basis), H, F, order="lex")
    terms = sp.Poly(remainder, H, F).as_dict()
    assert set(terms) <= {(d - 1, 1)}, terms
    return sp.expand(terms.get((d - 1, 1), 0))


def todd_class(d):
    """td(T) up to degree 3, with c(T) from the relative Euler sequence."""
    total = sp.expand((1 + 2 * F) * ((1 + H) ** d - e * F * (1 + H) ** (d - 1)))
    c1, c2 = graded_part(total, 1), graded_part(total, 2)
    return 1 + c1 / 2 + (c1**2 + c2) / 12 + c1 * c2 / 24


def symbolic_chi(d):
    divisor = h * H + f * F
    ch = sum(divisor**k / sp.factorial(k) for k in range(d + 1))
    return top_degree(ch * todd_class(d), d)


def symbolic_bundle_chi_dual():
    """chi(E^dual) on a threefold, c1(E) = uH + vF and c2(E) = wH^2 + zHF:
    the power sums p_k of the Chern roots by Newton's identities, then
    ch(E^dual) = sum of (-1)^k p_k / k!."""
    c1, c2 = u * H + v * F, w * H**2 + z * H * F
    power_sums = [2, c1]
    for _ in range(2):
        power_sums.append(c1 * power_sums[-1] - c2 * power_sums[-2])
    ch = sum((-1) ** k * p / sp.factorial(k) for k, p in enumerate(power_sums))
    return top_degree(ch * todd_class(3), 3)


def evaluator(expr, variables):
    """expr as a function of ints, evaluated with Fractions."""
    poly = sp.Poly(expr, *variables)
    assert all(poly.degree(x) <= 3 for x in variables), poly
    terms = [
        (powers, Fraction(int(c.p), int(c.q))) for powers, c in poly.terms()
    ]

    def value(*point):
        total = Fraction(0)
        for powers, c in terms:
            for x, k in zip(point, powers):
                c *= x**k
            total += c
        return total

    return value


class TestSympyRoute:
    @pytest.mark.parametrize("d", [2, 3])
    def test_line_bundle_chi(self, d):
        value = evaluator(symbolic_chi(d), (h, f, e))
        for a, b, degree in product(range(-1, 3), range(-1, 3), range(d, d + 4)):
            amb, c = Ambient.balanced(d, degree), DivisorClass(a, b)
            expected = value(a, b, degree) * (12 if d == 2 else 24)
            assert _chi_closed_numerator(amb, c) == expected, (d, a, b, degree)
            assert _chi_ring_numerator(amb, c) == expected, (d, a, b, degree)

    def test_surface_closed_form_spelled_out(self):
        assert symbolic_chi(2) == sp.expand(1 + h + f + h * f + e * h * (h + 1) / 2)

    def test_rank_two_bundle_chi(self):
        value = evaluator(symbolic_bundle_chi_dual(), (u, v, w, z, e))
        for point in product(range(-1, 3), repeat=4):
            for degree in range(3, 7):
                amb = Ambient.balanced(3, degree)
                expected = value(*point, degree)
                numerator = _bundle_chi_dual_numerator(amb, RankTwoBundleClass(*point))
                assert numerator == 24 * expected

    def test_bundle_genus_linear_form(self):
        """The genus of `pa_from_bundle` is the form linear in the curve
        degree we + z and the fiber count w, on a threefold scroll spanning
        P^n with n = e + 2: its expanded closed form equals the form
        symbolically, so does the resolution route chi(E^dual) -
        chi(det E^dual) in sympy, and the library agrees on a grid."""
        n = e + 2
        linear = 1 + ((u - 3) * (w * e + z) + w * (v + n - 4)) / 2
        expanded = 1 + ((e * (u - 2) + v - 2) * w + (u - 3) * z) / 2
        assert sp.expand(expanded - linear) == 0
        resolution = symbolic_bundle_chi_dual() - symbolic_chi(3).subs({h: -u, f: -v})
        assert sp.expand(resolution - linear) == 0
        value = evaluator(sp.expand(linear), (u, v, w, z, e))
        checked = 0
        for point in product(range(-1, 4), repeat=4):
            for degree in range(3, 6):
                expected = value(*point, degree)
                if expected.denominator == 1:
                    amb = Ambient.balanced(3, degree)
                    assert pa_from_bundle(amb, RankTwoBundleClass(*point)) == expected
                    checked += 1
        assert checked > 0
