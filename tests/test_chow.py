"""Tests for the intersection-theory module.

The graded ring, whose class (k, a, b) is a H^k + b H^(k-1) F, and its
closed forms, integer numerators over 12 on a surface and 24 on a
threefold, are held to the Fraction-dict ring they replaced, kept below as
test-local copies (`ref_*`): hypothesis compares each class and product
with its dict image {(k, 0): a, (k - 1, 1): b}, and both closed forms, both
ring routes and the genus, on random smooth scrolls.
`test_chow_sympy.py` adds a symbolic third route.  The two scroll-statement
reports of `scrollcurves.checks`, which apply these formulas to a curve
record, are tested at the end on real records.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrollcurves import chow as chow_module
from scrollcurves.chow import (
    Ambient,
    DivisorClass,
    RankTwoBundleClass,
    _bundle_chi_dual_numerator,
    _chi_closed_numerator,
    _chi_ring_numerator,
    _tangent,
    chow_class,
    chow_degree,
    chow_mul,
    euler_characteristic,
    genus_on_cone,
    genus_on_surface,
    h0_class,
    pa_from_bundle,
)
from scrollcurves.catalog import build_catalog
from scrollcurves.checks import surface_scroll_report, threefold_bundle_report
from scrollcurves.curves import analyze, make_curve
from scrollcurves.errors import (
    NonIntegralGenus,
    NotTopDimensional,
    PathsDisagree,
    UnsupportedDimension,
)
from scrollcurves.scrolls import ScrollStructure, scroll_structures


def split_bundle(a: int, b: int, c: int, d: int) -> RankTwoBundleClass:
    """Chern data of O(aH + bF) + O(cH + dF)."""
    return RankTwoBundleClass(a + c, b + d, a * c, a * d + b * c)


# The library's chi routes are integer numerators over these denominators.
DENOMINATOR = {2: 12, 3: 24}


def chi_ring(amb, c):
    return Fraction(_chi_ring_numerator(amb, c), DENOMINATOR[amb.d])


def bundle_chi(amb, b):
    return Fraction(_bundle_chi_dual_numerator(amb, b), 24)


# The Fraction-dict ring: every coefficient is coerced to a Fraction, and
# each route sums Fractions term by term.


def ref_chow_element(amb, coefficients):
    out = {}
    for (i, j), c in coefficients.items():
        c = Fraction(c)
        if c == 0 or j >= 2 or i > amb.d:
            continue
        if i == amb.d:
            if j == 1:
                continue
            i, j, c = amb.d - 1, 1, c * amb.e
        key = (i, j)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def ref_chow_mul(amb, x, y):
    raw = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            key = (i1 + i2, j1 + j2)
            raw[key] = raw.get(key, Fraction(0)) + c1 * c2
    return ref_chow_element(amb, raw)


def ref_degree(amb, x):
    assert set(x) <= {(amb.d - 1, 1)}, x
    return x.get((amb.d - 1, 1), Fraction(0))


def ref_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def ref_scale(x, s):
    s = Fraction(s)
    return {k: v * s for k, v in x.items() if v * s != 0}


def ref_chern_classes(amb):
    e = amb.e
    if amb.d == 2:
        return (
            ref_chow_element(amb, {(1, 0): 2, (0, 1): 2 - e}),
            ref_chow_element(amb, {(1, 1): 4}),
        )
    return (
        ref_chow_element(amb, {(1, 0): 3, (0, 1): 2 - e}),
        ref_chow_element(amb, {(2, 0): 3, (1, 1): 6 - 2 * e}),
    )


def ref_canonical_class(amb):
    """K = -c1 of the tangent bundle: -d H + (e - 2) F."""
    return DivisorClass(-amb.d, amb.e - 2)


def ref_chi_closed_form(amb, c):
    h, f, e = Fraction(c.h), Fraction(c.f), amb.e
    if amb.d == 2:
        return 1 + h + f + h * f + Fraction(e, 2) * h * (h + 1)
    return (
        1
        + Fraction(2 * e + 9, 6) * h
        + f
        + Fraction(e + 1, 2) * h ** 2
        + Fraction(3, 2) * h * f
        + Fraction(e, 6) * h ** 3
        + Fraction(1, 2) * h ** 2 * f
    )


def ref_chi_ring(amb, c):
    c1, c2 = ref_chern_classes(amb)
    dd = ref_chow_element(amb, {(1, 0): c.h, (0, 1): c.f})
    if amb.d == 2:
        shifted = ref_chow_element(amb, {(1, 0): c.h + 2, (0, 1): c.f + 2 - amb.e})
        main = ref_degree(amb, ref_chow_mul(amb, dd, shifted)) / 2
        todd = (ref_degree(amb, ref_chow_mul(amb, c1, c1)) + ref_degree(amb, c2)) / 12
        return main + todd
    d2 = ref_chow_mul(amb, dd, dd)
    d3 = ref_chow_mul(amb, d2, dd)
    c1sq_plus_c2 = ref_add(ref_chow_mul(amb, c1, c1), c2)
    return (
        ref_degree(amb, d3) / 6
        + ref_degree(amb, ref_chow_mul(amb, d2, c1)) / 4
        + ref_degree(amb, ref_chow_mul(amb, dd, c1sq_plus_c2)) / 12
        + ref_degree(amb, ref_chow_mul(amb, c1, c2)) / 24
    )


def ref_bundle_chi_closed_form(amb, b):
    u, v, w, z = (Fraction(t) for t in (b.u, b.v, b.w, b.z))
    e = amb.e
    return (
        2
        - Fraction(2 * e + 9, 6) * u
        - v
        - (e + 1) * w
        - Fraction(3, 2) * z
        + Fraction(e + 1, 2) * u ** 2
        + Fraction(3, 2) * u * v
        + Fraction(e, 2) * u * w
        + Fraction(1, 2) * u * z
        + Fraction(1, 2) * v * w
        - Fraction(e, 6) * u ** 3
        - Fraction(1, 2) * u ** 2 * v
    )


def ref_bundle_chi_ring(amb, b):
    """The degree-3 piece of ch(dual E) * Todd, each class scaled by its
    own Fraction."""
    c1 = ref_chow_element(amb, {(1, 0): b.u, (0, 1): b.v})
    c2 = ref_chow_element(amb, {(2, 0): b.w, (1, 1): b.z})
    c1sq = ref_chow_mul(amb, c1, c1)
    ch2 = ref_scale(ref_add(c1sq, ref_scale(c2, -2)), Fraction(1, 2))
    ch3 = ref_scale(
        ref_add(ref_chow_mul(amb, c1sq, c1), ref_scale(ref_chow_mul(amb, c1, c2), -3)),
        Fraction(-1, 6),
    )
    t1, t2 = ref_chern_classes(amb)
    td1 = ref_scale(t1, Fraction(1, 2))
    td2 = ref_scale(ref_add(ref_chow_mul(amb, t1, t1), t2), Fraction(1, 12))
    td3 = ref_scale(ref_chow_mul(amb, t1, t2), Fraction(1, 24))
    total = ref_add(
        ref_add(ref_scale(td3, 2), ref_chow_mul(amb, ref_scale(c1, -1), td2)),
        ref_add(ref_chow_mul(amb, ch2, td1), ch3),
    )
    return total.get((2, 1), Fraction(0))


def smooth_ambients(ds=(2, 3)):
    return st.sampled_from(ds).flatmap(
        lambda d: st.lists(st.integers(1, 8), min_size=d, max_size=d).map(Ambient)
    )


small = st.integers(-30, 30)


def homogeneous(d):
    """Entries (k, h, f) of a class of codimension k in [0, d]: f is 0 at
    k = 0, and small values let a sum cancel at k = d."""
    return st.integers(0, d).flatmap(
        lambda k: st.tuples(
            st.just(k), st.integers(-4, 4), st.integers(-4, 4) if k else st.just(0)
        )
    )


# a smooth scroll of dimension 1 to 4 with two homogeneous classes on it
scroll_and_two_classes = smooth_ambients((1, 2, 3, 4)).flatmap(
    lambda amb: st.tuples(st.just(amb), homogeneous(amb.d), homogeneous(amb.d))
)


def image(x):
    """The dict {(k, 0): a, (k - 1, 1): b} of a class (k, a, b), without
    zero entries."""
    k, a, b = x
    return {key: c for key, c in (((k, 0), a), ((k - 1, 1), b)) if c}


class TestAmbient:
    def test_balanced(self):
        assert Ambient.balanced(2, 5).dims == (2, 3)
        assert Ambient.balanced(2, 5) is Ambient.balanced(2, 5)
        assert Ambient.balanced.cache_parameters() == {"maxsize": 256, "typed": True}
        assert Ambient.balanced(3, 3).dims == (1, 1, 1)
        assert Ambient.balanced(3, 7).dims == (2, 2, 3)
        for d in (0, -1):
            with pytest.raises(ValueError, match="dimension d >= 1"):
                Ambient.balanced(d, 3)

    def test_invariants(self):
        amb = Ambient((1, 2, 3))
        assert amb.d == 3
        assert amb.e == 6
        assert amb.ambient_dimension == 8

    def test_dims_sorted(self):
        assert Ambient((3, 1, 2)).dims == (1, 2, 3)
        assert Ambient(m for m in (3, 1, 2)).dims == (1, 2, 3)

    def test_smoothness(self):
        assert Ambient((1, 1)).smooth
        assert not Ambient((0, 2)).smooth
        assert not Ambient.balanced(3, 2).smooth

    def test_ops_require_smooth(self):
        cone = Ambient((0, 3))
        with pytest.raises(ValueError, match="smooth scroll"):
            chow_class(cone, 1, 1, 0)
        # chow_mul checks the scroll itself, on classes it did not build
        with pytest.raises(ValueError, match="smooth scroll"):
            chow_mul(cone, (1, 1, 0), (1, 0, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Ambient((-1, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6),
           st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_d_and_e_set_once_and_dims_the_only_field(self, dims, other):
        amb = Ambient(dims)
        assert (amb.d, amb.e) == (len(dims), sum(dims))
        moved = Ambient(tuple(other))
        assert (moved.d, moved.e) == (len(other), sum(other))
        # equality, hash and repr read dims alone
        assert repr(amb) == f"Ambient(dims={tuple(sorted(dims))})"
        assert (moved == amb) == (sorted(other) == sorted(dims))
        assert (moved != amb) == (sorted(other) != sorted(dims))
        same = Ambient(list(reversed(dims)))
        assert same == amb and hash(same) == hash(amb)
        assert amb != tuple(sorted(dims)) and amb.__eq__(amb.dims) is NotImplemented
        assert len({amb, same, moved}) == (1 if moved == amb else 2)
        for twin in (copy.copy(amb), copy.deepcopy(amb), pickle.loads(pickle.dumps(amb))):
            assert twin == amb and (twin.d, twin.e) == (amb.d, amb.e)
        with pytest.raises(AttributeError):
            amb.e = amb.e + 1
        with pytest.raises(AttributeError):
            amb.extra = 1
        with pytest.raises(AttributeError):
            del amb.dims
        assert (amb.d, amb.e) == (len(dims), sum(dims))


class TestRingNormalForm:
    def test_top_power_rewrites(self):
        amb = Ambient((1, 1, 1))
        assert chow_class(amb, 3, 1, 0) == (3, 0, 3)
        assert all(type(c) is int for c in chow_class(amb, 3, 1, 0))
        # H^3 - 3 H^2 F cancels to the zero class
        assert chow_class(amb, 3, 1, -3) == (3, 0, 0)

    def test_vanishing_monomials(self):
        amb = Ambient((1, 1, 1))
        h, f = chow_class(amb, 1, 1, 0), chow_class(amb, 1, 0, 1)
        h3 = chow_class(amb, 3, 1, 0)
        # H^3 F, F^2 and H^4
        for x, y in ((h3, f), (f, f), (h3, h)):
            product = chow_mul(amb, x, y)
            assert product[1:] == (0, 0) and chow_degree(amb, product) == 0

    def test_fiber_squares_to_zero(self):
        amb = Ambient((2, 2))
        f = chow_class(amb, 1, 0, 1)
        assert chow_mul(amb, f, f) == (2, 0, 0)

    def test_hyperplane_cube_degree(self):
        amb = Ambient((1, 1, 1))
        h = chow_class(amb, 1, 1, 0)
        h2 = chow_mul(amb, h, h)
        assert chow_degree(amb, chow_mul(amb, h2, h)) == 3

    def test_hyperplane_square_fiber(self):
        amb = Ambient((1, 1, 1))
        h = chow_class(amb, 1, 1, 0)
        h2 = chow_mul(amb, h, h)
        assert chow_degree(amb, chow_mul(amb, h2, chow_class(amb, 1, 0, 1))) == 1

    def test_surface_divisor_product(self):
        amb = Ambient.balanced(2, 4)
        d = chow_class(amb, 1, 2, 3)
        assert chow_degree(amb, chow_mul(amb, d, chow_class(amb, 1, 1, 0))) == 11

    def test_degree_rejects_mixed(self):
        amb = Ambient((1, 1))
        with pytest.raises(NotTopDimensional):
            chow_degree(amb, chow_class(amb, 1, 1, 0))
        with pytest.raises(NotTopDimensional):
            chow_degree(amb, chow_class(amb, 1, 0, 1))

    def test_mul_degree_none_when_not_top(self):
        amb = Ambient((1, 1, 1))
        h = chow_class(amb, 1, 1, 0)
        product = chow_mul(amb, h, h)
        assert product == (2, 1, 0)
        with pytest.raises(NotTopDimensional) as info:
            chow_degree(amb, product)
        assert str(info.value) == (
            "class (2, 1, 0) is not top-dimensional on a scroll of dimension 3"
        )

    @pytest.mark.parametrize(
        "dims, k, f, text",
        [
            ((1, 2), -1, 0, "a class on a scroll of dimension 2 needs codimension 0..2, got -1"),
            ((1, 2), 3, 0, "a class on a scroll of dimension 2 needs codimension 0..2, got 3"),
            ((1, 1, 1), 4, 1, "a class on a scroll of dimension 3 needs codimension 0..3, got 4"),
            ((1, 1, 1), 0, 1, "a codimension-0 class has no fiber part, got f=1"),
        ],
    )
    def test_codimension_outside_range_refused(self, dims, k, f, text):
        with pytest.raises(ValueError) as info:
            chow_class(Ambient(dims), k, 1, f)
        assert str(info.value) == text
        # the cone's refusal comes first
        with pytest.raises(ValueError, match="smooth scroll"):
            chow_class(Ambient((0,) + dims[1:]), k, 1, f)


class TestSections:
    def test_hyperplane_sections_span(self):
        for dims in [(1, 2), (1, 1, 1), (2, 3), (1, 2, 4)]:
            amb = Ambient(dims)
            value, vanishing = h0_class(amb, DivisorClass(1, 0))
            assert value == amb.ambient_dimension + 1
            assert vanishing

    def test_trivial_class(self):
        amb = Ambient((1, 2))
        assert h0_class(amb, DivisorClass(0, 0)) == (1, True)

    def test_negative_twist_vanishes(self):
        amb = Ambient((1, 2))
        value, vanishing = h0_class(amb, DivisorClass(-1, 4))
        assert (value, vanishing) == (0, False)
        value, vanishing = h0_class(amb, DivisorClass(2, -6))
        assert (value, vanishing) == (0, False)

    def test_vanishing_boundary(self):
        amb = Ambient((1, 2))
        assert h0_class(amb, DivisorClass(1, -1)) == (3, True)
        assert h0_class(amb, DivisorClass(1, -2)) == (1, True)
        assert h0_class(amb, DivisorClass(1, -3)) == (0, False)
        assert h0_class(amb, DivisorClass(2, -3)) == (3, True)

    def test_canonical_class(self):
        assert ref_canonical_class(Ambient.balanced(2, 4)) == DivisorClass(-2, 2)
        assert ref_canonical_class(Ambient((1, 1, 1))) == DivisorClass(-3, 1)
        for amb in (Ambient.balanced(2, 4), Ambient((1, 1, 1)), Ambient((1, 2, 3))):
            k = ref_canonical_class(amb)
            # K is minus the c1 both ring routes use, and Serre duality
            # chi(K - D) = (-1)^d chi(D) holds for the library's chi
            assert chow_class(amb, 1, -k.h, -k.f) == _tangent(amb).c1
            for h in range(-3, 4):
                for f in range(-3, 4):
                    c = DivisorClass(h, f)
                    dual = DivisorClass(k.h - h, k.f - f)
                    assert euler_characteristic(amb, dual) == (
                        (-1) ** amb.d * euler_characteristic(amb, c)
                    )


class TestEulerCharacteristic:
    def test_threefold_spot_values(self):
        amb = Ambient((1, 1, 1))
        assert euler_characteristic(amb, DivisorClass(1, 0)) == 6
        assert euler_characteristic(amb, DivisorClass(1, 1)) == 9

    def test_structure_sheaf(self):
        for dims in [(1, 1), (2, 3), (1, 1, 1), (1, 2, 3)]:
            assert euler_characteristic(Ambient(dims), DivisorClass(0, 0)) == 1

    def test_matches_section_count_under_vanishing(self):
        for dims in [(1, 2), (1, 1, 2), (2, 2)]:
            amb = Ambient(dims)
            for h in range(0, 3):
                for f in range(-h * amb.dims[0], 4):
                    value, vanishing = h0_class(amb, DivisorClass(h, f))
                    if vanishing:
                        assert euler_characteristic(amb, DivisorClass(h, f)) == value

    def test_closed_form_matches_ring_sweep(self):
        for d in (2, 3):
            for e in range(d, 9):
                amb = Ambient.balanced(d, e)
                for h in range(-5, 6):
                    for f in range(-5, 6):
                        c = DivisorClass(h, f)
                        assert euler_characteristic(amb, c) == chi_ring(amb, c)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            euler_characteristic(Ambient((1, 1, 1, 1)), DivisorClass(1, 0))

    @settings(max_examples=300, deadline=None)
    @given(smooth_ambients(), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_integer_classes_have_integer_chi(self, amb, h, f):
        """The proof in `euler_characteristic`: chi of an integer class is
        an integer, so it never raises NonIntegralGenus."""
        c = DivisorClass(h, f)
        value = euler_characteristic(amb, c)
        assert type(value) is int and value == ref_chi_closed_form(amb, c)


class TestBundleChi:
    def test_trivial_bundle(self):
        amb = Ambient((1, 1, 1))
        b = RankTwoBundleClass(0, 0, 0, 0)
        assert bundle_chi(amb, b) == ref_bundle_chi_ring(amb, b) == 2

    def test_split_example(self):
        amb = Ambient((1, 1, 1))
        b = RankTwoBundleClass(4, 0, 4, 0)
        assert bundle_chi(amb, b) == ref_bundle_chi_ring(amb, b) == 0
        assert euler_characteristic(amb, DivisorClass(-2, 0)) == 0

    def test_split_additivity(self):
        for dims in [(1, 1, 1), (1, 2, 2), (1, 1, 3)]:
            amb = Ambient(dims)
            for a in range(0, 3):
                for b in range(-2, 3):
                    for c in range(0, 3):
                        for d in range(-2, 3):
                            total = bundle_chi(amb, split_bundle(a, b, c, d))
                            assert total.denominator == 1
                            parts = euler_characteristic(
                                amb, DivisorClass(-a, -b)
                            ) + euler_characteristic(amb, DivisorClass(-c, -d))
                            assert total == parts

    def test_surface_rejected(self):
        with pytest.raises(UnsupportedDimension):
            _bundle_chi_dual_numerator(Ambient((1, 2)), RankTwoBundleClass(1, 0, 0, 0))


class TestBundleGenus:
    def test_plane_conic_data(self):
        amb = Ambient((1, 1, 1))
        assert pa_from_bundle(amb, RankTwoBundleClass(2, 0, 1, 0)) == 0

    def test_non_integral_rejected(self):
        amb = Ambient((1, 1, 1))
        with pytest.raises(NonIntegralGenus):
            pa_from_bundle(amb, RankTwoBundleClass(2, 1, 1, 0))

    def test_paths_agree_on_split_bundles(self):
        for dims in [(1, 1, 1), (1, 2, 3)]:
            amb = Ambient(dims)
            for a in range(1, 5):
                for c in range(1, 5):
                    for b in range(-5, 6):
                        for d in range(-5, 6):
                            bundle = split_bundle(a, b, c, d)
                            value = pa_from_bundle(amb, bundle)
                            assert isinstance(value, int)

    def test_canonical_tetragonal_family(self):
        for g in range(6, 41):
            amb = Ambient.balanced(3, g - 3)
            bundle = RankTwoBundleClass.from_curve_data(
                4, -(g - 5), 4, 2 * g - 2, g - 1
            )
            assert bundle.w == 4
            assert bundle.z == 10 - 2 * g
            assert pa_from_bundle(amb, bundle) == g


class TestIntegerRingOracle:
    """The graded integer ring against the Fraction-dict copies above, in
    value; every divisor, bundle and twist coefficient is in [-30, 30], and
    every entry of a random homogeneous class in [-4, 4]."""

    @settings(max_examples=200, deadline=None)
    @given(scroll_and_two_classes)
    def test_chow_element_int_inputs_stay_ints(self, drawn):
        amb, x, _ = drawn
        element = chow_class(amb, *x)
        assert image(element) == ref_chow_element(amb, image(x))
        assert all(type(c) is int for c in element)

    @settings(max_examples=300, deadline=None)
    @given(scroll_and_two_classes)
    # H^2 = 3 HF on S(1, 2) cancels -3 HF: the product is the zero class
    @example((Ambient((1, 2)), (0, 1, 0), (2, 1, -3)))
    # H^2 on P^1 x P^1 is 2 HF, and H F + F H adds 2 more
    @example((Ambient((1, 1)), (1, 1, 1), (1, 1, 1)))
    def test_graded_product_matches_dict_ring(self, drawn):
        """`chow_mul` and `chow_degree` on homogeneous classes of scrolls of
        dimension 1 to 4 equal the dict ring on their images."""
        amb, x, y = drawn
        x, y = chow_class(amb, *x), chow_class(amb, *y)
        product = chow_mul(amb, x, y)
        expected = ref_chow_mul(amb, image(x), image(y))
        assert image(product) == expected
        assert product[0] == x[0] + y[0] and all(type(c) is int for c in product)
        if set(expected) <= {(amb.d - 1, 1)}:
            degree = chow_degree(amb, product)
            assert type(degree) is int and degree == ref_degree(amb, expected)
        else:
            with pytest.raises(NotTopDimensional):
                chow_degree(amb, product)

    @settings(max_examples=200, deadline=None)
    @given(smooth_ambients(), small, small, small, small)
    def test_integer_degree_is_an_int(self, amb, h1, f1, h2, f2):
        x = chow_class(amb, 1, h1, f1)
        for _ in range(amb.d - 2):
            x = chow_mul(amb, x, chow_class(amb, 1, 1, 0))
        product = chow_mul(amb, x, chow_class(amb, 1, h2, f2))
        degree = chow_degree(amb, product)
        assert type(degree) is int
        ref_x = ref_chow_element(amb, {(1, 0): h1, (0, 1): f1})
        for _ in range(amb.d - 2):
            ref_x = ref_chow_mul(amb, ref_x, ref_chow_element(amb, {(1, 0): 1}))
        ref_y = ref_chow_element(amb, {(1, 0): h2, (0, 1): f2})
        assert degree == ref_degree(amb, ref_chow_mul(amb, ref_x, ref_y))

    @settings(max_examples=300, deadline=None)
    @given(smooth_ambients(), small, small)
    def test_chi_routes(self, amb, h, f):
        c = DivisorClass(h, f)
        closed = _chi_closed_numerator(amb, c)
        ring = _chi_ring_numerator(amb, c)
        assert type(closed) is int and type(ring) is int
        assert Fraction(closed, DENOMINATOR[amb.d]) == ref_chi_closed_form(amb, c)
        assert Fraction(ring, DENOMINATOR[amb.d]) == ref_chi_ring(amb, c)

    @settings(max_examples=300, deadline=None)
    @given(smooth_ambients((3,)), small, small, small, small)
    def test_bundle_chi_routes(self, amb, u, v, w, z):
        b = RankTwoBundleClass(u, v, w, z)
        expected = ref_bundle_chi_closed_form(amb, b)
        assert ref_bundle_chi_ring(amb, b) == expected
        numerator = _bundle_chi_dual_numerator(amb, b)
        assert type(numerator) is int and Fraction(numerator, 24) == expected

    @settings(max_examples=300, deadline=None)
    @given(smooth_ambients((3,)), small, small, small, small)
    def test_genus_matches_resolution_route(self, amb, u, v, w, z):
        b = RankTwoBundleClass(u, v, w, z)
        expected = ref_bundle_chi_ring(amb, b) - ref_chi_ring(amb, DivisorClass(-u, -v))
        if expected.denominator != 1:
            with pytest.raises(NonIntegralGenus):
                pa_from_bundle(amb, b)
        else:
            assert pa_from_bundle(amb, b) == expected


class TestIntegerInputOnly:
    """Every Chow entry point refuses a value that is not an int with the
    ring's ValueError, naming the value; on a cone the smoothness text
    comes first."""

    def test_chow_element_refuses_non_int_coefficients(self):
        # a zero of another type is refused too, in every entry of a class
        for value in (Fraction(1, 2), 0.5, "1/2", Fraction(0), 2.0):
            for entries in ((value, 1, 0), (1, value, 0), (1, 1, value)):
                with pytest.raises(ValueError) as info:
                    chow_class(Ambient((1, 1)), *entries)
                assert str(info.value) == f"Chow operations need integers, got {value!r}"
                with pytest.raises(ValueError) as info:
                    chow_class(Ambient((0, 2)), *entries)
                assert str(info.value) == "Chow operations need a smooth scroll, got (0, 2)"

    @pytest.mark.parametrize(
        "function, args, shown",
        [
            (genus_on_cone, (4.0, 3), "4.0"),
            (genus_on_cone, (4, Fraction(3)), "Fraction(3, 1)"),
            (h0_class, (Ambient((1, 1)), DivisorClass(1, Fraction(1, 2))), "Fraction(1, 2)"),
            (h0_class, (Ambient((1, 2)), DivisorClass(2.0, 0)), "2.0"),
            (genus_on_surface, (4.0, 3, 1), "4.0"),
            (genus_on_surface, (4, 3.0, 1), "3.0"),
            (genus_on_surface, (4, 3, Fraction(1)), "Fraction(1, 1)"),
            (euler_characteristic, (Ambient((1, 1)), DivisorClass(2.0, 1)), "2.0"),
            (euler_characteristic, (Ambient((1, 2, 3)), DivisorClass(1, 0.5)), "0.5"),
            (pa_from_bundle, (Ambient((1, 1, 1)), RankTwoBundleClass(2, 0, Fraction(1), 0)),
             "Fraction(1, 1)"),
            (pa_from_bundle, (Ambient((1, 1, 1)), RankTwoBundleClass(2, 0.0, 1, 0)), "0.0"),
            (euler_characteristic, (Ambient((1, 1)), DivisorClass("1", 0)), "'1'"),
            (pa_from_bundle, (Ambient((1, 1, 1)), RankTwoBundleClass("1", 0, 1, 0)), "'1'"),
        ],
    )
    def test_entry_points_refuse_non_int_arguments(self, function, args, shown):
        with pytest.raises(ValueError) as info:
            function(*args)
        assert str(info.value) == f"Chow operations need integers, got {shown}"

    @pytest.mark.parametrize(
        "dims, shown",
        [
            ((1.5, 2.7), "1.5"),
            ((2.0, 1), "2.0"),
            ((1, Fraction(2)), "Fraction(2, 1)"),
            (("1", 2), "'1'"),
            ((2, "x"), "'x'"),
        ],
    )
    def test_ambient_refuses_non_int_entries(self, dims, shown):
        with pytest.raises(ValueError) as info:
            Ambient(dims)
        assert str(info.value) == f"Chow operations need integers, got {shown}"

    @pytest.mark.parametrize(
        "d, e, shown",
        [
            (2, 2.0, "2.0"),
            (2.0, 2, "2.0"),
            (2, Fraction(5), "Fraction(5, 1)"),
            (Fraction(3), 6, "Fraction(3, 1)"),
            ("2", 2, "'2'"),
            (2, "5", "'5'"),
        ],
    )
    def test_balanced_refuses_non_int_arguments(self, d, e, shown):
        # an equal int key in the typed cache must not answer for the refused call
        Ambient.balanced(int(d), int(e))
        before = Ambient.balanced.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                Ambient.balanced(d, e)
            assert str(info.value) == f"Chow operations need integers, got {shown}"
        # both refused calls missed: the first left nothing for the second to hit
        after = Ambient.balanced.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)

    def test_cone_refusal_comes_first(self):
        half = Fraction(1, 2)
        for function, amb, argument in (
            (euler_characteristic, Ambient((0, 1)), DivisorClass(half, 0)),
            (h0_class, Ambient((0, 2)), DivisorClass(1, half)),
            (pa_from_bundle, Ambient((0, 1, 1)), RankTwoBundleClass(2, 0, half, 0)),
        ):
            with pytest.raises(ValueError) as info:
                function(amb, argument)
            assert str(info.value) == f"Chow operations need a smooth scroll, got {amb.dims}"


class TestTangentTerms:
    """The tangent terms are formed once per scroll and shared by both
    ring routes; no call may change them."""

    def test_repeated_calls_leave_the_cached_terms(self):
        for amb in (Ambient((1, 2)), Ambient.balanced(2, 7), Ambient((1, 1, 1)), Ambient((1, 2, 3))):
            _tangent.cache_clear()
            classes = [DivisorClass(h, f) for h in (-2, 0, 3) for f in (-1, 2)]
            bundles = [split_bundle(1, -1, 2, 0), split_bundle(2, 1, 3, -2)]

            def values():
                chis = [euler_characteristic(amb, c) for c in classes]
                if amb.d == 3:
                    return chis, [pa_from_bundle(amb, b) for b in bundles]
                return chis, []

            first = values()
            assert first[0] == [ref_chi_ring(amb, c) for c in classes]
            for _ in range(3):
                assert values() == first
            info = _tangent.cache_info()
            assert info.misses == 1 and info.hits == 4 * len(classes) + 4 * len(first[1]) - 1
            tangent = _tangent(amb)
            c1, c2 = ref_chern_classes(amb)
            assert (image(tangent.c1), image(tangent.c2)) == (c1, c2)
            c1sq = ref_chow_mul(amb, c1, c1)
            assert image(tangent.c1sq_plus_c2) == ref_add(c1sq, c2)
            todd = ref_degree(amb, ref_add(c1sq, c2) if amb.d == 2 else ref_chow_mul(amb, c1, c2))
            assert type(tangent.todd) is int and tangent.todd == todd

    def test_equal_scrolls_share_one_entry(self):
        assert _tangent(Ambient((2, 1, 1))) is _tangent(Ambient((1, 1, 2)))


class TestErrorTexts:
    """The exact texts of the refusals: a disagreement is forced by
    switching one route off, and every value is printed reduced."""

    def off_by_one_todd(self, monkeypatch):
        real = chow_module._tangent
        monkeypatch.setattr(
            chow_module, "_tangent", lambda amb: real(amb)._replace(todd=real(amb).todd + 1)
        )

    @pytest.mark.parametrize(
        "dims, c, text",
        [
            (
                (1, 1, 1),
                DivisorClass(1, 1),
                "chi closed form 9 vs ring evaluation 217/24 on (1, 1, 1), "
                "class DivisorClass(h=1, f=1)",
            ),
            (
                (1, 2),
                DivisorClass(1, 0),
                "chi closed form 5 vs ring evaluation 61/12 on (1, 2), "
                "class DivisorClass(h=1, f=0)",
            ),
        ],
    )
    def test_chi_routes_disagree(self, monkeypatch, dims, c, text):
        self.off_by_one_todd(monkeypatch)
        with pytest.raises(PathsDisagree) as info:
            euler_characteristic(Ambient(dims), c)
        assert str(info.value) == text

    @pytest.mark.parametrize(
        "bundle, text",
        [
            (RankTwoBundleClass(2, 0, 1, 0), "bundle chi closed form 0 vs ring evaluation 1/12"),
            (RankTwoBundleClass(2, 1, 1, 0), "bundle chi closed form 1/2 vs ring evaluation 7/12"),
        ],
    )
    def test_bundle_chi_routes_disagree(self, monkeypatch, bundle, text):
        self.off_by_one_todd(monkeypatch)
        with pytest.raises(PathsDisagree) as info:
            pa_from_bundle(Ambient((1, 1, 1)), bundle)
        assert str(info.value) == text

    def test_genus_paths_disagree(self, monkeypatch):
        """The Chow-product path reads K + c1(E) with one fiber too many."""
        amb, bundle = Ambient((1, 1, 1)), RankTwoBundleClass(2, 0, 1, 0)
        assert pa_from_bundle(amb, bundle) == 0
        real = chow_module.chow_class

        def shifted(amb, k, h, f):
            if (k, h, f) == (1, -1, 1):
                f = 2
            return real(amb, k, h, f)

        monkeypatch.setattr(chow_module, "chow_class", shifted)
        with pytest.raises(PathsDisagree) as info:
            pa_from_bundle(amb, bundle)
        assert str(info.value) == "genus paths disagree: 0, 0, 1/2"

    def test_surface_genus_disagrees_with_chi(self, monkeypatch):
        real = chow_module.euler_characteristic
        monkeypatch.setattr(chow_module, "euler_characteristic", lambda amb, c: real(amb, c) + 1)
        with pytest.raises(PathsDisagree) as info:
            genus_on_surface(3, 3, 1)
        assert str(info.value) == "genus formula 0 vs chi route 1"

    def test_non_integral_texts(self):
        with pytest.raises(NonIntegralGenus) as info:
            pa_from_bundle(Ambient((1, 1, 1)), RankTwoBundleClass(2, 1, 1, 0))
        assert str(info.value) == (
            "bundle data RankTwoBundleClass(u=2, v=1, w=1, z=0) yields genus 1/2; "
            "no such curve exists"
        )
        # chi(H / 2) would be 9/4 on S(1, 1); the ring refuses the class
        with pytest.raises(ValueError) as info:
            euler_characteristic(Ambient((1, 1)), DivisorClass(Fraction(1, 2), 0))
        assert str(info.value) == "Chow operations need integers, got Fraction(1, 2)"


class TestGenusFormulas:
    def test_twisted_cubic(self):
        assert genus_on_surface(3, 3, 1) == 0

    def test_canonical_trigonal_family(self):
        for g in range(6, 41):
            assert genus_on_surface(2 * g - 2, g - 1, 3) == g

    def test_cone_quartic(self):
        assert genus_on_cone(4, 3) == 1

    def test_elliptic_on_quadric(self):
        assert genus_on_surface(4, 3, 2) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(3, 80), st.integers(1, 30))
    def test_genus_formulas_are_integral_and_the_cone_nonnegative(self, degree, n, ell):
        """Twice the surface genus less 2 is even, and the cone's genus is an
        integer and never negative, so neither formula has a parity or
        (on the cone) a sign to refuse; only a negative surface genus is."""
        twice = (2 * ell - 2) * degree - (n - 1) * ell ** 2 + (n - 3) * ell
        assert twice % 2 == 0
        surface = Fraction(twice + 2, 2)
        if surface < 0:
            with pytest.raises(NonIntegralGenus, match="negative genus"):
                genus_on_surface(degree, n, ell)
        else:
            assert genus_on_surface(degree, n, ell) == surface
        q = -(-degree // (n - 1))
        cone = (q - 1) * (degree - 1) - Fraction(q * (q - 1) * (n - 1), 2)
        assert cone.denominator == 1 and cone >= 0
        pa = genus_on_cone(degree, n)
        assert type(pa) is int and pa == cone

    def test_validation(self):
        with pytest.raises(ValueError):
            genus_on_surface(3, 3, 0)
        with pytest.raises(ValueError):
            genus_on_cone(0, 3)


def record_of(*exponents):
    return analyze(make_curve(exponents))


def statuses(findings):
    return {f.item: f.status for f in findings}


class TestSurfaceReport:
    """`surface_scroll_report` on real curves, or on real records changed
    with `_replace` where no curve gives the case."""

    def test_gorenstein_all_not_applicable(self):
        record = record_of(5, 6, 7, 8)
        assert (record.genus, record.eta) == (5, 0)
        assert scroll_structures(record.canonical, 2)
        findings = surface_scroll_report(record)
        assert findings
        assert all(f.status == "n/a" for f in findings)

    def test_cone_conic_record(self):
        record = record_of(4, 6, 7, 8, 9)
        assert (record.genus, record.g_prime, record.eta, record.mu) == (4, 1, 2, 1)
        assert [(s.m_min, s.ell) for s in scroll_structures(record.canonical, 2)] == [
            (0, 1),
            (0, 2),
        ]
        by_item = statuses(surface_scroll_report(record))
        assert by_item["fiber-degree-bound"] == "pass"
        assert by_item["conic-nearly-gorenstein"] == "pass"
        assert by_item["vertex-gonality"] == "pass"
        assert by_item["gonality-descent"] == "pass"
        assert by_item["fiber-degree-ceiling"] == "pass"
        assert by_item["image-genus-identity"] == "n/a"

    def test_smooth_conic_identity(self):
        record = record_of(5, 6, 7, 8, 9)
        assert (record.genus, record.g_prime, record.eta, record.mu) == (4, 0, 3, 1)
        assert (1, 2) in {(s.m_min, s.ell) for s in scroll_structures(record.canonical, 2)}
        by_item = statuses(surface_scroll_report(record))
        assert by_item["image-genus-identity"] == "pass"
        assert by_item["conic-nearly-gorenstein"] == "pass"
        assert by_item["directrix-gonality"] == "pass"

    def test_image_genus_identity_fails_on_wrong_g_prime(self):
        record = record_of(5, 6, 7, 8, 9)._replace(g_prime=1)
        by_item = statuses(surface_scroll_report(record))
        assert by_item["image-genus-identity"] == "fail"
        assert by_item["line-image-rational"] == "fail"
        # mu = 1 still holds, so the conic item does not depend on g'
        assert by_item["conic-nearly-gorenstein"] == "pass"

    def test_fiber_bound_fails_on_quartic_fiber(self):
        # the step-4 runs (0, 4, 8) and (1, 5, 9) of a gcd-1 set sweep a
        # quartic fiber on the smooth scroll S(2, 2)
        record = record_of(3, 8, 12, 13)._replace(canonical=(0, 1, 4, 5, 8, 9))
        assert [(s.m_min, s.ell) for s in scroll_structures(record.canonical, 2)] == [(2, 4)]
        by_item = statuses(surface_scroll_report(record))
        assert by_item["fiber-degree-bound"] == "fail"

    def test_cubic_items_use_flags(self):
        record = record_of(3, 8, 12, 13)
        assert (record.genus, record.eta, record.mu, record.eta_branches) == (6, 1, 1, (1, 0))
        assert record.flags["kunz"] and record.flags["almost_gorenstein"]
        assert [(s.m_min, s.ell) for s in scroll_structures(record.canonical, 2)] == [(1, 3)]
        findings = surface_scroll_report(record)
        by_item = statuses(findings)
        assert by_item["cubic-kunz-almost-gorenstein"] == "pass"
        assert by_item["cubic-dimension-bound"] == "pass"
        # gon(C') = 3, the gonality of `image_curve(record.canonical)`
        descent = next(f for f in findings if f.item == "gonality-descent")
        assert descent.detail == "gon(C) = 3 <= gon(C') + g - g' = 5"
        # 3m = g - 3 is attained, so the bound needs Kunz at a single point
        by_item = statuses(
            surface_scroll_report(record._replace(flags={**record.flags, "kunz": False}))
        )
        assert by_item["cubic-kunz-almost-gorenstein"] == "fail"
        assert by_item["cubic-dimension-bound"] == "fail"
        by_item = statuses(surface_scroll_report(record._replace(eta_branches=(1, 1))))
        assert by_item["cubic-kunz-almost-gorenstein"] == "pass"
        assert by_item["cubic-dimension-bound"] == "fail"

    def test_low_genus_not_applicable(self):
        rows = build_catalog([3], non_gorenstein=True)
        assert rows
        for row in rows:
            assert all(f.status == "n/a" for f in surface_scroll_report(row))


def block_structure(step, *blocks):
    """A hand-built structure on a gcd-1 set, so ell is the step."""
    return ScrollStructure(step, blocks, 1)


class TestThreefoldReport:
    """`threefold_bundle_report` on real records with threefold structures
    of their canonical models, or hand-built structures where no real
    curve gives the fiber degree or scroll dimension."""

    def test_gorenstein_not_applicable(self):
        record = record_of(3, 6, 7)
        assert (record.genus, record.eta) == (6, 0)
        structure = scroll_structures(record.canonical, 3)[0]
        findings = threefold_bundle_report(record, structure, 2, 2)
        assert findings
        assert all(f.status == "n/a" for f in findings)

    def test_line_image_record(self):
        record = record_of(6, 7, 8, 9, 10, 11)
        assert (record.genus, record.g_prime, record.eta, record.mu) == (5, 0, 4, 1)
        structure = scroll_structures(record.canonical, 3)[0]
        assert structure.ell == 1
        by_item = statuses(threefold_bundle_report(record, structure, 2, 2))
        assert by_item["chi-residual"] == "pass"
        assert by_item["line-image-twist"] == "pass"
        assert by_item["line-image-rational"] == "pass"
        assert by_item["nearly-gorenstein-twist"] == "pass"
        bent = record._replace(g_prime=1, flags={**record.flags, "nearly_gorenstein": False})
        by_item = statuses(threefold_bundle_report(bent, structure, 2, 2))
        assert by_item["line-image-rational"] == "fail"
        assert by_item["nearly-gorenstein-twist"] == "fail"

    def test_residual_reports_forced_twist(self):
        record = record_of(6, 7, 8, 9, 10, 11)
        structure = scroll_structures(record.canonical, 3)[0]
        findings = threefold_bundle_report(record, structure, 2, 7)
        residual = next(f for f in findings if f.item == "chi-residual")
        assert residual.status == "fail"
        assert "forces v = 2" in residual.detail
        assert statuses(findings)["line-image-twist"] == "fail"

    def test_conic_image_record(self):
        record = record_of(4, 6, 11, 12, 13)
        assert (record.genus, record.eta, record.mu) == (6, 2, 1)
        assert not record.flags["kunz"] and record.flags["nearly_gorenstein"]
        structure = next(s for s in scroll_structures(record.canonical, 3) if s.ell == 2)
        by_item = statuses(threefold_bundle_report(record, structure, 3, 1))
        assert by_item["chi-residual"] == "pass"
        assert by_item["conic-image-twist"] == "pass"
        assert by_item["nearly-gorenstein-twist"] == "pass"
        assert by_item["kunz-twist"] == "pass"
        by_item = statuses(
            threefold_bundle_report(
                record._replace(flags={**record.flags, "kunz": True}), structure, 3, 1
            )
        )
        assert by_item["kunz-twist"] == "fail"

    def test_cubic_image_record(self):
        # eta + 2 mu = 3 with eta = mu = 1 gives v = -(g - 4)
        record = record_of(3, 8, 12, 13)
        assert (record.genus, record.eta, record.mu, record.eta_branches) == (6, 1, 1, (1, 0))
        assert record.flags["kunz"]
        structure = next(s for s in scroll_structures(record.canonical, 3) if s.ell == 3)
        by_item = statuses(threefold_bundle_report(record, structure, 4, -2))
        assert by_item["chi-residual"] == "pass"
        assert by_item["cubic-image-twist"] == "pass"
        assert by_item["kunz-single-point-twist"] == "pass"
        by_item = statuses(
            threefold_bundle_report(record._replace(eta_branches=(1, 1)), structure, 4, -2)
        )
        assert by_item["kunz-single-point-twist"] == "fail"

    def test_quartic_quintic_twist(self):
        record = record_of(4, 10, 11, 16, 17)
        assert (record.genus, record.eta, record.mu) == (8, 2, 1)
        structure = next(s for s in scroll_structures(record.canonical, 3) if s.ell == 4)
        by_item = statuses(threefold_bundle_report(record, structure, 5, -7))
        assert by_item["chi-residual"] == "pass"
        assert by_item["quartic-image-twist"] == "pass"
        assert "quartic-kunz-exclusion" not in by_item
        assert statuses(threefold_bundle_report(record, structure, 6, -7))[
            "quartic-image-twist"
        ] == "fail"

    def test_quartic_even_twist(self):
        record = record_of(4, 10, 11, 16, 17)
        assert not record.flags["kunz"]
        structure = next(s for s in scroll_structures(record.canonical, 3) if s.ell == 4)
        assert structure.m_min == 1
        by_item = statuses(threefold_bundle_report(record, structure, 4, -4))
        assert by_item["chi-residual"] == "pass"
        assert by_item["quartic-image-twist"] == "pass"
        assert by_item["quartic-kunz-exclusion"] == "pass"
        assert by_item["quartic-dimension-bound"] == "pass"
        cone = block_structure(4, (0, 4, 8, 12), (6,), (7, 11))
        by_item = statuses(threefold_bundle_report(record, cone, 4, -4))
        assert by_item["quartic-dimension-bound"] == "fail"
        kunz = record._replace(flags={**record.flags, "kunz": True})
        by_item = statuses(threefold_bundle_report(kunz, structure, 4, -4))
        assert by_item["quartic-kunz-exclusion"] == "fail"

    def test_large_fiber_bound(self):
        # ell = 5: lhs = 30 m - 5(g - 5) + 4 deg - eta - 2 mu vs sqrt(10) deg
        record = record_of(4, 6, 11, 12, 13)
        assert (record.genus, record.eta, record.mu) == (6, 2, 1)
        wide = block_structure(5, (0, 5, 10, 15), (1, 6, 11, 16), (2, 7, 12, 17))
        assert (wide.ell, wide.m_min) == (5, 3)
        by_item = statuses(threefold_bundle_report(record, wide, 4, -2))
        assert by_item["large-fiber-dimension-bound"] == "pass"
        cone = block_structure(5, (0,), (1, 6, 11, 16), (2, 7, 12, 17))
        assert (cone.ell, cone.m_min) == (5, 0)
        by_item = statuses(threefold_bundle_report(record, cone, 4, -2))
        assert by_item["large-fiber-dimension-bound"] == "fail"
