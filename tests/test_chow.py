"""Tests for the intersection-theory module."""

from __future__ import annotations

from fractions import Fraction

import pytest

from scrollcurves.chow import (
    Ambient,
    DivisorClass,
    RankTwoBundleClass,
    bundle_chi_dual,
    canonical_class,
    chow_degree,
    chow_element,
    chow_mul,
    chow_mul_degree,
    divisor_element,
    euler_characteristic,
    euler_characteristic_chow,
    fiber,
    genus_on_cone,
    genus_on_surface,
    h0_class,
    hyperplane,
    pa_from_bundle,
    surface_scroll_report,
    threefold_bundle_report,
)
from scrollcurves.errors import (
    NonIntegralGenus,
    NotTopDimensional,
    PathsDisagree,
    UnsupportedDimension,
)


def split_bundle(a: int, b: int, c: int, d: int) -> RankTwoBundleClass:
    """Chern data of O(aH + bF) + O(cH + dF)."""
    return RankTwoBundleClass(a + c, b + d, a * c, a * d + b * c)


class TestAmbient:
    def test_balanced(self):
        assert Ambient.balanced(2, 5).dims == (2, 3)
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

    def test_smoothness(self):
        assert Ambient((1, 1)).smooth
        assert not Ambient((0, 2)).smooth
        assert not Ambient.balanced(3, 2).smooth

    def test_ops_require_smooth(self):
        cone = Ambient((0, 3))
        with pytest.raises(ValueError):
            hyperplane(cone)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Ambient((-1, 2))


class TestRingNormalForm:
    def test_top_power_rewrites(self):
        amb = Ambient((1, 1, 1))
        assert chow_element(amb, {(3, 0): 1}) == {(2, 1): Fraction(3)}

    def test_vanishing_monomials(self):
        amb = Ambient((1, 1, 1))
        assert chow_element(amb, {(3, 1): 1}) == {}
        assert chow_element(amb, {(0, 2): 5}) == {}
        assert chow_element(amb, {(4, 0): 1}) == {}

    def test_fiber_squares_to_zero(self):
        amb = Ambient((2, 2))
        f = fiber(amb)
        assert chow_mul(amb, f, f) == {}

    def test_hyperplane_cube_degree(self):
        amb = Ambient((1, 1, 1))
        h = hyperplane(amb)
        h2 = chow_mul(amb, h, h)
        _, degree = chow_mul_degree(amb, h2, h)
        assert degree == 3

    def test_hyperplane_square_fiber(self):
        amb = Ambient((1, 1, 1))
        h = hyperplane(amb)
        h2 = chow_mul(amb, h, h)
        _, degree = chow_mul_degree(amb, h2, fiber(amb))
        assert degree == 1

    def test_surface_divisor_product(self):
        amb = Ambient.balanced(2, 4)
        d = divisor_element(amb, DivisorClass(2, 3))
        _, degree = chow_mul_degree(amb, d, hyperplane(amb))
        assert degree == 11

    def test_degree_rejects_mixed(self):
        amb = Ambient((1, 1))
        with pytest.raises(NotTopDimensional):
            chow_degree(amb, hyperplane(amb))

    def test_mul_degree_none_when_not_top(self):
        amb = Ambient((1, 1, 1))
        product, degree = chow_mul_degree(amb, hyperplane(amb), hyperplane(amb))
        assert degree is None
        assert product == {(2, 0): Fraction(1)}


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
        assert canonical_class(Ambient.balanced(2, 4)) == DivisorClass(-2, 2)
        assert canonical_class(Ambient((1, 1, 1))) == DivisorClass(-3, 1)


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
                        assert euler_characteristic(amb, c) == euler_characteristic_chow(amb, c)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            euler_characteristic(Ambient((1, 1, 1, 1)), DivisorClass(1, 0))


class TestBundleChi:
    def test_trivial_bundle(self):
        amb = Ambient((1, 1, 1))
        assert bundle_chi_dual(amb, RankTwoBundleClass(0, 0, 0, 0)) == 2

    def test_split_example(self):
        amb = Ambient((1, 1, 1))
        assert bundle_chi_dual(amb, RankTwoBundleClass(4, 0, 4, 0)) == 0
        assert euler_characteristic(amb, DivisorClass(-2, 0)) == 0

    def test_split_additivity(self):
        for dims in [(1, 1, 1), (1, 2, 2), (1, 1, 3)]:
            amb = Ambient(dims)
            for a in range(0, 3):
                for b in range(-2, 3):
                    for c in range(0, 3):
                        for d in range(-2, 3):
                            total = bundle_chi_dual(amb, split_bundle(a, b, c, d))
                            parts = euler_characteristic(
                                amb, DivisorClass(-a, -b)
                            ) + euler_characteristic(amb, DivisorClass(-c, -d))
                            assert total == parts

    def test_surface_rejected(self):
        with pytest.raises(UnsupportedDimension):
            bundle_chi_dual(Ambient((1, 2)), RankTwoBundleClass(1, 0, 0, 0))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            genus_on_surface(3, 3)
        with pytest.raises(ValueError):
            genus_on_cone(0, 3)


class TestSurfaceReport:
    def test_gorenstein_all_not_applicable(self):
        findings = surface_scroll_report(
            g=5, g_prime=0, eta=0, mu=0, gon=2, gon_cprime=0, structures=[(1, 1)]
        )
        assert findings
        assert all(f.status == "n/a" for f in findings)

    def test_cone_conic_record(self):
        findings = surface_scroll_report(
            g=4,
            g_prime=1,
            eta=2,
            mu=1,
            gon=3,
            gon_cprime=2,
            structures=[(0, 1), (0, 2)],
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["fiber-degree-bound"] == "pass"
        assert by_item["conic-nearly-gorenstein"] == "pass"
        assert by_item["vertex-gonality"] == "pass"
        assert by_item["gonality-descent"] == "pass"
        assert by_item["fiber-degree-ceiling"] == "pass"
        assert by_item["image-genus-identity"] == "n/a"

    def test_smooth_conic_identity(self):
        findings = surface_scroll_report(
            g=5,
            g_prime=1,
            eta=3,
            mu=1,
            gon=3,
            gon_cprime=2,
            structures=[(1, 2)],
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["image-genus-identity"] == "pass"
        assert by_item["conic-nearly-gorenstein"] == "pass"
        assert by_item["directrix-gonality"] == "pass"

    def test_image_genus_identity_fails_on_wrong_g_prime(self):
        findings = surface_scroll_report(
            g=5,
            g_prime=2,
            eta=3,
            mu=1,
            gon=3,
            gon_cprime=2,
            structures=[(1, 2)],
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["image-genus-identity"] == "fail"

    def test_fiber_bound_fails_on_quartic_fiber(self):
        findings = surface_scroll_report(
            g=6, g_prime=0, eta=2, mu=1, gon=4, gon_cprime=1, structures=[(1, 4)]
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["fiber-degree-bound"] == "fail"

    def test_cubic_items_use_flags(self):
        findings = surface_scroll_report(
            g=6,
            g_prime=0,
            eta=1,
            mu=1,
            gon=4,
            gon_cprime=1,
            structures=[(1, 3)],
            kunz=True,
            almost_gorenstein=True,
            single_nongorenstein_point=True,
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["cubic-kunz-almost-gorenstein"] == "pass"
        assert by_item["cubic-dimension-bound"] == "pass"

    def test_low_genus_not_applicable(self):
        findings = surface_scroll_report(
            g=3, g_prime=0, eta=1, mu=1, gon=2, gon_cprime=1, structures=[(1, 1)]
        )
        assert all(f.status == "n/a" for f in findings)


class TestThreefoldReport:
    def test_gorenstein_not_applicable(self):
        findings = threefold_bundle_report(g=6, eta=0, mu=0, ell=1, u=2, v=2)
        assert all(f.status == "n/a" for f in findings)

    def test_line_image_record(self):
        findings = threefold_bundle_report(
            g=5,
            eta=4,
            mu=1,
            ell=1,
            u=2,
            v=2,
            g_prime=0,
            nearly_gorenstein=True,
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["chi-residual"] == "pass"
        assert by_item["line-image-twist"] == "pass"
        assert by_item["line-image-rational"] == "pass"
        assert by_item["nearly-gorenstein-twist"] == "pass"

    def test_residual_reports_forced_twist(self):
        findings = threefold_bundle_report(g=5, eta=4, mu=1, ell=1, u=2, v=7)
        residual = next(f for f in findings if f.item == "chi-residual")
        assert residual.status == "fail"
        assert "forces v = 2" in residual.detail

    def test_conic_image_record(self):
        findings = threefold_bundle_report(
            g=6,
            eta=2,
            mu=1,
            ell=2,
            u=3,
            v=1,
            nearly_gorenstein=True,
            kunz=False,
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["chi-residual"] == "pass"
        assert by_item["conic-image-twist"] == "pass"
        assert by_item["nearly-gorenstein-twist"] == "pass"
        assert by_item["kunz-twist"] == "pass"

    def test_cubic_image_record(self):
        # eta + 2 mu = 3 with eta = mu = 1 gives v = -(g - 4)
        findings = threefold_bundle_report(
            g=7,
            eta=1,
            mu=1,
            ell=3,
            u=4,
            v=-3,
            kunz=True,
            single_nongorenstein_point=True,
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["chi-residual"] == "pass"
        assert by_item["cubic-image-twist"] == "pass"
        assert by_item["kunz-single-point-twist"] == "pass"

    def test_quartic_quintic_twist(self):
        findings = threefold_bundle_report(g=8, eta=2, mu=1, ell=4, u=5, v=-7)
        by_item = {f.item: f.status for f in findings}
        assert by_item["chi-residual"] == "pass"
        assert by_item["quartic-image-twist"] == "pass"

    def test_quartic_even_twist(self):
        findings = threefold_bundle_report(
            g=8,
            eta=2,
            mu=1,
            ell=4,
            u=4,
            v=-4,
            kunz=False,
            single_nongorenstein_point=False,
            m_min=1,
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["chi-residual"] == "pass"
        assert by_item["quartic-image-twist"] == "pass"
        assert by_item["quartic-kunz-exclusion"] == "pass"
        assert by_item["quartic-dimension-bound"] == "pass"

    def test_large_fiber_bound(self):
        # ell = 5: lhs = 30 m - 5(g - 5) + 4 deg - eta - 2 mu vs sqrt(10) deg
        findings = threefold_bundle_report(
            g=6, eta=2, mu=1, ell=5, u=4, v=-2, m_min=3
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["large-fiber-dimension-bound"] == "pass"
        findings = threefold_bundle_report(
            g=6, eta=2, mu=1, ell=5, u=4, v=-2, m_min=0
        )
        by_item = {f.item: f.status for f in findings}
        assert by_item["large-fiber-dimension-bound"] == "fail"
